package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"condorj2/internal/sqldb/pager"
)

// The paged heap lays committed row versions onto fixed-size pages as
// slotted records, behind the buffer pool. One page holds records of
// exactly one table (its table ID is in the page header), so recovery
// can attribute every record — and recognize pages of dropped tables,
// whose IDs are never reused, as garbage.
//
// Page layout (pageSize ≤ 32 KiB, so in-page offsets fit uint16):
//
//	[0:4)   pager checksum (pager-owned, see pager.CheckHeader)
//	[4:8)   table ID, uint32 LE (0 = uninitialized page)
//	[8:10)  slot count, uint16 LE
//	[10:12) freeHigh, uint16 LE: lowest byte offset used by record data
//	[12:12+4*slots) slot directory: per slot [off uint16][len uint16];
//	        len == 0 marks a dead (erased, reusable) slot
//	[freeHigh:pageSize) record bytes, growing downward
//
// Record encoding (immutable once written):
//
//	[seq uvarint][flags u8][rid uvarint][ncols uvarint][values...]
//
// seq is a store-global monotone sequence stamped at write time. Strict
// 2PL serializes conflicting writers of one rid, so per-rid seq order
// equals commit order and recovery keeps the highest-seq record per rid
// — no timestamps on disk. flags bit0 marks a delete tombstone (no
// values follow): the record that keeps a delete durable after the WAL
// records covering it are truncated, while the deleted row's data
// record must remain for older snapshots.
//
// A record is erased (slot freed) only when nothing can ever need it
// again: its in-memory version was pruned below the GC watermark, its
// table was dropped, or recovery proved it superseded. Erasures of
// slot-freeing tombstones are additionally deferred past the next
// checkpoint (see pageStore.queueTombErase): the tombstone may only
// leave the disk after the erasure of the data records it shadows is
// durable, or a crash could resurrect the deleted row.

const (
	pageHdrTableID = 4  // uint32
	pageHdrSlots   = 8  // uint16
	pageHdrFree    = 10 // uint16
	pageHdrSize    = 12
	slotDirEntry   = 4
)

// pageLoc names one record: a page and its slot-directory index. Slot
// indexes are stable across in-page compaction, so locs held by
// in-memory versions survive page reorganization. The zero value (pid
// 0) means "not paged".
type pageLoc struct {
	pid  pager.PageID
	slot uint16
}

// recFlagTomb marks a tombstone record (mirrors verTomb on versions).
const recFlagTomb = 1 << 0

// pageRecord is one decoded record (recovery scan and reads).
type pageRecord struct {
	seq  uint64
	rid  int64
	tomb bool
	row  []Value
}

// encodeRecord serializes one record.
func encodeRecord(seq uint64, rid int64, tomb bool, row []Value) []byte {
	var buf bytes.Buffer
	writeUvarint(&buf, seq)
	flags := byte(0)
	if tomb {
		flags |= recFlagTomb
	}
	buf.WriteByte(flags)
	writeUvarint(&buf, uint64(rid))
	if !tomb {
		writeUvarint(&buf, uint64(len(row)))
		for _, v := range row {
			writeValue(&buf, v)
		}
	}
	return buf.Bytes()
}

// decodeRecordBytes parses one record image, with the bounds decodeRecord
// (wal.go) keeps: the row decoder is the same one.
func decodeRecordBytes(p []byte) (pageRecord, bool) {
	var rec pageRecord
	rd := byteReader{b: p}
	var ok bool
	if rec.seq, ok = rd.uvarint(); !ok {
		return rec, false
	}
	flags, ok := rd.u8()
	if !ok {
		return rec, false
	}
	rec.tomb = flags&recFlagTomb != 0
	if rec.rid, ok = rd.rid(); !ok {
		return rec, false
	}
	if !rec.tomb {
		if rec.row, ok = rd.row(); !ok {
			return rec, false
		}
	}
	return rec, rd.off == len(p)
}

// Page-image helpers. All take the full page image (checksum header
// included) and must run under the owning frame's latch.

func pageTableID(img []byte) uint32 { return binary.LittleEndian.Uint32(img[pageHdrTableID:]) }
func pageSlots(img []byte) int      { return int(binary.LittleEndian.Uint16(img[pageHdrSlots:])) }
func pageFreeHigh(img []byte) int   { return int(binary.LittleEndian.Uint16(img[pageHdrFree:])) }

func pageInit(img []byte, tableID uint32) {
	for i := range img {
		img[i] = 0
	}
	binary.LittleEndian.PutUint32(img[pageHdrTableID:], tableID)
	binary.LittleEndian.PutUint16(img[pageHdrFree:], uint16(len(img)))
}

// pageSlotEntry returns slot i's record extent (len 0 = dead).
func pageSlotEntry(img []byte, i int) (off, n int) {
	base := pageHdrSize + i*slotDirEntry
	return int(binary.LittleEndian.Uint16(img[base:])), int(binary.LittleEndian.Uint16(img[base+2:]))
}

func pageSetSlot(img []byte, i, off, n int) {
	base := pageHdrSize + i*slotDirEntry
	binary.LittleEndian.PutUint16(img[base:], uint16(off))
	binary.LittleEndian.PutUint16(img[base+2:], uint16(n))
}

// pageInsert places rec into the page, reusing a dead slot index if one
// exists, compacting dead record space if needed. Returns the slot
// index, or ok=false when the record does not fit.
func pageInsert(img []byte, rec []byte) (slot int, ok bool) {
	slots := pageSlots(img)
	slot = -1
	for i := 0; i < slots; i++ {
		if _, n := pageSlotEntry(img, i); n == 0 {
			slot = i
			break
		}
	}
	dirEnd := pageHdrSize + slots*slotDirEntry
	need := len(rec)
	if slot < 0 {
		need += slotDirEntry
	}
	if pageFreeHigh(img)-dirEnd < need {
		pageCompact(img)
		if pageFreeHigh(img)-dirEnd < need {
			return 0, false
		}
	}
	if slot < 0 {
		slot = slots
		binary.LittleEndian.PutUint16(img[pageHdrSlots:], uint16(slots+1))
	}
	off := pageFreeHigh(img) - len(rec)
	copy(img[off:], rec)
	binary.LittleEndian.PutUint16(img[pageHdrFree:], uint16(off))
	pageSetSlot(img, slot, off, len(rec))
	return slot, true
}

// pageCompact slides live records to the end of the page, reclaiming
// dead record space. Slot indexes are stable; only offsets move.
func pageCompact(img []byte) {
	slots := pageSlots(img)
	type live struct{ slot, off, n int }
	recs := make([]live, 0, slots)
	for i := 0; i < slots; i++ {
		if off, n := pageSlotEntry(img, i); n > 0 {
			recs = append(recs, live{i, off, n})
		}
	}
	// Move highest-offset records first so each memmove target is
	// already vacated.
	sort.Slice(recs, func(a, b int) bool { return recs[a].off > recs[b].off })
	high := len(img)
	for _, r := range recs {
		high -= r.n
		if high != r.off {
			copy(img[high:high+r.n], img[r.off:r.off+r.n])
			pageSetSlot(img, r.slot, high, r.n)
		}
	}
	binary.LittleEndian.PutUint16(img[pageHdrFree:], uint16(high))
}

// pageErase kills slot i. Reports whether the page now holds no live
// records.
func pageErase(img []byte, i int) (empty bool) {
	if i < pageSlots(img) {
		pageSetSlot(img, i, 0, 0)
	}
	for s := 0; s < pageSlots(img); s++ {
		if _, n := pageSlotEntry(img, s); n > 0 {
			return false
		}
	}
	return true
}

// pagedHeap is one table's record space: the set of pages holding its
// records and a fill list of pages with (probable) free space. All
// structural state is guarded by mu; page contents are guarded by the
// owning frame's latch.
type pagedHeap struct {
	store   *pageStore
	tableID uint32

	mu      sync.Mutex
	pages   []pager.PageID
	fill    []pager.PageID
	inFill  map[pager.PageID]bool
	dropped atomic.Bool
}

func newPagedHeap(store *pageStore, tableID uint32) *pagedHeap {
	return &pagedHeap{store: store, tableID: tableID, inFill: make(map[pager.PageID]bool)}
}

// adoptPage registers a page discovered by the recovery scan.
func (h *pagedHeap) adoptPage(pid pager.PageID, hasSpace bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pages = append(h.pages, pid)
	if hasSpace && !h.inFill[pid] {
		h.fill = append(h.fill, pid)
		h.inFill[pid] = true
	}
}

// writeRow appends one record for rid (row data, or a tombstone) and
// returns its location. The heap lock is held across the page search so
// concurrent committers of the same table serialize on page choice —
// different tables proceed in parallel.
func (h *pagedHeap) writeRow(rid int64, row []Value, tomb bool) (pageLoc, error) {
	if h.dropped.Load() {
		return pageLoc{}, nil // table dropped mid-commit: version is unreachable anyway
	}
	rec := encodeRecord(h.store.nextSeq.Add(1), rid, tomb, row)
	ps := h.store.pool
	maxRec := h.store.pager.PageSize() - pageHdrSize - slotDirEntry
	if len(rec) > maxRec {
		return pageLoc{}, fmt.Errorf("sqldb: row %d of table id %d encodes to %d bytes, exceeding the %d-byte page record limit", rid, h.tableID, len(rec), maxRec)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.fill) > 0 {
		pid := h.fill[len(h.fill)-1]
		f, err := ps.Fetch(pid)
		if err != nil {
			return pageLoc{}, err
		}
		f.Lock()
		img := f.Data()
		if pageTableID(img) == 0 {
			pageInit(img, h.tableID) // recovered empty page, first use
		}
		slot, ok := pageInsert(img, rec)
		f.Unlock()
		ps.Unpin(f, ok)
		if ok {
			return pageLoc{pid: pid, slot: uint16(slot)}, nil
		}
		h.fill = h.fill[:len(h.fill)-1]
		delete(h.inFill, pid)
	}
	pid, f, err := ps.NewPage()
	if err != nil {
		return pageLoc{}, err
	}
	f.Lock()
	img := f.Data()
	pageInit(img, h.tableID)
	slot, ok := pageInsert(img, rec)
	f.Unlock()
	ps.Unpin(f, true)
	if !ok {
		return pageLoc{}, fmt.Errorf("sqldb: record of %d bytes does not fit a fresh page", len(rec))
	}
	h.pages = append(h.pages, pid)
	h.fill = append(h.fill, pid)
	h.inFill[pid] = true
	return pageLoc{pid: pid, slot: uint16(slot)}, nil
}

// readRow materializes the record at loc. A tombstone or any
// inconsistency (dropped table, stale page) yields nil — the engine
// treats it as "no row", and genuine I/O errors are recorded sticky on
// the store.
func (h *pagedHeap) readRow(loc pageLoc) []Value {
	if loc.pid == 0 || h.dropped.Load() {
		return nil
	}
	f, err := h.store.pool.Fetch(loc.pid)
	if err != nil {
		h.store.fail(err)
		return nil
	}
	f.RLock()
	img := f.Data()
	var row []Value
	if pageTableID(img) == h.tableID && int(loc.slot) < pageSlots(img) {
		if off, n := pageSlotEntry(img, int(loc.slot)); n > 0 {
			if rec, ok := decodeRecordBytes(img[off : off+n]); ok && !rec.tomb {
				row = rec.row
			}
		}
	}
	f.RUnlock()
	h.store.pool.Unpin(f, false)
	if row == nil {
		h.store.fail(fmt.Errorf("sqldb: paged heap: no record at page %d slot %d for table id %d", loc.pid, loc.slot, h.tableID))
	}
	return row
}

// erase kills the record at loc (pruned version, recovery-proven loser,
// or reclaimed tombstone past its checkpoint barrier).
func (h *pagedHeap) erase(loc pageLoc) {
	if loc.pid == 0 || h.dropped.Load() {
		return
	}
	f, err := h.store.pool.Fetch(loc.pid)
	if err != nil {
		h.store.fail(err)
		return
	}
	f.Lock()
	img := f.Data()
	dirty := false
	if pageTableID(img) == h.tableID && int(loc.slot) < pageSlots(img) {
		if _, n := pageSlotEntry(img, int(loc.slot)); n > 0 {
			pageErase(img, int(loc.slot))
			dirty = true
		}
	}
	f.Unlock()
	h.store.pool.Unpin(f, dirty)
	if dirty {
		h.mu.Lock()
		if !h.inFill[loc.pid] && !h.dropped.Load() {
			h.fill = append(h.fill, loc.pid)
			h.inFill[loc.pid] = true
		}
		h.mu.Unlock()
	}
}

// eraseAll erases a batch of locations (GC prune output).
func (h *pagedHeap) eraseAll(locs []pageLoc) {
	for _, loc := range locs {
		h.erase(loc)
	}
}

// drop abandons every page of a dropped table. The pages are NOT
// returned to the allocator at runtime: a lock-free snapshot reader may
// still hold a pin on one (Forget skips pinned frames), and reusing the
// page ID while a stale frame lingers would let the pool map one ID to
// two frames. Table IDs are never reused, so the leaked pages scan as
// garbage at the next recovery and rejoin the free list then.
func (h *pagedHeap) drop() {
	if h.dropped.Swap(true) {
		return
	}
	h.mu.Lock()
	pages := h.pages
	h.pages, h.fill, h.inFill = nil, nil, map[pager.PageID]bool{}
	h.mu.Unlock()
	h.store.pool.Forget(pages)
}
