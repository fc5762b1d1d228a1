package sqldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
//	[lsn uvarint][flags u8][rid uvarint][ncols uvarint][values...]
//
// lsn is the LSN of the commit that wrote the record, ARIES's page LSN
// taken to record level. Strict 2PL orders one rid's commits by LSN and a
// commit writes one record per rid (pageWriteThrough), so recovery keeps
// the highest-LSN record per rid and redoes only what lies above it.
// flags bit0 marks a delete tombstone (no values follow): the record that
// keeps a delete durable after the WAL records covering it are truncated,
// while the deleted row's data record must remain for older snapshots.
//
// A record is erased (slot freed) only when nothing can ever need it
// again: its in-memory version was pruned below the GC watermark, its
// table was dropped, or recovery proved it superseded. A heap slot's base
// (version.go) is erased exactly like a pruned version — by the prune that
// finds a newer committed version at or below the watermark above it, the
// deleting tombstone's included — and never when it is set. Erasures of
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

// pageLoc names one record in one word: its page id in bits 16–62, its
// slot-directory index in bits 0–15, and in the top bit a version's
// tombstone flag (rowVersion.isTomb), which names no record and which the
// page id and slot ignore. Slot indexes are stable across in-page
// compaction, so locs held by in-memory versions survive page
// reorganization. Page id 0 means "not paged", with or without the
// tombstone bit. A pageLoc lives only in memory; no format holds one.
type pageLoc uint64

const (
	locSlotBits         = 16
	locTomb     pageLoc = 1 << 63
	// maxLocPID is the highest page id a pageLoc holds: 2^47 pages, an
	// exbibyte of 8 KiB pages.
	maxLocPID = pager.PageID(locTomb>>locSlotBits - 1)
)

// makeLoc is the location of slot of page pid, pid at most maxLocPID.
func makeLoc(pid pager.PageID, slot int) pageLoc {
	return pageLoc(pid)<<locSlotBits | pageLoc(uint16(slot))
}

func (l pageLoc) pid() pager.PageID { return pager.PageID(l&^locTomb) >> locSlotBits }
func (l pageLoc) slot() int         { return int(uint16(l)) }
func (l pageLoc) tomb() bool        { return l&locTomb != 0 }

// recFlagTomb marks a tombstone record (mirrors locTomb on versions).
const recFlagTomb = 1 << 0

// pageRecord is one decoded record (recovery scan and reads).
type pageRecord struct {
	lsn  uint64
	rid  int64
	tomb bool
	img  rowImage
}

// encodeRecord serializes one record onto buf: a row's values are its
// image's cells, as they are.
func encodeRecord(buf *bytes.Buffer, lsn uint64, rid int64, tomb bool, row rowImage) {
	writeUvarint(buf, lsn)
	flags := byte(0)
	if tomb {
		flags |= recFlagTomb
	}
	buf.WriteByte(flags)
	writeUvarint(buf, uint64(rid))
	if !tomb {
		writeUvarint(buf, uint64(row.width()))
		buf.WriteString(row.cells())
	}
}

// decodeRecordBytes parses one record image, with the bounds decodeRecord
// (wal.go) keeps: the row decoder is the same one.
func decodeRecordBytes(p []byte) (pageRecord, bool) {
	var rec pageRecord
	rd := byteReader{b: p}
	var ok bool
	if rec.lsn, ok = rd.uvarint(); !ok {
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
		if rec.img, ok = rd.image(); !ok {
			return rec, false
		}
	}
	return rec, rd.off == len(p)
}

// Page-image helpers. All take the full page image (checksum header
// included) and must run under the owning frame's latch. Apart from
// pageValid they index the image by what its header and directory say, so
// an image read from disk goes through pageValid first; pageInit,
// pageInsert, pageCompact and pageErase keep a valid image valid.

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

// pageValid reports whether img is a well-formed initialized heap page:
// the slot directory lies inside the page and below freeHigh, and every
// live record lies inside [freeHigh, len(img)), all of them together no
// larger than that region (so compaction has room to pack them). A page's
// CRC says the bytes are the ones written, not that they were ever a
// page; this is the one place the two header counts and the directory are
// checked against the page size.
func pageValid(img []byte) bool {
	if len(img) < pageHdrSize || len(img) > pager.MaxPageSize {
		return false
	}
	slots, free := pageSlots(img), pageFreeHigh(img)
	if slots > (len(img)-pageHdrSize)/slotDirEntry {
		return false
	}
	if dirEnd := pageHdrSize + slots*slotDirEntry; free < dirEnd || free > len(img) {
		return false
	}
	live := 0
	for i := 0; i < slots; i++ {
		off, n := pageSlotEntry(img, i)
		if n == 0 {
			continue
		}
		if off < free || off+n > len(img) {
			return false
		}
		live += n
	}
	return live <= len(img)-free
}

// scanPage is how recovery reads one page image from disk: the image must
// pass pageValid and every live record must decode; each is handed to
// visit in slot order.
func scanPage(img []byte, visit func(slot int, rec pageRecord)) error {
	if !pageValid(img) {
		return errors.New("malformed header or slot directory")
	}
	for slot, slots := 0, pageSlots(img); slot < slots; slot++ {
		off, n := pageSlotEntry(img, slot)
		if n == 0 {
			continue
		}
		rec, ok := decodeRecordBytes(img[off : off+n])
		if !ok {
			return fmt.Errorf("undecodable record in slot %d", slot)
		}
		visit(slot, rec)
	}
	return nil
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

// pageInsert places rec (never empty) into the page, reusing the lowest
// dead slot index if one exists, compacting dead record space — through
// scratch, as pageCompact does — if that is what makes it fit. Returns
// the slot index, or ok=false, the page untouched, when the record does
// not fit even in a compacted page.
func pageInsert(img, rec, scratch []byte) (slot int, ok bool) {
	slots := pageSlots(img)
	slot = -1
	live := 0
	for i := 0; i < slots; i++ {
		if _, n := pageSlotEntry(img, i); n > 0 {
			live += n
		} else if slot < 0 {
			slot = i
		}
	}
	dirEnd := pageHdrSize + slots*slotDirEntry
	need := len(rec)
	if slot < 0 {
		need += slotDirEntry
	}
	if pageFreeHigh(img)-dirEnd < need {
		if len(img)-dirEnd-live < need {
			return 0, false
		}
		pageCompact(img, scratch)
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

// pageCompact packs the live records against the end of the page,
// reclaiming dead record space. Slot indexes are stable; only offsets
// move. The records are gathered in slot order into scratch (at least a
// page long, contents arbitrary) and copied back in one piece: two
// memmoves of the live bytes, and nothing has to be put in offset order
// first.
func pageCompact(img, scratch []byte) {
	slots := pageSlots(img)
	high := len(img)
	for i := 0; i < slots; i++ {
		if off, n := pageSlotEntry(img, i); n > 0 {
			high -= n
			copy(scratch[high:], img[off:off+n])
			pageSetSlot(img, i, high, n)
		}
	}
	copy(img[high:], scratch[high:len(img)])
	binary.LittleEndian.PutUint16(img[pageHdrFree:], uint16(high))
}

// pageErase kills slot i.
func pageErase(img []byte, i int) {
	if i < pageSlots(img) {
		pageSetSlot(img, i, 0, 0)
	}
}

// pageRows is what a resident heap page carries besides its bytes (it is
// the frame's pager.Attachment): the verdict of pageValid on the image
// the frame loaded, and the row images read from it so far, by slot. A
// slot's image is a copy of its live record's row, made once — by the
// first read since the page was loaded or the slot written, or handed
// over by the version that wrote it through — so reads after the first
// allocate nothing and no reader holds a pin: a result keeps the image
// (Rows.refs), never the frame, which a 256-frame pool could not spare for
// as long as a caller holds its rows. An image is shared by every reader
// and immutable, as rowVersion.data is: erasing or rewriting its slot, or
// resetting the table, drops the table's reference and never writes the
// image. It stays until its slot is erased or written again — compaction
// moves bytes, not slots — or until the pool resets the whole table
// because the frame left the page. Read under the frame latch, changed
// under the exclusive one.
type pageRows struct {
	checked bool // pageValid has run on this image
	bad     bool // ... and refused it
	rows    []rowImage
}

// Reset empties the table, keeping its array, for the frame's next page.
func (r *pageRows) Reset() {
	clear(r.rows)
	r.rows = r.rows[:0]
	r.checked, r.bad = false, false
}

func (r *pageRows) get(slot int) rowImage {
	if slot < len(r.rows) {
		return r.rows[slot]
	}
	return noRow
}

// put makes row — noRow for none — what rides slot. The table only grows
// between resets and Reset clears what was in use, so the array past len
// is empty already and growing is a reslice.
func (r *pageRows) put(slot int, row rowImage) {
	if slot >= len(r.rows) {
		if row == noRow {
			return
		}
		r.rows = slices.Grow(r.rows, slot+1-len(r.rows))[:slot+1]
	}
	r.rows[slot] = row
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
	enc     bytes.Buffer // writeRow's record, encoded under mu
	scratch []byte       // pageCompact's page of working space, used under mu
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

// rowsOf returns the frame's row table, attaching one on the
// frame's first use and passing the image through pageValid once per
// load. An uninitialized page (table ID 0) is not judged: it holds no
// record, and pageInit makes it valid before anything is put there. The
// caller holds the exclusive frame latch.
func rowsOf(f *pager.Frame) *pageRows {
	pr, _ := f.Attachment().(*pageRows)
	if pr == nil {
		pr = &pageRows{}
		f.Attach(pr)
	}
	if !pr.checked {
		img := f.Data()
		pr.bad = pageTableID(img) != 0 && !pageValid(img)
		pr.checked = true
	}
	return pr
}

// insert places rec on the latched frame's page if the page is this
// heap's, is well-formed and has room. row — what rec encodes, noRow for
// a tombstone — takes the place of whatever the frame's table held for the
// slot: the version that owned it lets go of it once written through, so
// it rides the frame from here on and the next read copies nothing.
func (h *pagedHeap) insert(f *pager.Frame, rec []byte, row rowImage) (slot int, ok bool) {
	img := f.Data()
	pr := rowsOf(f)
	if pr.bad || pageTableID(img) != h.tableID {
		h.store.fail(fmt.Errorf("sqldb: paged heap: corrupt page %d in the fill list of table id %d", f.PID(), h.tableID))
		return 0, false
	}
	if slot, ok = pageInsert(img, rec, h.scratch); ok {
		pr.put(slot, row)
	}
	return slot, ok
}

// writeRow appends one record for rid (row data, or a tombstone) of the
// commit of group lsn and returns its location. The heap lock is held
// across the encoding and the page search, so concurrent committers of the same table serialize on
// page choice and share the encode and compaction buffers — different
// tables proceed in parallel.
func (h *pagedHeap) writeRow(rid int64, row rowImage, tomb bool, lsn uint64) (pageLoc, error) {
	if h.dropped.Load() {
		return 0, nil // table dropped mid-commit: version is unreachable anyway
	}
	ps := h.store.pool
	pageSize := h.store.pager.PageSize()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.enc.Reset()
	if tomb {
		row = noRow
	}
	encodeRecord(&h.enc, lsn, rid, tomb, row)
	rec := h.enc.Bytes()
	if maxRec := pageSize - pageHdrSize - slotDirEntry; len(rec) > maxRec {
		return 0, fmt.Errorf("sqldb: row %d of table id %d encodes to %d bytes, exceeding the %d-byte page record limit", rid, h.tableID, len(rec), maxRec)
	}
	if h.scratch == nil {
		h.scratch = make([]byte, pageSize)
	}
	for len(h.fill) > 0 {
		pid := h.fill[len(h.fill)-1]
		f, err := ps.Fetch(pid)
		if err != nil {
			return 0, err
		}
		f.Lock()
		if img := f.Data(); pageTableID(img) == 0 {
			pageInit(img, h.tableID) // recovered empty page, first use
		}
		slot, ok := h.insert(f, rec, row)
		f.Unlock()
		ps.Unpin(f, ok)
		if ok {
			return makeLoc(pid, slot), nil
		}
		h.fill = h.fill[:len(h.fill)-1]
		delete(h.inFill, pid)
	}
	pid, f, err := ps.NewPage()
	if err != nil {
		return 0, err
	}
	f.Lock()
	pageInit(f.Data(), h.tableID)
	slot, ok := h.insert(f, rec, row)
	f.Unlock()
	ps.Unpin(f, true)
	if !ok {
		return 0, fmt.Errorf("sqldb: record of %d bytes does not fit a fresh page", len(rec))
	}
	h.pages = append(h.pages, pid)
	h.fill = append(h.fill, pid)
	h.inFill[pid] = true
	return makeLoc(pid, slot), nil
}

// liveRecord returns the bytes of the live record at slot of a latched
// frame's image, pr being rowsOf's verdict on it, or nil: not this heap's
// page, a corrupt one, no such slot, a dead one.
func (h *pagedHeap) liveRecord(img []byte, pr *pageRows, slot int) []byte {
	if pr.bad || pageTableID(img) != h.tableID || slot >= pageSlots(img) {
		return nil
	}
	off, n := pageSlotEntry(img, slot)
	return img[off : off+n]
}

// readRow materializes the record at loc. A tombstone or any
// inconsistency (dropped table, stale or corrupt page) yields noRow — the
// engine treats it as "no row", and it as well as genuine I/O errors are
// recorded sticky on the store.
//
// The row copied out of a resident page rides the page's frame (pageRows),
// so a read that finds it there allocates nothing; the checks of table
// ID, slot bound and live length are made on the page either way.
func (h *pagedHeap) readRow(loc pageLoc) rowImage {
	if loc.pid() == 0 || h.dropped.Load() {
		return noRow
	}
	f, err := h.store.pool.Fetch(loc.pid())
	if err != nil {
		h.store.fail(err)
		return noRow
	}
	slot := loc.slot()
	var row rowImage
	f.RLock()
	if pr, _ := f.Attachment().(*pageRows); pr != nil && pr.checked && len(h.liveRecord(f.Data(), pr, slot)) > 0 {
		row = pr.get(slot)
	}
	f.RUnlock()
	if row == noRow {
		// First read of this slot since the page was loaded or the slot
		// written: copy it out, under the exclusive latch the table needs.
		f.Lock()
		pr := rowsOf(f)
		if b := h.liveRecord(f.Data(), pr, slot); len(b) > 0 {
			if row = pr.get(slot); row == noRow {
				if rec, ok := decodeRecordBytes(b); ok && !rec.tomb {
					row = rec.img
					pr.put(slot, row)
				}
			}
		}
		f.Unlock()
	}
	h.store.pool.Unpin(f, false)
	if row == noRow {
		h.store.fail(fmt.Errorf("sqldb: paged heap: no record at page %d slot %d for table id %d", loc.pid(), slot, h.tableID))
	}
	return row
}

// erase kills the record at loc (pruned version, recovery-proven loser,
// or reclaimed tombstone past its checkpoint barrier).
func (h *pagedHeap) erase(loc pageLoc) {
	pid := loc.pid()
	if pid == 0 || h.dropped.Load() {
		return
	}
	f, err := h.store.pool.Fetch(pid)
	if err != nil {
		h.store.fail(err)
		return
	}
	slot := loc.slot()
	f.Lock()
	img := f.Data()
	pr := rowsOf(f)
	dirty := len(h.liveRecord(img, pr, slot)) > 0
	if dirty {
		pageErase(img, slot)
		pr.put(slot, noRow)
	} else if pr.bad {
		h.store.fail(fmt.Errorf("sqldb: paged heap: corrupt page %d of table id %d", pid, h.tableID))
	}
	f.Unlock()
	h.store.pool.Unpin(f, dirty)
	if dirty {
		h.mu.Lock()
		if !h.inFill[pid] && !h.dropped.Load() {
			h.fill = append(h.fill, pid)
			h.inFill[pid] = true
		}
		h.mu.Unlock()
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
