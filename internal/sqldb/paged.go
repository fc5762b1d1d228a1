package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"condorj2/internal/sqldb/pager"
)

// Paged durable storage: committed row versions live on fixed-size pages
// behind a buffer pool, and recovery starts from the pages plus the WAL
// tail above the last fuzzy checkpoint instead of replaying the whole log.
// A store is paged from the open that names a pool (Options.PoolPages > 0)
// and stays so: once it has checkpointed, its meta files say it is, and
// Open reads the layout from them.
//
// The fuzzy checkpoint protocol (no writer quiesce):
//
//  1. barrier := wal.checkpointBarrier() — the highest durable LSN with
//     no unapplied commit at or below it (in-flight registry).
//  2. cut := len(tombQ) — tombstone erasures queued so far; their
//     shadowed data-record erasures are already in the pool, so this
//     flush makes those erasures durable.
//  3. FlushPages(DirtyPages()) — every page effect of commits ≤ barrier
//     reaches disk (effects of later commits may leak too: their records
//     carry their LSNs, so the redo of the tail skips what they hold).
//  4. Write checkpoint meta (ckptLSN = barrier, catalog snapshot,
//     counters) to the alternating meta files.
//  5. wal.truncateThrough(barrier) — drop the covered log prefix.
//  6. Erase tombQ[:cut] — the tombstones' own records may leave the
//     disk now that the erasures they guard are durable.
//
// Crash at any point is safe: before step 4 the old meta governs and
// the longer WAL tail replays; between 4 and 5 the tail still holds
// groups ≤ barrier, which the redo skips (lsn ≤ ckptLSN).
//
// Recovery scans the page file for the highest-LSN record per (table,
// rid), places each live one as its slot's base (version.go), then hands
// the WAL tail above the checkpoint LSN to the same redo every other log
// goes through (applyGroup), which skips what those records already hold
// (redoImage.skips) and refuses a row the crash lost (ErrLostRow).

// ckptFlushBatch is how many pages one checkpoint WriteBatch carries.
const ckptFlushBatch = 32

// defaultPoolPages is the buffer-pool capacity of a paged store opened
// without one (Options.PoolPages == 0): 2 MiB of frames at the default page
// size — enough for a shell or a restarted daemon to serve from; a
// deployment sizes its pool to its working set.
const defaultPoolPages = 256

// tombErase is one deferred tombstone-record erasure (see
// pageStore.queueTombErase).
type tombErase struct {
	heap *pagedHeap
	loc  pageLoc
}

// pageStore owns the paged-storage machinery of one DB: the pager, the
// buffer pool, checkpoint state, and the deferred tombstone-erasure queue.
// A page names its table by the table's permanent id (DB.nextTableID);
// ids are never reused, so recovery can discard pages of dropped tables.
type pageStore struct {
	vfs  VFS
	path string

	pager *pager.Pager
	pool  *pager.Pool

	// ckptLSN is the newest checkpointed LSN: recovery replays only WAL
	// groups above it. metaGen counts meta generations (the alternating
	// meta files carry it; the higher valid one wins at open).
	ckptLSN     atomic.Uint64
	metaGen     uint64
	checkpoints atomic.Uint64
	ckptErrors  atomic.Uint64

	// ckptMu serializes checkpoints (Checkpoint calls and the final one
	// in Close).
	ckptMu sync.Mutex

	// tombQ holds the erasures of slot-freeing tombstones, and of those
	// recovery found winning, deferred past the next checkpoint: a
	// tombstone record may only leave the disk after the erasure of the
	// data records it shadows is durable, or a crash in between could
	// resurrect the deleted row.
	tombMu sync.Mutex
	tombQ  []tombErase

	// Sticky failure: a page write that did not reach disk leaves memory
	// and pages incoherent, so checkpoints refuse until reopen (the WAL
	// keeps everything recoverable).
	errMu sync.Mutex
	err   error
}

// fail records the first unrecoverable page-storage error. The engine
// keeps serving from memory and the WAL; checkpoints refuse.
func (st *pageStore) fail(err error) {
	if err == nil {
		return
	}
	st.errMu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.errMu.Unlock()
}

// Err reports the sticky page-storage failure, if any.
func (st *pageStore) Err() error {
	st.errMu.Lock()
	defer st.errMu.Unlock()
	return st.err
}

// queueTombErase defers the erasure of a tombstone's page record past the
// next completed checkpoint.
func (st *pageStore) queueTombErase(h *pagedHeap, loc pageLoc) {
	st.tombMu.Lock()
	st.tombQ = append(st.tombQ, tombErase{heap: h, loc: loc})
	st.tombMu.Unlock()
}

// tombCut snapshots how many queued tombstone erasures the next
// checkpoint covers.
func (st *pageStore) tombCut() int {
	st.tombMu.Lock()
	defer st.tombMu.Unlock()
	return len(st.tombQ)
}

// drainTomb erases the first cut queued tombstones (checkpoint done:
// the data-record erasures they were guarding are durable).
func (st *pageStore) drainTomb(cut int) {
	st.tombMu.Lock()
	batch := st.tombQ[:cut]
	st.tombQ = append([]tombErase(nil), st.tombQ[cut:]...)
	st.tombMu.Unlock()
	for _, te := range batch {
		te.heap.erase(te.loc)
	}
}

func (st *pageStore) close() error {
	return st.pager.Close()
}

// pagedMeta is one decoded checkpoint-meta image: everything recovery
// needs besides the pages and the WAL tail.
type pagedMeta struct {
	gen         uint64
	ckptLSN     uint64
	nextTableID uint32
	pageSize    int
	tables      []metaTable
}

// metaTable is one table's catalog entry in checkpoint meta.
type metaTable struct {
	tableID  uint32
	autoHigh int64 // table.autoHigh
	ddl      string
	indexes  []string // secondary index DDLs (pk_/uq_ implied by table DDL)
}

// metaMagic names the meta layout. A sealed meta with any other magic is
// refused: "cj2m" was a layout with a statistics byte per table, "cj2n"
// one without each table's autoincrement mark, "cj2o" one whose page
// records carried a store-global sequence number, not their commit's LSN.
var metaMagic = []byte("cj2p")
var metaCRC = crc32.MakeTable(crc32.Castagnoli)

// metaSealed reports whether p is a whole meta write: long enough for a
// magic and a checksum, its trailing CRC32C matching the body. A torn
// write is not sealed.
func metaSealed(p []byte) bool {
	if len(p) < len(metaMagic)+4 {
		return false
	}
	body, tail := p[:len(p)-4], p[len(p)-4:]
	return crc32.Checksum(body, metaCRC) == binary.LittleEndian.Uint32(tail)
}

func encodeMeta(m *pagedMeta) []byte {
	var buf bytes.Buffer
	buf.Write(metaMagic)
	for _, u := range []uint64{m.gen, m.ckptLSN, uint64(m.nextTableID), uint64(m.pageSize), uint64(len(m.tables))} {
		writeUvarint(&buf, u)
	}
	for i := range m.tables {
		mt := &m.tables[i]
		writeUvarint(&buf, uint64(mt.tableID))
		writeUvarint(&buf, uint64(mt.autoHigh))
		writeString(&buf, mt.ddl)
		writeUvarint(&buf, uint64(len(mt.indexes)))
		for _, ix := range mt.indexes {
			writeString(&buf, ix)
		}
	}
	sum := crc32.Checksum(buf.Bytes(), metaCRC)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	buf.Write(crc[:])
	return buf.Bytes()
}

// decodeMeta parses a checkpoint-meta image: sealed, this layout's magic,
// and a body that parses to its last byte. Its bytes come from disk, so
// like decodeRecord it bounds every count by the bytes that remain — a
// table entry takes at least four, an index DDL at least one.
func decodeMeta(p []byte) (*pagedMeta, bool) {
	if !metaSealed(p) || !bytes.Equal(p[:len(metaMagic)], metaMagic) {
		return nil, false
	}
	rd := &byteReader{b: p[len(metaMagic) : len(p)-4]}
	m := &pagedMeta{}
	var tid, ps, n uint64
	for _, u := range []*uint64{&m.gen, &m.ckptLSN, &tid, &ps, &n} {
		var ok bool
		if *u, ok = rd.uvarint(); !ok {
			return nil, false
		}
	}
	m.nextTableID, m.pageSize = uint32(tid), int(ps)
	if n > uint64(len(rd.b)-rd.off) {
		return nil, false
	}
	m.tables = make([]metaTable, n)
	for i := range m.tables {
		mt := &m.tables[i]
		id, ok := rd.uvarint()
		if !ok {
			return nil, false
		}
		mt.tableID = uint32(id)
		high, ok := rd.uvarint()
		if !ok {
			return nil, false
		}
		mt.autoHigh = int64(high)
		if mt.ddl, ok = rd.str(); !ok {
			return nil, false
		}
		ni, ok := rd.uvarint()
		if !ok || ni > uint64(len(rd.b)-rd.off) {
			return nil, false
		}
		mt.indexes = make([]string, ni)
		for j := range mt.indexes {
			if mt.indexes[j], ok = rd.str(); !ok {
				return nil, false
			}
		}
	}
	if rd.off != len(rd.b) {
		return nil, false
	}
	return m, true
}

func metaPaths(path string) (a, b string) {
	return path + ".meta.a", path + ".meta.b"
}

// readPagedMeta loads the newest valid checkpoint meta, or nil when none
// exists (fresh store, or a crash before the first checkpoint completed
// its meta write — in either case the WAL is complete, so full replay
// covers everything). A torn meta file is skipped: the other generation
// stands. A meta file that cannot be read, or one that is sealed but not
// in this layout (ErrLogFormat), is an error, not an absent one: Open
// decides the layout on this answer, and a store that did checkpoint has
// a truncated log.
func readPagedMeta(vfs VFS, path string) (*pagedMeta, error) {
	a, b := metaPaths(path)
	var best *pagedMeta
	for _, name := range []string{a, b} {
		data, err := vfs.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("sqldb: reading checkpoint meta: %w", err)
		}
		m, ok := decodeMeta(data)
		if !ok {
			if metaSealed(data) {
				return nil, fmt.Errorf("%w: checkpoint meta %s", ErrLogFormat, name)
			}
			continue
		}
		if best == nil || m.gen > best.gen {
			best = m
		}
	}
	return best, nil
}

// writeMeta durably writes a new meta generation to the alternating meta
// file (odd generations to .a, even to .b), so a crash mid-write always
// leaves the previous generation intact in the other file.
func (st *pageStore) writeMeta(m *pagedMeta) error {
	a, b := metaPaths(st.path)
	name := a
	if m.gen%2 == 0 {
		name = b
	}
	f, err := st.vfs.Create(name)
	if err != nil {
		return fmt.Errorf("sqldb: checkpoint meta: %w", err)
	}
	if _, err := f.Write(encodeMeta(m)); err != nil {
		f.Close()
		return fmt.Errorf("sqldb: checkpoint meta: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sqldb: checkpoint meta sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sqldb: checkpoint meta close: %w", err)
	}
	st.metaGen = m.gen
	return nil
}

// openPageStore opens (or creates) the page file and double-write buffer
// for path, repairs torn page writes, and seeds the allocator from the
// file extent and the counters from meta, the checkpoint image recovery
// starts from (nil = full WAL replay).
func openPageStore(vfs VFS, path string, meta *pagedMeta, pageSize, poolPages int) (*pageStore, error) {
	if pageSize == 0 {
		pageSize = pager.DefaultPageSize
	}
	pagesName, dwbName := path+".pages", path+".dwb"
	if meta == nil {
		// No checkpoint ever completed, so the WAL is complete and any
		// existing pages (evictions before the first checkpoint) are
		// redundant: the full redo writes every row through again, and
		// stale records left beside it would compete with its own. Start
		// clean.
		if err := vfs.Remove(pagesName); err != nil {
			return nil, fmt.Errorf("sqldb: clearing stale page file: %w", err)
		}
		if err := vfs.Remove(dwbName); err != nil {
			return nil, fmt.Errorf("sqldb: clearing stale double-write buffer: %w", err)
		}
	} else if meta.pageSize > 0 {
		// The file's own page size is authoritative over Options.PageSize.
		pageSize = meta.pageSize
	}
	pageFile, err := vfs.OpenRandom(pagesName)
	if err != nil {
		return nil, fmt.Errorf("sqldb: opening page file: %w", err)
	}
	dwbFile, err := vfs.OpenRandom(dwbName)
	if err != nil {
		pageFile.Close()
		return nil, fmt.Errorf("sqldb: opening double-write buffer: %w", err)
	}
	pgr, err := pager.New(pageFile, dwbFile, pageSize)
	if err != nil {
		pageFile.Close()
		dwbFile.Close()
		return nil, err
	}
	if _, err := pgr.RecoverTorn(); err != nil {
		pgr.Close()
		return nil, fmt.Errorf("sqldb: repairing torn pages: %w", err)
	}
	// The allocated extent comes from the file length, not from meta:
	// evictions after the last checkpoint may have grown the file.
	data, err := vfs.ReadFile(pagesName)
	if err != nil {
		pgr.Close()
		return nil, fmt.Errorf("sqldb: sizing page file: %w", err)
	}
	extent := pager.PageID((len(data) + pageSize - 1) / pageSize)
	pgr.SetAllocState(extent+1, nil)
	st := &pageStore{
		vfs:   vfs,
		path:  path,
		pager: pgr,
		pool:  pager.NewPool(pgr, poolPages),
	}
	if meta != nil {
		st.ckptLSN.Store(meta.ckptLSN)
		st.metaGen = meta.gen
	}
	return st, nil
}

// pageWriteThrough writes each to-be-stamped version's row (or
// tombstone) through to its table's heap pages as a record carrying lsn,
// its commit's, publishing the record location on the version and
// releasing the in-memory row bytes. Runs on the commit path after the WAL
// write, while the transaction still holds its row X locks (leader) or in
// LSN order (follower apply), so per-rid record LSN order is commit order.
// Of a rid written twice in the commit only its chain's head is written:
// recovery could not tell two records of one LSN apart. The subsequent
// begin-stamp's release/acquire pair publishes loc to readers. No-op
// without paged storage.
func (db *DB) pageWriteThrough(entries []stampEntry, lsn uint64) {
	st := db.store
	if st == nil {
		return
	}
	for _, e := range entries {
		h := e.tbl.heap
		if h == nil || e.v.loc.pid() != 0 || e.tbl.slot(e.rid).head.Load() != e.v {
			continue
		}
		tomb := e.v.isTomb()
		loc, err := h.writeRow(e.rid, e.v.data, tomb, lsn)
		if err != nil {
			// Sticky: the version keeps its in-memory data (no page in loc),
			// readers are unaffected, checkpoints refuse from here on.
			st.fail(err)
			return
		}
		if loc == 0 {
			continue // table dropped mid-commit
		}
		e.v.loc |= loc // a tombstone keeps its bit
		e.v.data = noRow
	}
}

// buildPagedMeta snapshots checkpoint meta from the published catalog,
// each table's indexes under its latch. The caller serializes against DDL
// (shared catalog lock) or runs with writers drained (final checkpoint);
// a follower's redo of DDL may still run beside it, which is why the id
// counter is read after the catalog: it then covers every id there.
func (db *DB) buildPagedMeta(ckptLSN uint64) *pagedMeta {
	st := db.store
	m := &pagedMeta{
		gen:      st.metaGen + 1,
		ckptLSN:  ckptLSN,
		pageSize: st.pager.PageSize(),
	}
	c := db.cat.Load()
	m.nextTableID = db.nextTableID.Load()
	for _, n := range slices.Sorted(maps.Keys(c.byName)) {
		tbl := c.byName[n]
		mt := metaTable{tableID: tbl.tableID, autoHigh: tbl.autoHigh.Load(), ddl: tbl.schema.DDL()}
		tbl.latch.RLock()
		for _, ix := range tbl.indexes {
			if strings.HasPrefix(ix.schema.Name, "pk_") || strings.HasPrefix(ix.schema.Name, "uq_") {
				continue // implied by the table DDL
			}
			mt.indexes = append(mt.indexes, ix.schema.DDL())
		}
		tbl.latch.RUnlock()
		m.tables = append(m.tables, mt)
	}
	return m
}

// fuzzyCheckpoint runs one checkpoint cycle without quiescing writers
// (see the protocol at the top of this file). final=true is the clean-
// shutdown variant: writers are already drained, so the catalog needs
// no lock and Begin (which a closed DB refuses) is not used.
func (db *DB) fuzzyCheckpoint(final bool) error {
	st := db.store
	if st == nil || db.wal == nil {
		return nil
	}
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	if err := st.Err(); err != nil {
		return fmt.Errorf("sqldb: checkpoint refused after page-storage failure: %w", err)
	}
	barrier := db.wal.checkpointBarrier()
	cut := st.tombCut()
	if _, err := st.pool.FlushPages(st.pool.DirtyPages(), ckptFlushBatch); err != nil {
		st.fail(err)
		st.ckptErrors.Add(1)
		return fmt.Errorf("sqldb: checkpoint flush: %w", err)
	}
	var meta *pagedMeta
	if final {
		meta = db.buildPagedMeta(barrier)
	} else {
		// A shared catalog lock keeps DDL out while the catalog snapshot
		// is taken, so the meta image is a consistent schema.
		tx, err := db.Begin()
		if err != nil {
			st.ckptErrors.Add(1)
			return err
		}
		if err := tx.lockTable(nil, lockShared); err != nil {
			tx.Rollback()
			st.ckptErrors.Add(1)
			return err
		}
		meta = db.buildPagedMeta(barrier)
		tx.Rollback()
	}
	if err := st.writeMeta(meta); err != nil {
		st.fail(err)
		st.ckptErrors.Add(1)
		return err
	}
	st.ckptLSN.Store(barrier)
	if err := db.wal.truncateThrough(barrier); err != nil {
		// Not sticky: a longer-than-needed WAL tail is safe, and the next
		// checkpoint retries the truncation.
		st.ckptErrors.Add(1)
		return fmt.Errorf("sqldb: checkpoint truncation: %w", err)
	}
	st.drainTomb(cut)
	st.checkpoints.Add(1)
	return nil
}

// diskRec is a rid's winning page record at recovery: its location (with
// the tombstone bit for a tombstone), its LSN, and its row until placed.
type diskRec struct {
	loc pageLoc
	lsn uint64
	img rowImage
}

// recoverPaged rebuilds the database from checkpoint meta, the page
// file, and the WAL tail, and returns the index of the log's committed
// prefix (see redoLog). meta == nil means no checkpoint ever completed:
// the page file was cleared at open and the whole WAL is redone (with
// write-through, so the pages repopulate) exactly as a log-only store
// redoes it.
func (db *DB) recoverPaged(meta *pagedMeta, data []byte) ([]walMark, error) {
	st := db.store

	// 1. Catalog from meta: every table under its checkpointed id and
	// autoincrement mark, and the id counter where the checkpoint left it.
	if meta != nil {
		db.nextTableID.Store(meta.nextTableID)
		for i := range meta.tables {
			mt := &meta.tables[i]
			for j, ddl := range append([]string{mt.ddl}, mt.indexes...) {
				stmt, err := Parse(ddl)
				if err != nil {
					return nil, fmt.Errorf("sqldb: recovery: bad meta DDL %q: %w", ddl, err)
				}
				if _, ok := stmt.(*CreateTableStmt); ok != (j == 0) || mt.tableID == 0 {
					return nil, fmt.Errorf("sqldb: recovery: meta entry %q (table id %d) is not a CREATE TABLE with an id and its indexes", ddl, mt.tableID)
				}
				if err := db.applyDDL(stmt, mt.tableID, nil); err != nil {
					return nil, fmt.Errorf("sqldb: recovery: %w", err)
				}
			}
			db.tableByID(uint64(mt.tableID)).autoHigh.Store(mt.autoHigh)
		}
	}

	// 2. Page scan: the highest-LSN record per (table, rid) wins (strict
	// 2PL orders one rid's commits by LSN, and a commit writes one record
	// per rid); older records are erased as they lose, through the pool,
	// and records of unknown tables are garbage.
	winners := make(map[uint32]map[int64]diskRec)
	var emptyPids, garbagePids []pager.PageID
	extent := st.pager.Allocated()
	buf := make([]byte, st.pager.PageSize())
	for pid := pager.PageID(1); pid <= extent; pid++ {
		empty, err := st.pager.ReadPage(pid, buf)
		if err != nil {
			return nil, fmt.Errorf("sqldb: recovery: %w", err)
		}
		if empty {
			emptyPids = append(emptyPids, pid)
			continue
		}
		tid := pageTableID(buf)
		tbl := db.tableByID(uint64(tid))
		if tbl == nil {
			// A dropped table's page, or one written for a table created
			// after the checkpoint (the tail recreates it under the id it
			// logged, and writes its rows again).
			garbagePids = append(garbagePids, pid)
			continue
		}
		m := winners[tid]
		if m == nil {
			m = make(map[int64]diskRec)
			winners[tid] = m
		}
		err = scanPage(buf, func(slot int, rec pageRecord) {
			loc := makeLoc(pid, slot)
			if best, seen := m[rec.rid]; seen {
				if rec.lsn <= best.lsn {
					tbl.heap.erase(loc)
					return
				}
				tbl.heap.erase(best.loc)
			}
			if rec.tomb {
				loc |= locTomb
			}
			m[rec.rid] = diskRec{loc: loc, lsn: rec.lsn, img: rec.img}
		})
		if err != nil {
			return nil, fmt.Errorf("sqldb: recovery: corrupt page %d: %w", pid, err)
		}
		dirEnd := pageHdrSize + pageSlots(buf)*slotDirEntry
		tbl.heap.adoptPage(pid, pageFreeHigh(buf)-dirEnd >= 64)
	}
	st.pager.SetAllocState(extent+1, append(append([]pager.PageID(nil), emptyPids...), garbagePids...))

	// Physically zero the garbage pages: their on-disk table IDs could
	// collide with IDs the tail replay assigns to recreated tables, and a
	// second crash would then attribute the stale records to them.
	for chunk := range slices.Chunk(garbagePids, ckptFlushBatch) {
		batch := make([]pager.BatchPage, len(chunk))
		for i, pid := range chunk {
			batch[i] = pager.BatchPage{PID: pid, Data: make([]byte, st.pager.PageSize())}
		}
		if err := st.pager.WriteBatch(batch); err != nil {
			return nil, fmt.Errorf("sqldb: recovery: clearing garbage pages: %w", err)
		}
	}

	// 3. Base placement: every winner but a tombstone becomes its slot's
	// base, which every snapshot sees, with no version object. A winning
	// tombstone's own erasure waits for the next checkpoint, which makes
	// the erasures of the records it shadows durable (queueTombErase). The
	// winners keep their LSNs for the redo.
	for tid, m := range winners {
		tbl := db.tableByID(uint64(tid))
		for rid, rec := range m {
			if rec.loc.tomb() {
				st.queueTombErase(tbl.heap, rec.loc)
				continue
			}
			tbl.pagedPlace(rid, rec.img, rec.loc)
			m[rid] = diskRec{loc: rec.loc, lsn: rec.lsn}
		}
	}
	if err := st.Err(); err != nil {
		return nil, fmt.Errorf("sqldb: recovery: %w", err)
	}

	// 4. WAL tail: groups at or below the checkpoint LSN are already in
	// the pages; later ones are redone over them, written through with
	// their own LSNs. Over a loaded image the winners' LSNs say which of
	// their effects it holds already (redoImage). The LSN horizon resumes
	// past everything ever logged — including the truncated prefix — so
	// new commits never reuse a checkpointed LSN.
	var im *redoImage
	if meta != nil {
		im = &redoImage{nextTableID: meta.nextTableID, winners: winners, held: make(map[rowKey]uint64)}
	}
	ckptLSN := st.ckptLSN.Load()
	db.replApplied.Store(ckptLSN)
	marks, err := db.redoLog(data, ckptLSN, im)
	if err != nil {
		return nil, err
	}
	if err := st.Err(); err != nil {
		return nil, fmt.Errorf("sqldb: recovery: %w", err)
	}
	return marks, nil
}

// BufferPoolStats snapshots the paged-storage counters: buffer-pool
// traffic, pager I/O, and checkpoint progress. All zeros when paged
// storage is off.
type BufferPoolStats struct {
	// Frames is the pool capacity; Resident/Dirty/Pinned describe its
	// current occupancy.
	Frames   int
	Resident int
	Dirty    int
	Pinned   int
	// Hits and Misses count Fetch outcomes; Evictions counts frames
	// reassigned, DirtyWrites the eviction write-backs among them.
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	DirtyWrites uint64
	// PageReads/PageWrites/Syncs count pager-level I/O calls; Repaired
	// counts torn pages fixed from the double-write buffer at open.
	PageReads  uint64
	PageWrites uint64
	Syncs      uint64
	Repaired   uint64
	// Checkpoints counts completed fuzzy checkpoints, CheckpointErrors
	// the failed attempts, CheckpointLSN the newest checkpointed LSN.
	Checkpoints      uint64
	CheckpointErrors uint64
	CheckpointLSN    uint64
	// PendingTombErases is the deferred tombstone-erasure backlog.
	PendingTombErases int
	// Failed reports the sticky page-storage failure, if any ("" = none).
	Failed string
}

// BufferPoolStats snapshots paged-storage counters; zeros when paged
// storage is not enabled.
func (db *DB) BufferPoolStats() BufferPoolStats {
	st := db.store
	if st == nil {
		return BufferPoolStats{}
	}
	ps := st.pool.Stats()
	st.tombMu.Lock()
	pend := len(st.tombQ)
	st.tombMu.Unlock()
	out := BufferPoolStats{
		Frames:            ps.Frames,
		Resident:          ps.Resident,
		Dirty:             ps.Dirty,
		Pinned:            ps.Pinned,
		Hits:              ps.Hits,
		Misses:            ps.Misses,
		Evictions:         ps.Evictions,
		DirtyWrites:       ps.DirtyWrites,
		PageReads:         ps.PageReads,
		PageWrites:        ps.PageWrites,
		Syncs:             ps.Syncs,
		Repaired:          ps.Repaired,
		Checkpoints:       st.checkpoints.Load(),
		CheckpointErrors:  st.ckptErrors.Load(),
		CheckpointLSN:     st.ckptLSN.Load(),
		PendingTombErases: pend,
	}
	if err := st.Err(); err != nil {
		out.Failed = err.Error()
	}
	return out
}
