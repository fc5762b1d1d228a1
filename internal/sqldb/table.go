package sqldb

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// table is the in-memory heap storage for one table plus its indexes.
// Row ids are slot positions in rows; each slot holds a version chain (see
// version.go). Emptied slots are recycled through a free list once GC
// proves no snapshot can still see them, which keeps scan order
// deterministic (slot order) — important for reproducible simulations.
//
// Logical isolation is provided by the engine's two-phase locking
// protocol for writers and by snapshot visibility for read-only
// transactions. Because transactions holding only intention locks mutate
// disjoint rows of the same table concurrently — and snapshot readers
// take no lock-manager locks at all — the physical structures (the slot
// chunks, free list, and index trees) are
// additionally protected by a short-held latch. Slot heads, version
// stamps, and chain links are atomic, so the hot paths (version push on
// update/delete, chain walks on read) need only the shared latch; the
// exclusive latch guards structural changes: heap growth, index-entry
// mutation, and index builds. The latch is never held while blocking on a
// lock-manager lock (that would deadlock invisibly to the waits-for
// graph).
type table struct {
	schema   TableSchema
	latch    sync.RWMutex
	rows     slots
	free     []int64
	liveRows atomic.Int64
	indexes  []*index
	// autoCols are the AUTOINCREMENT columns' positions. autoHigh is the
	// largest value of theirs a committed write stored — a transaction's as
	// it commits, the redo's as it applies — whether or not a row still
	// holds it: the mark a restart or a promotion resumes above, so no id
	// is issued twice. The checkpoint meta carries it. autoIssued is the
	// largest value buildRow issued or any write stored, committed or not,
	// which a concurrent insert must not be issued either.
	autoCols             []int
	autoHigh, autoIssued atomic.Int64
	// pruned is the DB's count of versions pruned off chains.
	pruned *atomic.Uint64
	// lastIndex is the number the newest index was given: each index of
	// the table gets the next, never reused, under the exclusive latch.
	lastIndex uint32
	// walk is where the index walks writers make under the exclusive
	// latch (checkUnique's) assemble the keys they visit.
	walk []byte

	// tableID is the table's permanent, never-reused id: what the log, the
	// checkpoint meta and its pages name it by. Paged storage: committed
	// versions' row bytes live in heap page records and versions carry only
	// a pageLoc. heap is nil in the default in-memory mode.
	tableID uint32
	heap    *pagedHeap

	// Plan-cache invalidation epochs (see plancache.go). schemaEpoch
	// advances whenever the set of physical access paths changes (CREATE
	// INDEX, DROP INDEX, and DROP TABLE of this table — every path funnels
	// through addIndexLocked/dropIndex/applyDDL, so replication apply and
	// WAL recovery bump it too). statsEpoch advances when a plan-validity
	// check finds the live row count has drifted past the replan threshold
	// from the count a plan was costed at. A cached plan records both at
	// build time and is discarded when either moves.
	schemaEpoch atomic.Uint64
	statsEpoch  atomic.Uint64
}

// Slot chunk sizes: a table's first chunk holds slotChunkMin slots, and
// from the second on each chunk doubles the slots before it, up to
// slotChunkMax; every chunk past that holds slotChunkMax. A table of a few
// rows costs one 128-byte chunk, and a large one wastes less than one
// 32 KiB chunk at its end.
const (
	slotChunkMinBits = 4
	slotChunkMaxBits = 12
	slotChunkMin     = 1 << slotChunkMinBits
	slotChunkMax     = 1 << slotChunkMaxBits
)

// slots is a table's heap: its chain heads, rid i the i-th, held inline
// in chunks that are never moved or freed, so a slot's address stays valid
// while later inserts add chunks — table.slot hands it out past the latch
// it was found under. A paged table keeps its slots' bases in chunks of
// the same sizes beside them (bases; nil, and paged false, for a table
// without pages). n is the slots in use; the rest of the last chunk is
// zero, empty slots for the next rids.
type slots struct {
	chunks [][]chainHead
	bases  [][]baseLoc
	paged  bool
	n      int64
}

// slotChunk is the chunk holding rid and rid's position in it.
func slotChunk(rid int64) (c int, off int64) {
	switch {
	case rid < slotChunkMin:
		return 0, rid
	case rid < slotChunkMax:
		c = bits.Len64(uint64(rid) >> slotChunkMinBits)
		return c, rid - slotChunkMin<<(c-1)
	}
	return int(rid>>slotChunkMaxBits) + slotChunkMaxBits - slotChunkMinBits, rid & (slotChunkMax - 1)
}

// at is slot rid, which is in use.
func (s *slots) at(rid int64) rowSlot {
	c, off := slotChunk(rid)
	r := rowSlot{chainHead: &s.chunks[c][off]}
	if s.paged {
		r.base = &s.bases[c][off]
	}
	return r
}

// get is slot rid, or past the heap's end no slot (a nil chainHead).
func (s *slots) get(rid int64) rowSlot {
	if rid < 0 || rid >= s.n {
		return rowSlot{}
	}
	return s.at(rid)
}

// grow puts n slots in use, adding chunks as the new ones need.
func (s *slots) grow(n int64) {
	for ; s.n < n; s.n++ {
		if c, _ := slotChunk(s.n); c == len(s.chunks) {
			size := min(slotChunkMin<<max(c-1, 0), slotChunkMax)
			s.chunks = append(s.chunks, make([]chainHead, size))
			if s.paged {
				s.bases = append(s.bases, make([]baseLoc, size))
			}
		}
	}
}

// index is one secondary (or primary) index over a table.
type index struct {
	schema IndexSchema
	cols   []int // column positions in key order
	tree   *ordIndex
	// num is the index's permanent number within its table, from 1: what
	// its key-value locks (keyLockTarget) and GC entries name it by.
	num uint32
}

func newTable(schema TableSchema, pruned *atomic.Uint64) *table {
	t := &table{schema: schema, pruned: pruned}
	for ci, c := range schema.Columns {
		if c.AutoIncrement {
			t.autoCols = append(t.autoCols, ci)
		}
	}
	if len(schema.PKCols) > 0 {
		t.addIndexLocked(IndexSchema{
			Name:    "pk_" + schema.Name,
			Table:   schema.Name,
			Columns: colNames(schema, schema.PKCols),
			Unique:  true,
		})
	}
	for i, u := range schema.Uniques {
		t.addIndexLocked(IndexSchema{
			Name:    fmt.Sprintf("uq_%s_%d", schema.Name, i),
			Table:   schema.Name,
			Columns: colNames(schema, u),
			Unique:  true,
		})
	}
	return t
}

// resolve materializes what a slot read found, a version or else the
// slot's base: noRow for "no row" (neither, or a delete tombstone), the
// version's in-memory image when present (default mode, and uncommitted
// versions in paged mode), else the page record named by v.loc or by the
// base. A paged read failure also yields noRow — and records a sticky
// error on the store (readRow does both).
func (t *table) resolve(v *rowVersion, base pageLoc) rowImage {
	if v == nil {
		if base == 0 {
			return noRow
		}
		return t.heap.readRow(base)
	}
	if v.isTomb() {
		return noRow
	}
	if v.data != noRow {
		return v.data
	}
	if t.heap != nil {
		return t.heap.readRow(v.loc)
	}
	return noRow
}

// prune clips s's chain below the watermark (rowSlot.pruneBelow), counts
// the versions it unlinked, and erases the page records of the versions
// and the base it freed — a chain rarely sheds more than one at a time, so
// their locations stay on the stack.
// Safe to call with the table latch held: the pool layer never acquires
// table latches, so no lock cycle — just potential page I/O under the
// latch, which only GC and chain pruning pay.
func (t *table) prune(s rowSlot, watermark uint64) {
	var buf [2]pageLoc
	pruned, freed := s.pruneBelow(watermark, buf[:0])
	if pruned > 0 {
		t.pruned.Add(pruned)
	}
	if t.heap != nil {
		t.heap.eraseAll(freed)
	}
}

func colNames(s TableSchema, idxs []int) []string {
	names := make([]string, len(idxs))
	for i, c := range idxs {
		names[i] = s.Columns[c].Name
	}
	return names
}

// addIndexLocked builds an index over every version of every row, its base
// included, so a snapshot of any age finds through it what a seq scan
// would. No writer of the table is in flight (CREATE INDEX holds the
// table's S lock; redo and table creation have none), so every version is
// committed. The keys only history holds — a shadowed version's or base's
// the live row does not share, and every one of a chain headed by a
// tombstone — are returned as GC records for the caller to queue, exactly
// like an update's orphans.
func (t *table) addIndexLocked(is IndexSchema) ([]gcRecord, error) {
	t.latch.Lock()
	defer t.latch.Unlock()
	for _, ix := range t.indexes {
		if ix.schema.Name == is.Name {
			return nil, fmt.Errorf("sqldb: index %s already exists", is.Name)
		}
	}
	cols := make([]int, len(is.Columns))
	for i, name := range is.Columns {
		ci := t.schema.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: index %s: unknown column %s", is.Name, name)
		}
		cols[i] = ci
	}
	t.lastIndex++
	ix := &index{schema: is, cols: cols, tree: newOrdIndex(), num: t.lastIndex}
	var history []gcRecord
	var buf keyBuf
	for rid := range t.rows.n {
		s := t.rows.at(rid)
		live := t.resolve(s.newest())
		if live != noRow {
			if err := t.checkUnique(ix, live, rid); err != nil {
				return nil, err
			}
		}
		var orphans []gcEntry
		newest := true
		t.history(s, func(row rowImage) bool {
			if row != noRow {
				k := ix.appendEntry(buf[:0], row, rid)
				if !newest && (live == noRow || !ix.sameKey(live, row)) {
					orphans = append(orphans, gcEntry{index: ix.num, key: string(k)})
				}
				ix.tree.insert(view(k))
			}
			newest = false
			return true
		})
		if len(orphans) > 0 {
			history = append(history, gcRecord{tableID: t.tableID, rid: rid, entries: orphans})
		}
	}
	t.indexes = append(t.indexes, ix)
	t.schemaEpoch.Add(1)
	return history, nil
}

func (t *table) dropIndex(name string) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	for i, ix := range t.indexes {
		if ix.schema.Name == name {
			t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
			t.schemaEpoch.Add(1)
			return true
		}
	}
	return false
}

func (t *table) findIndex(name string) *index {
	for _, ix := range t.indexes {
		if ix.schema.Name == name {
			return ix
		}
	}
	return nil
}

// indexNumbered is t's index numbered num, or nil once it is dropped.
// Caller holds the latch.
func (t *table) indexNumbered(num uint32) *index {
	for _, ix := range t.indexes {
		if ix.num == num {
			return ix
		}
	}
	return nil
}

// keyBuf is the stack room a key is built in: the CAS's keys fit, and a
// longer one grows onto the heap.
type keyBuf [64]byte

// entryKey builds the physical index key for a row: the indexed columns
// followed by the rowid tiebreaker, one owned string, for a key kept past
// the latch (a GC record's); an insert, which the tree copies, encodes
// into a keyBuf with appendEntry instead. Every index — unique ones
// included — carries the tiebreaker, because under multi-versioning two
// rids may legitimately hold entries for the same logical key at once (a
// committed-deleted row awaiting GC and its replacement). Uniqueness is
// enforced against live versions by checkUnique, not by key collision.
func (ix *index) entryKey(row rowImage, rid int64) string {
	var buf keyBuf
	return string(ix.appendEntry(buf[:0], row, rid))
}

// appendKey appends the encoding of row's indexed columns to b.
func (ix *index) appendKey(b []byte, row rowImage) []byte {
	for _, c := range ix.cols {
		b = appendKeyValue(b, row.col(c))
	}
	return b
}

// appendEntry appends row's entry key at rid to b.
func (ix *index) appendEntry(b []byte, row rowImage, rid int64) []byte {
	return appendKeyRid(ix.appendKey(b, row), rid)
}

// keyValues is row's key under ix as values.
func (ix *index) keyValues(row rowImage) []Value {
	k := make([]Value, len(ix.cols))
	for i, c := range ix.cols {
		k[i] = row.col(c)
	}
	return k
}

// enforces reports whether the unique constraint applies to row's key
// under ix: SQL allows multiple NULLs under a unique constraint, so a
// NULL-bearing key enforces nothing.
func (ix *index) enforces(row rowImage) bool {
	if !ix.schema.Unique {
		return false
	}
	for _, c := range ix.cols {
		if row.isNull(c) {
			return false
		}
	}
	return true
}

// sameKey reports whether two versions of one row occupy the same entry
// under ix, comparing the indexed columns' cells in place (the rid
// tiebreaker is the row's own, so it cannot differ). Cells that differ
// still encode one key when they are FLOATs the key has equal: −0 and +0,
// or two NaNs.
func (ix *index) sameKey(a, b rowImage) bool {
	for _, c := range ix.cols {
		ca, cb := a.cell(c), b.cell(c)
		if ca == cb {
			continue
		}
		if ca[0] != byte(Float) || cb[0] != byte(Float) ||
			floatKeyBits(cellValue(ca).float()) != floatKeyBits(cellValue(cb).float()) {
			return false
		}
	}
	return true
}

// FNV-1a, the hash behind key-lock resource ids.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// keyLockTarget names the lock-manager resource guarding one unique key
// value of t's index ix, given as its encoded columns (appendKey's bytes):
// the table's id, the index's number, and the key's hash. Index entries
// outlive their versions under MVCC, so the entry itself cannot serialize
// writers of the same key; these logical key locks do. The key is hashed —
// collisions only over-block (a spurious wait or deadlock retry), never
// under-block. The shift keeps the rid off the tableRID sentinel, which
// the held-lock gauges read.
func (t *table) keyLockTarget(ix *index, k []byte) lockTarget {
	h := fnvOffset
	for _, b := range k {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return lockTarget{table: t.tableID, index: ix.num, rid: int64(h >> 1)}
}

// rowKeyLockTarget is keyLockTarget for the key row occupies under ix.
func (t *table) rowKeyLockTarget(ix *index, row rowImage) lockTarget {
	var buf keyBuf
	return t.keyLockTarget(ix, ix.appendKey(buf[:0], row))
}

// uniqueKeyTargets appends to dst the key-lock resources of the enforced
// unique key values entering or leaving occupancy when old is replaced by
// newRow — with newRow noRow, of every one old occupies.
func (t *table) uniqueKeyTargets(dst []lockTarget, old, newRow rowImage) []lockTarget {
	t.latch.RLock()
	defer t.latch.RUnlock()
	for _, ix := range t.indexes {
		eo, en := ix.enforces(old), newRow != noRow && ix.enforces(newRow)
		if eo && en && ix.sameKey(old, newRow) {
			continue
		}
		if eo {
			dst = append(dst, t.rowKeyLockTarget(ix, old))
		}
		if en {
			dst = append(dst, t.rowKeyLockTarget(ix, newRow))
		}
	}
	return dst
}

// UniqueViolationError reports a duplicate key under a unique index.
type UniqueViolationError struct {
	Index string
	Key   []Value // the indexed columns' values, in index order
}

func (e *UniqueViolationError) Error() string {
	return fmt.Sprintf("sqldb: unique constraint violated on index %s", e.Index)
}

// checkUnique reports a violation when another rid's newest version
// claims row's logical key under ix. The caller holds the latch and —
// on the write path — the key's X lock, which excludes uncommitted
// versions of this key by other transactions; an uncommitted claimant is
// therefore this transaction's own earlier insert, a genuine duplicate.
func (t *table) checkUnique(ix *index, row rowImage, rid int64) error {
	if !ix.enforces(row) {
		return nil
	}
	// The probe — the key's columns, a prefix of every entry holding it —
	// lives on the stack; only a reported violation builds the key's values.
	var buf keyBuf
	var conflict bool
	ix.tree.scanPrefix(view(ix.appendKey(buf[:0], row)), &t.walk, func(_ string, rid2 int64) bool {
		if rid2 == rid {
			return true
		}
		headRow := t.resolve(t.rows.at(rid2).newest())
		if headRow == noRow {
			return true // reclaimed slot or tombstoned row: key is free
		}
		if ix.enforces(headRow) && ix.sameKey(headRow, row) {
			conflict = true
			return false
		}
		return true // newest version moved to a different key
	})
	if conflict {
		return &UniqueViolationError{Index: ix.schema.Name, Key: ix.keyValues(row)}
	}
	return nil
}

// allocSlot reserves a heap slot (recycled or fresh) without publishing a
// version into it, so the caller can X-lock the rid before it becomes
// visible to concurrent index scans. Balance with write or releaseSlot.
func (t *table) allocSlot() int64 {
	t.latch.Lock()
	defer t.latch.Unlock()
	if n := len(t.free); n > 0 {
		rid := t.free[n-1]
		t.free = t.free[:n-1]
		return rid
	}
	rid := t.rows.n
	t.rows.grow(rid + 1)
	return rid
}

// releaseSlot returns an allocated-but-unpublished slot to the free list.
func (t *table) releaseSlot(rid int64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	t.free = append(t.free, rid)
}

// The row rules' refusals: what a write found in its slot that the rules
// forbid.
var (
	errInsertLive    = errors.New("insert into live slot")
	errUpdateMissing = errors.New("update of missing row")
	errDeleteMissing = errors.New("delete of missing row")
)

// rowRule is what a write of op may find in its slot, live saying whether
// a row is there: an insert no row, an update or a delete a live one. A
// write that finds otherwise is refused, unless mayContain (see applyGroup)
// says the state may already hold the write's effect: then an insert onto a
// live row is an upsert, and an update or a delete of a missing row has
// nothing to do (apply false, no error). For the redo this is the check that
// the log and the state it is applied onto agree; a transaction only writes
// rows it found under their X locks, into slots it reserved.
func rowRule(op walOp, live, mayContain bool) (apply bool, err error) {
	switch {
	case mayContain:
	case op == walInsert && live:
		return false, errInsertLive
	case op == walUpdate && !live:
		return false, errUpdateMissing
	case op == walDelete && !live:
		return false, errDeleteMissing
	}
	return live || op == walInsert, nil
}

// refused names the row a rowRule refusal is about.
func (t *table) refused(err error, rid int64) error {
	return fmt.Errorf("%w %d of %s", err, rid, t.schema.Name)
}

// find reads what a write of op finds at rid — txn's own version, else the
// newest committed one, else the base (the redo's txn is 0, the id its
// versions carry) — and holds it to rowRule. It returns rid's slot (no
// chain head past the heap's end) and its live row (noRow when there is
// none); apply false with no error is a write with nothing to do. Caller
// holds the latch.
func (t *table) find(op walOp, rid int64, txn uint64, mayContain bool) (s rowSlot, old rowImage, apply bool, err error) {
	var cur *rowVersion
	var base pageLoc
	if s = t.rows.get(rid); s.chainHead != nil {
		cur, base = s.currentVersion(txn)
	}
	live := holdsRow(cur, base)
	if apply, err = rowRule(op, live, mayContain); !apply {
		if err != nil {
			err = t.refused(err, rid)
		}
		return s, noRow, false, err
	}
	if live {
		if old = t.resolve(cur, base); old == noRow {
			return s, noRow, false, fmt.Errorf("row %d of %s is unreadable", rid, t.schema.Name)
		}
	}
	return s, old, true, nil
}

// keysMove reports whether writing row over old moves its entry under
// some index.
func (t *table) keysMove(old, row rowImage) bool {
	for _, ix := range t.indexes {
		if !ix.sameKey(old, row) {
			return true
		}
	}
	return false
}

// push puts v on top of s's chain and clips what the watermark shadows.
func (t *table) push(s rowSlot, v *rowVersion, watermark uint64) *rowVersion {
	v.prev.Store(s.head.Load())
	s.head.Store(v)
	t.prune(s, watermark)
	return v
}

// write puts row at rid as a new unstamped version, for the caller to stamp
// at commit: a transaction's insert or update (txn its id; an insert's slot
// comes from allocSlot) or the redo's (txn 0). insert says the row is new,
// and find holds the write to rowRule. write returns the row it replaced
// (noRow when there was none), the version (nil when there is nothing to
// do) and the entries it orphans — the replaced row's, under every index
// whose key moved — for commit-ordered GC, since older snapshots still
// need them. A transaction's unique checks run here, under the same
// exclusive latch as the entry inserts; the redo's writer already passed
// them.
//
// On the CAS hot paths (heartbeats and job state transitions flip non-key
// columns) no entry moves, so the whole update is one version push under
// the shared latch: the writer holds the row's X lock, or is the redo, so
// nothing else touches the slot, and the shared latch only has to exclude
// structural changes (slice growth, index entries and builds), which take
// it exclusively. Concurrent disjoint-row writers never serialize on the
// table.
func (t *table) write(rid int64, row rowImage, insert bool, txn, watermark uint64, mayContain bool) (rowImage, *rowVersion, []gcEntry, error) {
	op := walInsert
	if !insert {
		op = walUpdate
		t.latch.RLock()
		s, old, apply, err := t.find(op, rid, txn, mayContain)
		if apply && !t.keysMove(old, row) {
			t.raiseAuto(&t.autoIssued, row)
			v := t.push(s, &rowVersion{data: row, txn: txn}, watermark)
			t.latch.RUnlock()
			return old, v, nil, nil
		}
		t.latch.RUnlock()
		if !apply {
			return noRow, nil, nil, err
		}
	}

	// Entries go in, so take the latch exclusively (and look again after an
	// update's first look: an index could have come or gone in between).
	t.latch.Lock()
	defer t.latch.Unlock()
	s, old, apply, err := t.find(op, rid, txn, mayContain)
	if !apply {
		return noRow, nil, nil, err
	}
	var orphaned []gcEntry
	for _, ix := range t.indexes {
		if old != noRow && ix.sameKey(old, row) {
			continue
		}
		if txn != 0 {
			if err := t.checkUnique(ix, row, rid); err != nil {
				return noRow, nil, nil, err
			}
		}
		if old != noRow {
			orphaned = append(orphaned, gcEntry{index: ix.num, key: ix.entryKey(old, rid)})
		}
	}
	var buf keyBuf
	for _, ix := range t.indexes {
		if old == noRow || !ix.sameKey(old, row) {
			ix.tree.insert(view(ix.appendEntry(buf[:0], row, rid))) // idempotent when re-claiming a pending-GC entry
		}
	}
	if s.chainHead == nil {
		t.rows.grow(rid + 1)
		s = t.rows.at(rid)
	}
	if old == noRow {
		t.liveRows.Add(1)
	}
	t.raiseAuto(&t.autoIssued, row)
	return old, t.push(s, &rowVersion{data: row, txn: txn}, watermark), orphaned, nil
}

// remove pushes a delete tombstone onto rid's chain — a transaction's (txn
// its id) or the redo's (txn 0) — held to rowRule like write. It returns the
// tombstone (nil when there is nothing to delete) and the row's entry under
// every index, for GC once no snapshot can see the row: the entries and the
// slot stay until then, and a rollback simply pops the tombstone.
func (t *table) remove(rid int64, txn, watermark uint64, mayContain bool) (*rowVersion, []gcEntry, error) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	s, old, apply, err := t.find(walDelete, rid, txn, mayContain)
	if !apply {
		return nil, nil, err
	}
	entries := make([]gcEntry, 0, len(t.indexes))
	for _, ix := range t.indexes {
		entries = append(entries, gcEntry{index: ix.num, key: ix.entryKey(old, rid)})
	}
	t.liveRows.Add(-1)
	return t.push(s, &rowVersion{txn: txn, loc: locTomb}, watermark), entries, nil
}

// slot fetches a heap slot under the shared latch (the chunk list may be
// growing concurrently under another transaction's insert). The slot
// itself never moves, so it stays valid past the latch.
func (t *table) slot(rid int64) rowSlot {
	t.latch.RLock()
	defer t.latch.RUnlock()
	return t.rows.get(rid)
}

// currentRow is the 2PL read of a row: the transaction's own uncommitted
// version if any, else the newest committed one, else the base; noRow when
// absent.
func (t *table) currentRow(rid int64, txn uint64) rowImage {
	s := t.slot(rid)
	if s.chainHead == nil {
		return noRow
	}
	return t.resolve(s.currentVersion(txn))
}

// isLive reports whether rid holds a row, committed or in redo: the slot
// test of the strict redo's rules.
func (t *table) isLive(rid int64) bool {
	s := t.slot(rid)
	return s.chainHead != nil && holdsRow(s.currentVersion(0))
}

// visibleRow is the snapshot read of a row as of commit timestamp ts.
func (t *table) visibleRow(rid int64, ts uint64) rowImage {
	s := t.slot(rid)
	if s.chainHead == nil {
		return noRow
	}
	return t.resolve(s.visibleVersion(ts))
}

// entryMatches reports whether k is row's own entry under ix — the guard
// that keeps a row from surfacing through a stale index entry left behind
// by a superseded version (each row is emitted exactly once, at its own
// key's position in the scan).
func (ix *index) entryMatches(k string, row rowImage, rid int64) bool {
	var buf keyBuf
	return k == string(ix.appendEntry(buf[:0], row, rid))
}

// history calls visit with every row s holds, newest first: each
// version's (noRow for a tombstone), then the base's. It stops when visit
// returns false.
func (t *table) history(s rowSlot, visit func(row rowImage) bool) {
	for v := s.head.Load(); v != nil; v = v.prev.Load() {
		if !visit(t.resolve(v, 0)) {
			return
		}
	}
	if base := s.loadBase(); base != 0 {
		visit(t.resolve(nil, base))
	}
}

// removeEntryIfUnclaimed deletes index entry k for rid unless some
// surviving version in rid's chain (committed or uncommitted), or its base,
// still carries that exact key — which happens when a key changed away and
// back again before the orphaned entry was reclaimed. Caller holds the
// exclusive latch.
func (t *table) removeEntryIfUnclaimed(ix *index, k string, rid int64) bool {
	claimed := false
	if s := t.rows.get(rid); s.chainHead != nil {
		t.history(s, func(row rowImage) bool {
			claimed = row != noRow && ix.entryMatches(k, row, rid)
			return !claimed
		})
	}
	return !claimed && ix.tree.delete(k)
}

// rollback undoes txn's write of op at rid — one record of its redo list —
// by popping its uncommitted version: the version it superseded is still
// linked below, so nothing is re-applied. What the write did beside the
// push is undone with it: the entries an insert or an update put in go
// (claim-checked — a same-transaction key dance may have re-claimed one),
// and the live-row count moves back, an insert that leaves neither a chain
// nor a base giving back its slot too. A head that is not txn's version of
// op is left alone.
func (t *table) rollback(op walOp, rid int64, txn uint64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	s := t.rows.at(rid)
	head := s.head.Load()
	if head == nil || head.begin.Load() != 0 || head.txn != txn || head.isTomb() != (op == walDelete) {
		return
	}
	s.head.Store(head.prev.Load())
	switch op {
	case walDelete:
		t.liveRows.Add(1)
		return // a delete put in no entries
	case walInsert:
		t.liveRows.Add(-1)
		if s.head.Load() == nil && s.loadBase() == 0 {
			t.free = append(t.free, rid)
		}
	}
	// An uncommitted version always carries its data in memory (versions
	// are paged out only at commit).
	var buf keyBuf
	for _, ix := range t.indexes {
		t.removeEntryIfUnclaimed(ix, view(ix.appendEntry(buf[:0], head.data, rid)), rid)
	}
}

// gcProcess applies one reclamation record: prune the chain against the
// watermark, drop orphaned index entries that no surviving version
// claims, and — for a delete whose tombstone has passed below the
// watermark — clear and recycle the slot. Returns counter deltas.
func (t *table) gcProcess(rec *gcRecord, watermark uint64) (entriesRemoved, slotsFreed uint64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	s := t.rows.get(rec.rid)
	if s.chainHead == nil {
		return 0, 0
	}
	if !rec.tombstone && len(rec.entries) == 0 {
		// A version committed above the watermark (DB.absorb): absorbing it
		// frees nothing, and nothing else is owed.
		if v := s.head.Load(); v != nil {
			s.absorbSole(v, watermark)
		}
		return 0, 0
	}
	t.prune(s, watermark)
	for _, e := range rec.entries {
		ix := t.indexNumbered(e.index)
		if ix == nil {
			continue
		}
		if t.removeEntryIfUnclaimed(ix, e.key, rec.rid) {
			entriesRemoved++
		}
	}
	if rec.tombstone {
		// The slot dies only when the tombstone is the whole chain, over no
		// base, and is itself below the watermark (re-check: a rollback or
		// unprocessed newer record may have changed the picture since
		// enqueue). begin is read first: the commit path may still be
		// writing an unstamped head's loc.
		if head := s.head.Load(); head != nil {
			if b := head.begin.Load(); b != 0 && b <= watermark && head.isTomb() && head.prev.Load() == nil && s.loadBase() == 0 {
				s.head.Store(nil)
				// The tombstone's own page record may only be erased once
				// the erasure of the data records it shadows is durable —
				// defer it past the next checkpoint (resurrection hazard).
				if head.loc.pid() != 0 && t.heap != nil {
					t.heap.store.queueTombErase(t.heap, head.loc)
				}
				t.free = append(t.free, rec.rid)
				slotsFreed++
			}
		}
	}
	return entriesRemoved, slotsFreed
}

// absorb makes v, the version a commit just stamped at rid, the slot's base
// when that frees nothing (rowSlot.absorbSole). It reports whether v, a
// paged row's version that is not a tombstone, is left its row's whole
// chain over no base because it was stamped above the watermark: for GC to
// absorb once the snapshots older than it are gone. The caller holds the
// row's X lock, or is the redo, so no other writer touches the slot; the
// shared latch keeps GC out.
func (t *table) absorb(rid int64, v *rowVersion, watermark uint64) (late bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	s := t.rows.at(rid)
	return !s.absorbSole(v, watermark) && s.sole(v)
}

// pagedPlace publishes a row recovered from the page scan as its slot's
// base: no version object, its bytes stay on the page (paged recovery only;
// single-threaded). The redo of the log tail then runs over it.
func (t *table) pagedPlace(rid int64, row rowImage, loc pageLoc) {
	t.latch.Lock()
	defer t.latch.Unlock()
	t.rows.grow(rid + 1)
	t.rows.at(rid).storeBase(loc)
	t.liveRows.Add(1)
	var buf keyBuf
	for _, ix := range t.indexes {
		ix.tree.insert(view(ix.appendEntry(buf[:0], row, rid)))
	}
}

// applyWrite redoes one logged insert or update as write with txn 0. The
// row image is the record's, or for an update the current row with the
// record's changed columns laid over it; a missing or unreadable row is for
// write to judge. A recycled slot still holding a tombstone chain gets the
// new version pushed on top, so an old snapshot keeps seeing its
// tombstoned past. Every logged write was committed, so its AUTOINCREMENT
// values raise autoHigh even where write has nothing to do: an update of a
// row a later delete removed from a page image still stored its values.
func (t *table) applyWrite(r *walRecord, watermark uint64, mayContain bool) (*rowVersion, []gcEntry, error) {
	width := r.img.width()
	if r.op == walUpdate {
		width = r.cols
	}
	if width != len(t.schema.Columns) {
		// The index code reads a row by column position, and a shipped
		// record is input from outside.
		return nil, nil, fmt.Errorf("redo: row %d of %s has %d values, the table has %d columns", r.rid, t.schema.Name, width, len(t.schema.Columns))
	}
	row := r.img
	if r.op == walUpdate {
		old := t.currentRow(r.rid, 0)
		if old == noRow {
			old = imageOf(make([]Value, width)) // its changed columns over NULLs
		}
		row = applyDelta(old, r)
	}
	t.raiseAuto(&t.autoHigh, row)
	_, v, orphaned, err := t.write(r.rid, row, r.op == walInsert, 0, watermark, mayContain)
	return v, orphaned, err
}

// applyDelta is the row an update record makes of old: old with each
// changed column's cell replaced, in column order, by the record's.
func applyDelta(old rowImage, r *walRecord) rowImage {
	n := (r.cols + 7) / 8
	return splice(old, r.delta[:n], r.delta[n:])
}

// rebuildAfterReplay ends a redo for one table: chains are flattened below
// the watermark and the free list — which the redo leaves alone — is
// rebuilt from the slots as they now stand. The autoincrement mark needs
// nothing: the redo raised it past every value the log holds.
func (t *table) rebuildAfterReplay(watermark uint64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	t.free = t.free[:0]
	for rid := range t.rows.n {
		s := t.rows.at(rid)
		t.prune(s, watermark)
		if head, base := s.newest(); head == nil && base == 0 {
			t.free = append(t.free, rid)
		}
	}
}

// issueAuto issues the next AUTOINCREMENT value: above every one a
// committed write stored and every one issued or written before.
func (t *table) issueAuto() int64 {
	for {
		i := t.autoIssued.Load()
		n := max(i, t.autoHigh.Load()) + 1
		if t.autoIssued.CompareAndSwap(i, n) {
			return n
		}
	}
}

// raiseAuto raises mark to the largest AUTOINCREMENT value row holds.
func (t *table) raiseAuto(mark *atomic.Int64, row rowImage) {
	for _, ci := range t.autoCols {
		if v := row.col(ci); !v.IsNull() {
			for n := v.Int64(); ; {
				if m := mark.Load(); m >= n || mark.CompareAndSwap(m, n) {
					break
				}
			}
		}
	}
}

// buildRow coerces values to column types and checks NOT NULL
// constraints, applying defaults and autoincrement, and lays the row out
// as the image the table keeps. vals holds column i's supplied value where
// has[i] is set; buildRow leaves the row's final values there.
func (t *table) buildRow(vals []Value, has []bool) (rowImage, error) {
	s := &t.schema
	for i := range s.Columns {
		c := &s.Columns[i]
		var v Value
		switch {
		case has[i]:
			v = vals[i]
		case c.HasDefault:
			v = c.Default
		}
		if !v.IsNull() {
			cv, err := coerce(v, c.Type)
			if err != nil {
				return noRow, fmt.Errorf("sqldb: column %s.%s: %v", s.Name, c.Name, err)
			}
			v = cv
		}
		// NOT NULL on an AUTOINCREMENT column is satisfied by the issue below.
		if v.IsNull() && c.NotNull && !c.AutoIncrement {
			return noRow, fmt.Errorf("sqldb: column %s.%s is NOT NULL", s.Name, c.Name)
		}
		vals[i] = v
	}
	// The AUTOINCREMENT columns left NULL share one newly issued value;
	// the write of the row raises the marks past explicit ones.
	var issued Value
	for _, ci := range t.autoCols {
		if vals[ci].IsNull() {
			if issued.IsNull() {
				issued = NewInt(t.issueAuto())
			}
			vals[ci] = issued
		}
	}
	return imageOf(vals[:len(s.Columns)]), nil
}
