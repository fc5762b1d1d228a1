package sqldb

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// table is the in-memory heap storage for one table plus its indexes.
// Row ids are slot positions in the rows slice; each slot holds a version
// chain (see version.go). Emptied slots are recycled through a free list
// once GC proves no snapshot can still see them, which keeps scan order
// deterministic (slot order) — important for reproducible simulations.
//
// Logical isolation is provided by the engine's two-phase locking
// protocol for writers and by snapshot visibility for read-only
// transactions. Because transactions holding only intention locks mutate
// disjoint rows of the same table concurrently — and snapshot readers
// take no lock-manager locks at all — the physical structures (the rows
// slice, free list, autoincrement counter, and index trees) are
// additionally protected by a short-held latch. Slot heads, version
// stamps, and chain links are atomic, so the hot paths (version push on
// update/delete, chain walks on read) need only the shared latch; the
// exclusive latch guards structural changes: slice growth, index-entry
// mutation, and index builds. The latch is never held while blocking on a
// lock-manager lock (that would deadlock invisibly to the waits-for
// graph).
type table struct {
	schema   TableSchema
	latch    sync.RWMutex
	rows     []*rowSlot
	free     []int64
	liveRows atomic.Int64
	nextAuto int64
	indexes  []*index

	// Paged storage: committed versions' row bytes live in heap page
	// records and versions carry only a pageLoc. heap is nil in the default
	// in-memory mode. tableID is the table's permanent, never-reused
	// page-ownership ID.
	heap    *pagedHeap
	tableID uint32

	// Planner statistics (see stats.go). statRows is the live row count at
	// the last ANALYZE; distinct-key estimates scale by the ratio of the
	// current count to it, so estimates drift with the data between
	// refreshes instead of going stale.
	analyzed atomic.Bool
	statRows atomic.Int64

	// Plan-cache invalidation epochs (see plancache.go). schemaEpoch
	// advances whenever the set of physical access paths changes (CREATE
	// INDEX, DROP INDEX, and DROP TABLE of this table — every path funnels
	// through addIndexLocked/dropIndex/applyDDL, so replication apply and
	// WAL recovery bump it too). statsEpoch advances on ANALYZE and when a
	// plan-validity check detects cardinality drift past the replan
	// threshold. A cached plan records both at build time and is discarded
	// when either moves.
	schemaEpoch atomic.Uint64
	statsEpoch  atomic.Uint64
}

// index is one secondary (or primary) index over a table.
type index struct {
	schema IndexSchema
	cols   []int // column positions in key order
	tree   *ordIndex
	// keyLock names the lock-manager resource family guarding this index's
	// unique key values (see keyLockTarget); fixed when the index is built.
	keyLock string
	// stats is the last ANALYZE result for this index (nil before the
	// first run); swapped atomically so planners read it lock-free.
	stats atomic.Pointer[indexStats]
}

func newTable(schema TableSchema) *table {
	t := &table{schema: schema, nextAuto: 1}
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

// resolve materializes a version's row: nil for "no row" (no version, or
// a delete tombstone), the in-memory data when present (default mode, and
// uncommitted versions in paged mode), else the page record named by
// v.loc. A paged read failure also yields nil — and records a sticky
// error on the store (readRow does both).
func (t *table) resolve(v *rowVersion) []Value {
	if v == nil || v.isTomb() {
		return nil
	}
	if v.data != nil {
		return v.data
	}
	if t.heap != nil {
		return t.heap.readRow(v.loc)
	}
	return nil
}

// prune clips s's chain below the watermark (rowSlot.pruneBelow) and
// erases the page records of the versions it unlinked — a chain rarely
// sheds more than one at a time, so their locations stay on the stack.
// Safe to call with the table latch held: the pool layer never acquires
// table latches, so no lock cycle — just potential page I/O under the
// latch, which only GC and chain pruning pay.
func (t *table) prune(s *rowSlot, watermark uint64) (pruned uint64) {
	var buf [2]pageLoc
	pruned, freed := s.pruneBelow(watermark, buf[:0])
	if t.heap != nil {
		t.heap.eraseAll(freed)
	}
	return pruned
}

func colNames(s TableSchema, idxs []int) []string {
	names := make([]string, len(idxs))
	for i, c := range idxs {
		names[i] = s.Columns[c].Name
	}
	return names
}

// addIndexLocked builds an index over every version of every row, so a
// snapshot of any age finds through it what a seq scan would. No writer of
// the table is in flight (CREATE INDEX holds the table's S lock; redo and
// table creation have none), so every version is committed. The keys only
// history holds — a shadowed version's the live row does not share, and
// every version's of a chain headed by a tombstone — are returned as GC
// records for the caller to queue, exactly like an update's orphans.
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
	ix := &index{schema: is, cols: cols, tree: newOrdIndex(),
		keyLock: "\x00key:" + t.schema.Name + ":" + is.Name}
	var history []gcRecord
	for i, slot := range t.rows {
		rid := int64(i)
		head := slot.head.Load()
		live := t.resolve(head)
		if live != nil {
			if err := t.checkUnique(ix, live, rid); err != nil {
				return nil, err
			}
		}
		var orphans []gcEntry
		for v := head; v != nil; v = v.prev.Load() {
			row := t.resolve(v)
			if row == nil {
				continue
			}
			k := ix.entryKey(row, rid)
			if v != head && (live == nil || !ix.sameKey(live, row)) {
				orphans = append(orphans, gcEntry{index: is.Name, key: k})
			}
			ix.tree.insert(k, rid)
		}
		if len(orphans) > 0 {
			history = append(history, gcRecord{table: t.schema.Name, rid: rid, entries: orphans})
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

// entryKey builds the physical index key for a row: the indexed columns
// followed by the rowid tiebreaker. Every index — unique ones included —
// carries the tiebreaker, because under multi-versioning two rids may
// legitimately hold entries for the same logical key at once (a
// committed-deleted row awaiting GC and its replacement). Uniqueness is
// enforced against live versions by checkUnique, not by key collision.
func (ix *index) entryKey(row []Value, rid int64) Key {
	k := make(Key, 0, len(ix.cols)+1)
	for _, c := range ix.cols {
		k = append(k, row[c])
	}
	return append(k, NewInt(rid))
}

// enforces reports whether the unique constraint applies to row's key
// under ix: SQL allows multiple NULLs under a unique constraint, so a
// NULL-bearing key enforces nothing.
func (ix *index) enforces(row []Value) bool {
	if !ix.schema.Unique {
		return false
	}
	for _, c := range ix.cols {
		if row[c].IsNull() {
			return false
		}
	}
	return true
}

// sameKey reports whether two versions of one row occupy the same entry
// under ix, comparing the indexed columns in place (the rid tiebreaker is
// the row's own, so it cannot differ).
func (ix *index) sameKey(a, b []Value) bool {
	for _, c := range ix.cols {
		if compareKeyPart(a[c], b[c]) != 0 {
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

// hashValue folds v's storage encoding (writeValue's bytes: type tag,
// then uvarint / 8 IEEE bytes / length-prefixed text) into h without
// materializing it.
func hashValue(h uint64, v Value) uint64 {
	h = (h ^ uint64(v.typ)) * fnvPrime
	switch v.typ {
	case Int, Bool, Time:
		h = hashUvarint(h, uint64(v.i))
	case Float:
		for u, i := uint64(v.i), 0; i < 8; i++ {
			h = (h ^ (u & 0xff)) * fnvPrime
			u >>= 8
		}
	case Text:
		h = hashUvarint(h, uint64(len(v.s)))
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * fnvPrime
		}
	}
	return h
}

// hashUvarint folds u's uvarint encoding into h.
func hashUvarint(h, u uint64) uint64 {
	for ; u >= 0x80; u >>= 7 {
		h = (h ^ (u&0x7f | 0x80)) * fnvPrime
	}
	return (h ^ u) * fnvPrime
}

// keyLockTarget names the lock-manager resource guarding one unique key
// value of ix. Index entries outlive their versions under MVCC, so the
// entry itself cannot serialize writers of the same key; these logical
// key locks do. The key is hashed — collisions only over-block (a
// spurious wait or deadlock retry), never under-block. The shift keeps
// the rid non-negative, so it can never collide with the tableRID
// sentinel.
func (ix *index) keyLockTarget(k Key) lockTarget {
	h := fnvOffset
	for _, v := range k {
		h = hashValue(h, v)
	}
	return lockTarget{table: ix.keyLock, rid: int64(h >> 1)}
}

// rowKeyLockTarget is keyLockTarget for the key row occupies under ix,
// hashed straight from the row's indexed columns.
func (ix *index) rowKeyLockTarget(row []Value) lockTarget {
	h := fnvOffset
	for _, c := range ix.cols {
		h = hashValue(h, row[c])
	}
	return lockTarget{table: ix.keyLock, rid: int64(h >> 1)}
}

// uniqueKeyTargets appends to dst the key-lock resources for every
// enforced unique key value the row occupies.
func (t *table) uniqueKeyTargets(dst []lockTarget, row []Value) []lockTarget {
	t.latch.RLock()
	defer t.latch.RUnlock()
	for _, ix := range t.indexes {
		if ix.enforces(row) {
			dst = append(dst, ix.rowKeyLockTarget(row))
		}
	}
	return dst
}

// changedUniqueKeyTargets appends to dst the key-lock resources entering
// or leaving occupancy when old is replaced by newRow.
func (t *table) changedUniqueKeyTargets(dst []lockTarget, old, newRow []Value) []lockTarget {
	t.latch.RLock()
	defer t.latch.RUnlock()
	for _, ix := range t.indexes {
		if !ix.schema.Unique {
			continue
		}
		eo, en := ix.enforces(old), ix.enforces(newRow)
		if eo && en && ix.sameKey(old, newRow) {
			continue
		}
		if eo {
			dst = append(dst, ix.rowKeyLockTarget(old))
		}
		if en {
			dst = append(dst, ix.rowKeyLockTarget(newRow))
		}
	}
	return dst
}

// UniqueViolationError reports a duplicate key under a unique index.
type UniqueViolationError struct {
	Index string
	Key   Key
}

func (e *UniqueViolationError) Error() string {
	return fmt.Sprintf("sqldb: unique constraint violated on index %s", e.Index)
}

// checkUnique reports a violation when another rid's newest version
// claims row's logical key under ix. The caller holds the latch and —
// on the write path — the key's X lock, which excludes uncommitted
// versions of this key by other transactions; an uncommitted claimant is
// therefore this transaction's own earlier insert, a genuine duplicate.
func (t *table) checkUnique(ix *index, row []Value, rid int64) error {
	if !ix.enforces(row) {
		return nil
	}
	// The probe key lives on the stack for the usual one- or two-column
	// constraint; only a reported violation copies it out.
	var buf [4]Value
	lk := Key(buf[:0])
	for _, c := range ix.cols {
		lk = append(lk, row[c])
	}
	var conflict bool
	ix.tree.scanPrefix(lk, func(k Key, rid2 int64) bool {
		if rid2 == rid || len(k) != len(lk)+1 {
			return true
		}
		headRow := t.resolve(t.rows[rid2].head.Load())
		if headRow == nil {
			return true // reclaimed slot or tombstoned row: key is free
		}
		if ix.enforces(headRow) && ix.sameKey(headRow, row) {
			conflict = true
			return false
		}
		return true // newest version moved to a different key
	})
	if conflict {
		return &UniqueViolationError{Index: ix.schema.Name, Key: append(Key(nil), lk...)}
	}
	return nil
}

// allocSlot reserves a heap slot (recycled or fresh) without publishing a
// version into it, so the caller can X-lock the rid before it becomes
// visible to concurrent index scans. Balance with insertAt or releaseSlot.
func (t *table) allocSlot() int64 {
	t.latch.Lock()
	defer t.latch.Unlock()
	if n := len(t.free); n > 0 {
		rid := t.free[n-1]
		t.free = t.free[:n-1]
		return rid
	}
	t.rows = append(t.rows, &rowSlot{})
	return int64(len(t.rows) - 1)
}

// releaseSlot returns an allocated-but-unpublished slot to the free list.
func (t *table) releaseSlot(rid int64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	t.free = append(t.free, rid)
}

// insertAt publishes a fresh row version into a slot reserved by
// allocSlot, maintaining all indexes. The row must already be validated
// and coerced to the schema. The returned version is stamped by the
// transaction at commit.
func (t *table) insertAt(rid int64, row []Value, txn uint64) (*rowVersion, error) {
	t.latch.Lock()
	defer t.latch.Unlock()
	for _, ix := range t.indexes {
		if err := t.checkUnique(ix, row, rid); err != nil {
			return nil, err
		}
	}
	v := &rowVersion{data: row, txn: txn}
	for _, ix := range t.indexes {
		ix.tree.insert(ix.entryKey(row, rid), rid)
	}
	t.rows[rid].head.Store(v)
	t.liveRows.Add(1)
	return v, nil
}

// slot fetches a heap slot under the shared latch (the slice header may
// be growing concurrently under another transaction's insert).
func (t *table) slot(rid int64) *rowSlot {
	t.latch.RLock()
	defer t.latch.RUnlock()
	if rid < 0 || rid >= int64(len(t.rows)) {
		return nil
	}
	return t.rows[rid]
}

// currentRow is the 2PL read of a row: the transaction's own uncommitted
// version if any, else the newest committed one; nil when absent.
func (t *table) currentRow(rid int64, txn uint64) []Value {
	s := t.slot(rid)
	if s == nil {
		return nil
	}
	return t.resolve(s.currentVersion(txn))
}

// isLive reports whether rid holds a row, committed or in redo: the slot
// test of the strict redo's rules.
func (t *table) isLive(rid int64) bool {
	s := t.slot(rid)
	if s == nil {
		return false
	}
	v := s.currentVersion(0)
	return v != nil && !v.isTomb()
}

// visibleRow is the snapshot read of a row as of commit timestamp ts.
func (t *table) visibleRow(rid int64, ts uint64) []Value {
	s := t.slot(rid)
	if s == nil {
		return nil
	}
	return t.resolve(s.visibleVersion(ts))
}

// entryMatches reports whether k is row's own entry under ix — the guard
// that keeps a row from surfacing through a stale index entry left behind
// by a superseded version (each row is emitted exactly once, at its own
// key's position in the scan).
func (ix *index) entryMatches(k Key, row []Value, rid int64) bool {
	n := len(ix.cols)
	if len(k) != n+1 {
		return false
	}
	for i, c := range ix.cols {
		if compareKeyPart(row[c], k[i]) != 0 {
			return false
		}
	}
	return compareKeyPart(NewInt(rid), k[n]) == 0
}

// deleteRow pushes a delete tombstone onto rid's chain and returns the
// old row plus the tombstone (stamped at commit) and the index entries
// the delete orphans (queued for GC at commit). Index entries and the
// slot itself are untouched: older snapshots still need them, and a
// rollback simply pops the tombstone.
func (t *table) deleteRow(rid int64, txn uint64, watermark uint64) ([]Value, *rowVersion, []gcEntry, error) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	if rid < 0 || rid >= int64(len(t.rows)) {
		return nil, nil, nil, fmt.Errorf("sqldb: delete: no row %d in %s", rid, t.schema.Name)
	}
	s := t.rows[rid]
	cur := s.currentVersion(txn)
	if cur == nil || cur.isTomb() {
		return nil, nil, nil, fmt.Errorf("sqldb: delete: no row %d in %s", rid, t.schema.Name)
	}
	old := t.resolve(cur)
	if old == nil {
		return nil, nil, nil, fmt.Errorf("sqldb: delete: row %d of %s is unreadable", rid, t.schema.Name)
	}
	entries := make([]gcEntry, 0, len(t.indexes))
	for _, ix := range t.indexes {
		entries = append(entries, gcEntry{index: ix.schema.Name, key: ix.entryKey(old, rid)})
	}
	tomb := &rowVersion{txn: txn, flags: verTomb}
	tomb.prev.Store(s.head.Load())
	s.head.Store(tomb)
	t.prune(s, watermark)
	t.liveRows.Add(-1)
	return old, tomb, entries, nil
}

// updateRow pushes a new version of rid, maintaining indexes, and returns
// the old row, the new version (stamped at commit), and the index entries
// the update orphans (nil when no index key moved). On the CAS hot paths
// (heartbeats and job state transitions flip non-key columns) no entry
// moves, so the whole mutation is one version push under the shared
// latch — concurrent disjoint-row writers never serialize on the table.
func (t *table) updateRow(rid int64, newRow []Value, txn uint64, watermark uint64) ([]Value, *rowVersion, []gcEntry, error) {
	// Fast path under the shared latch: when no index key changes, the
	// mutation is one chain push. The caller holds the row's X lock, so no
	// other transaction touches this slot; the shared latch only needs to
	// exclude structural changes (slice growth, index builds), which take
	// the latch exclusively.
	t.latch.RLock()
	if rid < 0 || rid >= int64(len(t.rows)) {
		t.latch.RUnlock()
		return nil, nil, nil, fmt.Errorf("sqldb: update: no row %d in %s", rid, t.schema.Name)
	}
	s := t.rows[rid]
	cur := s.currentVersion(txn)
	if cur == nil || cur.isTomb() {
		t.latch.RUnlock()
		return nil, nil, nil, fmt.Errorf("sqldb: update: no row %d in %s", rid, t.schema.Name)
	}
	old := t.resolve(cur)
	if old == nil {
		t.latch.RUnlock()
		return nil, nil, nil, fmt.Errorf("sqldb: update: row %d of %s is unreadable", rid, t.schema.Name)
	}
	keysChanged := false
	for _, ix := range t.indexes {
		if !ix.sameKey(old, newRow) {
			keysChanged = true
			break
		}
	}
	if !keysChanged {
		v := &rowVersion{data: newRow, txn: txn}
		v.prev.Store(s.head.Load())
		s.head.Store(v)
		t.prune(s, watermark)
		t.latch.RUnlock()
		return old, v, nil, nil
	}
	t.latch.RUnlock()

	// Slow path: index keys move, so take the latch exclusively and
	// recompute (an index could have been added in the window between the
	// two latch acquisitions).
	t.latch.Lock()
	defer t.latch.Unlock()
	s = t.rows[rid]
	cur = s.currentVersion(txn)
	if cur == nil || cur.isTomb() {
		return nil, nil, nil, fmt.Errorf("sqldb: update: no row %d in %s", rid, t.schema.Name)
	}
	old = t.resolve(cur)
	if old == nil {
		return nil, nil, nil, fmt.Errorf("sqldb: update: row %d of %s is unreadable", rid, t.schema.Name)
	}
	var orphaned []gcEntry
	for _, ix := range t.indexes {
		if ix.sameKey(old, newRow) {
			continue
		}
		if err := t.checkUnique(ix, newRow, rid); err != nil {
			return nil, nil, nil, err
		}
		orphaned = append(orphaned, gcEntry{index: ix.schema.Name, key: ix.entryKey(old, rid)})
	}
	for _, ix := range t.indexes {
		if !ix.sameKey(old, newRow) {
			ix.tree.insert(ix.entryKey(newRow, rid), rid) // idempotent when re-claiming a pending-GC entry
		}
	}
	v := &rowVersion{data: newRow, txn: txn}
	v.prev.Store(s.head.Load())
	s.head.Store(v)
	t.prune(s, watermark)
	return old, v, orphaned, nil
}

// removeEntryIfUnclaimed deletes index entry k for rid unless some
// surviving version in rid's chain (committed or uncommitted) still
// carries that exact key — which happens when a key changed away and back
// again before the orphaned entry was reclaimed. Caller holds the
// exclusive latch.
func (t *table) removeEntryIfUnclaimed(ix *index, k Key, rid int64) bool {
	if rid >= 0 && rid < int64(len(t.rows)) {
		for v := t.rows[rid].head.Load(); v != nil; v = v.prev.Load() {
			if row := t.resolve(v); row != nil && ix.entryMatches(k, row, rid) {
				return false
			}
		}
	}
	return ix.tree.delete(k)
}

// rollbackInsert undoes an uncommitted insert: pop the version, drop its
// index entries (claim-checked — a same-transaction key dance may have
// re-claimed one), and recycle the slot if the chain emptied.
func (t *table) rollbackInsert(rid int64, txn uint64) error {
	t.latch.Lock()
	defer t.latch.Unlock()
	return t.rollbackPopLocked(rid, txn, true)
}

// rollbackUpdate undoes an uncommitted update the same way (the row stays
// live and the slot cannot empty: the updated version sat on top of an
// older one).
func (t *table) rollbackUpdate(rid int64, txn uint64) error {
	t.latch.Lock()
	defer t.latch.Unlock()
	return t.rollbackPopLocked(rid, txn, false)
}

// rollbackDelete pops an uncommitted tombstone (no index entries to fix:
// deletes do not touch the trees).
func (t *table) rollbackDelete(rid int64, txn uint64) error {
	t.latch.Lock()
	defer t.latch.Unlock()
	s := t.rows[rid]
	head := s.head.Load()
	if head == nil || head.begin.Load() != 0 || head.txn != txn || !head.isTomb() {
		return fmt.Errorf("sqldb: rollback: slot %d of %s holds no uncommitted tombstone", rid, t.schema.Name)
	}
	s.head.Store(head.prev.Load())
	t.liveRows.Add(1)
	return nil
}

// rollbackPopLocked pops txn's uncommitted head and removes the entries it
// published. An undone insert also gives back the row it had counted as
// live and, when the chain emptied, its slot. Caller holds the exclusive
// latch.
func (t *table) rollbackPopLocked(rid int64, txn uint64, insert bool) error {
	s := t.rows[rid]
	head := s.head.Load()
	// An uncommitted non-tombstone version always carries data in memory
	// (versions are paged out only at commit), so head.data is safe below.
	if head == nil || head.begin.Load() != 0 || head.txn != txn || head.isTomb() {
		return fmt.Errorf("sqldb: rollback: slot %d of %s has no uncommitted version of txn %d", rid, t.schema.Name, txn)
	}
	s.head.Store(head.prev.Load())
	for _, ix := range t.indexes {
		t.removeEntryIfUnclaimed(ix, ix.entryKey(head.data, rid), rid)
	}
	if insert {
		t.liveRows.Add(-1)
		if s.head.Load() == nil {
			t.free = append(t.free, rid)
		}
	}
	return nil
}

// gcProcess applies one reclamation record: prune the chain against the
// watermark, drop orphaned index entries that no surviving version
// claims, and — for a delete whose tombstone has passed below the
// watermark — clear and recycle the slot. Returns counter deltas.
func (t *table) gcProcess(rec *gcRecord, watermark uint64) (pruned, entriesRemoved, slotsFreed uint64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	if rec.rid < 0 || rec.rid >= int64(len(t.rows)) {
		return 0, 0, 0
	}
	s := t.rows[rec.rid]
	pruned = t.prune(s, watermark)
	for _, e := range rec.entries {
		ix := t.findIndex(e.index)
		if ix == nil {
			continue
		}
		if t.removeEntryIfUnclaimed(ix, e.key, rec.rid) {
			entriesRemoved++
		}
	}
	if rec.tombstone {
		// The slot dies only when the tombstone is the whole chain and is
		// itself below the watermark (re-check: a rollback or unprocessed
		// newer record may have changed the picture since enqueue).
		head := s.head.Load()
		if head != nil && head.isTomb() && head.prev.Load() == nil {
			if b := head.begin.Load(); b != 0 && b <= watermark {
				s.head.Store(nil)
				// The tombstone's own page record may only be erased once
				// the erasure of the data records it shadows is durable —
				// defer it past the next checkpoint (resurrection hazard).
				if head.loc.pid != 0 && t.heap != nil {
					t.heap.store.queueTombErase(t.heap, head.loc)
				}
				t.free = append(t.free, rec.rid)
				slotsFreed++
			}
		}
	}
	return pruned, entriesRemoved, slotsFreed
}

// pagedPlace publishes a base row recovered from the page scan: a single
// committed version whose bytes stay on the page (paged recovery only;
// single-threaded). Base rows are stamped with ts so the commit clock can
// start just above them. The redo of the log tail then runs over them.
func (t *table) pagedPlace(rid int64, row []Value, loc pageLoc, ts uint64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	for int64(len(t.rows)) <= rid {
		t.rows = append(t.rows, &rowSlot{})
	}
	v := &rowVersion{loc: loc}
	v.begin.Store(ts)
	t.rows[rid].head.Store(v)
	t.liveRows.Add(1)
	for _, ix := range t.indexes {
		ix.tree.insert(ix.entryKey(row, rid), rid)
	}
}

// applyWrite redoes one logged insert or update: the row image — an
// update's is the current row with the record's changed columns laid over
// it — becomes an unstamped version on top of rid's chain, which the caller
// stamps under the commit mutex with the rest of its group. It is MVCC-safe
// against concurrent snapshot readers — a recycled slot still holding a
// tombstone chain gets the new version pushed on top, so an old snapshot
// keeps seeing its tombstoned past — and moved index entries (old row
// against the new image) are returned for commit-ordered GC rather than
// deleted. Unique checks are skipped: the transaction that logged the
// record already passed them.
//
// An insert must find no live row and an update must find one, unless
// mayContain (see applyGroup): then an insert onto a live row is an
// upsert, and an update of a missing row is nothing to do — a nil version
// says so.
func (t *table) applyWrite(r *walRecord, watermark uint64, mayContain bool) (*rowVersion, []gcEntry, error) {
	width := len(r.row)
	if r.op == walUpdate {
		width = r.cols
	}
	if width != len(t.schema.Columns) {
		// The index code reads a row by column position, and a shipped
		// record is input from outside.
		return nil, nil, fmt.Errorf("redo: row %d of %s has %d values, the table has %d columns", r.rid, t.schema.Name, width, len(t.schema.Columns))
	}
	t.latch.Lock()
	defer t.latch.Unlock()
	var cur *rowVersion
	if r.rid < int64(len(t.rows)) {
		cur = t.rows[r.rid].currentVersion(0)
	}
	live := cur != nil && !cur.isTomb()
	if live && r.op == walInsert && !mayContain {
		return nil, nil, fmt.Errorf("redo: insert into live slot %d of %s", r.rid, t.schema.Name)
	}
	if !live && r.op == walUpdate {
		if mayContain {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("redo: update of missing row %d in %s", r.rid, t.schema.Name)
	}
	row := r.row
	var orphaned []gcEntry
	if live {
		old := t.resolve(cur)
		if old == nil {
			return nil, nil, fmt.Errorf("redo: update of unreadable row %d in %s", r.rid, t.schema.Name)
		}
		if r.op == walUpdate {
			row = applyDelta(old, r)
		}
		for _, ix := range t.indexes {
			if ix.sameKey(old, row) {
				continue
			}
			orphaned = append(orphaned, gcEntry{index: ix.schema.Name, key: ix.entryKey(old, r.rid)})
			ix.tree.insert(ix.entryKey(row, r.rid), r.rid)
		}
	} else {
		for int64(len(t.rows)) <= r.rid {
			t.rows = append(t.rows, &rowSlot{})
		}
		for _, ix := range t.indexes {
			ix.tree.insert(ix.entryKey(row, r.rid), r.rid)
		}
		t.liveRows.Add(1)
	}
	s := t.rows[r.rid]
	v := &rowVersion{data: row}
	v.prev.Store(s.head.Load())
	s.head.Store(v)
	t.prune(s, watermark)
	return v, orphaned, nil
}

// applyDelta is the row an update record makes of old: a copy of old with
// each changed column's value replaced, in column order, by the record's.
func applyDelta(old []Value, r *walRecord) []Value {
	row := append([]Value(nil), old...)
	k := 0
	for i := range row {
		if r.changed[i/8]&(1<<(i%8)) != 0 {
			row[i] = r.row[k]
			k++
		}
	}
	return row
}

// applyDelete redoes one logged delete as an unstamped tombstone, returned
// with the orphaned index entries for GC. Under mayContain a row that is
// not there was already deleted in the state applied onto: nothing to do,
// and a nil version says so.
func (t *table) applyDelete(rid int64, watermark uint64, mayContain bool) (*rowVersion, []gcEntry, error) {
	t.latch.Lock()
	defer t.latch.Unlock()
	var cur *rowVersion
	if rid < int64(len(t.rows)) {
		cur = t.rows[rid].currentVersion(0)
	}
	if cur == nil || cur.isTomb() {
		if mayContain {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("redo: delete of missing row %d in %s", rid, t.schema.Name)
	}
	old := t.resolve(cur)
	if old == nil {
		return nil, nil, fmt.Errorf("redo: delete of unreadable row %d in %s", rid, t.schema.Name)
	}
	entries := make([]gcEntry, 0, len(t.indexes))
	for _, ix := range t.indexes {
		entries = append(entries, gcEntry{index: ix.schema.Name, key: ix.entryKey(old, rid)})
	}
	s := t.rows[rid]
	tomb := &rowVersion{flags: verTomb}
	tomb.prev.Store(s.head.Load())
	s.head.Store(tomb)
	t.prune(s, watermark)
	t.liveRows.Add(-1)
	return tomb, entries, nil
}

// rebuildAfterReplay ends a redo for one table: chains are flattened below
// the watermark, and the free list and autoincrement counters — which the
// redo leaves alone — are reconstructed from the heap as it now stands.
func (t *table) rebuildAfterReplay(watermark uint64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	var auto []int
	for ci := range t.schema.Columns {
		if t.schema.Columns[ci].AutoIncrement {
			auto = append(auto, ci)
		}
	}
	t.free = t.free[:0]
	for rid, s := range t.rows {
		t.prune(s, watermark)
		head := s.head.Load()
		if head == nil {
			t.free = append(t.free, int64(rid))
			continue
		}
		if len(auto) == 0 {
			continue // no counter to rebuild: leave paged rows on their pages
		}
		if row := t.resolve(head); row != nil {
			for _, ci := range auto {
				if !row[ci].IsNull() && row[ci].Int64() >= t.nextAuto {
					t.nextAuto = row[ci].Int64() + 1
				}
			}
		}
	}
}

// scanBatch bounds how many slots one latched window of a full scan
// visits, so a long monitoring scan never stalls writers behind the
// exclusive latch for the whole table.
const fullScanBatch = 512

// buildRow coerces values to column types and checks NOT NULL
// constraints, applying defaults and autoincrement. input maps column
// position → provided value (missing positions get defaults).
func (t *table) buildRow(provided []Value, has []bool, now func() Value) ([]Value, error) {
	s := &t.schema
	row := make([]Value, len(s.Columns))
	hasAuto := false
	for i := range s.Columns {
		c := &s.Columns[i]
		if c.AutoIncrement {
			hasAuto = true
		}
		var v Value
		switch {
		case has[i]:
			v = provided[i]
		case c.HasDefault:
			v = c.Default
		default:
			v = NullValue()
		}
		if !v.IsNull() {
			cv, err := coerce(v, c.Type)
			if err != nil {
				return nil, fmt.Errorf("sqldb: column %s.%s: %v", s.Name, c.Name, err)
			}
			v = cv
		}
		if v.IsNull() && c.NotNull && !c.AutoIncrement {
			return nil, fmt.Errorf("sqldb: column %s.%s is NOT NULL", s.Name, c.Name)
		}
		row[i] = v
	}
	if hasAuto {
		// Only the autoincrement counter is shared state; validation and
		// coercion above run latch-free so concurrent inserts stay parallel.
		t.latch.Lock()
		for i := range s.Columns {
			if s.Columns[i].AutoIncrement && row[i].IsNull() {
				row[i] = NewInt(t.nextAuto)
			}
		}
		// Advance the counter past any assigned or explicit value.
		for i := range s.Columns {
			if s.Columns[i].AutoIncrement && !row[i].IsNull() && row[i].Int64() >= t.nextAuto {
				t.nextAuto = row[i].Int64() + 1
			}
		}
		t.latch.Unlock()
	}
	// NOT NULL on an autoincrement column is satisfied by the assignment.
	for i := range s.Columns {
		c := &s.Columns[i]
		if row[i].IsNull() && c.NotNull {
			return nil, fmt.Errorf("sqldb: column %s.%s is NOT NULL", s.Name, c.Name)
		}
	}
	_ = now
	return row, nil
}
