package sqldb

import "strings"

// scanOp is one access path over one table binding, run by scanPlan
// (exec.go) as a push stage like every other: window by window it
// collects candidates under the table's shared latch — (key, rid) pairs
// from an index range walk, or the row images of a slot-order full-scan
// window — and after the latch is released resolves each one and hands it
// to the stage's visitor in order. An index candidate is resolved by the
// row lock or the snapshot read and kept only through its own index entry;
// a full-scan row was resolved when it was collected. The visitor never
// runs latch-in-hand: it may recurse into other scans or block on the lock
// manager. RowsScanned counts one per index entry collected, or one per
// full-scan row visited.

// maxScanBatch bounds how many index entries one latched window collects.
const maxScanBatch = 256

// fullScanBatch bounds how many slots one latched window of a full scan
// visits, so a long monitoring scan never stalls writers behind the
// exclusive latch for the whole table.
const fullScanBatch = 512

type scanOp struct {
	q   *query
	ap  accessPlan
	tbl *table
	// done marks the scan finished: bounds proved no row can match, or
	// the cursor ran off the end.
	done bool
	// window caps how many candidates the next latched window collects. It
	// starts at the caller's early-stop hint (LIMIT) when one is set, so a
	// stopped consumer never pays for a whole window, and doubles after
	// every window toward maxScanBatch (index) or fullScanBatch (full
	// scan): residual filters may reject most of what a window collects,
	// and a hint-sized window would then pay a latch acquisition (and an
	// O(log n) seek) per handful of rows.
	window int

	// Index-scan cursor, all in encoded keys, each a view of one of the
	// scan's own buffers. The optional range bounds (haveLo, haveHi) apply
	// to index column kpos, which starts at byte len(prefix) of every entry
	// under the prefix. Forward scans resume from the last collected key
	// (unique thanks to the rid tiebreaker), copied out of the window;
	// reverse scans start at revStart and walk down; a grouped walk
	// (accessPlan.grouped) is inGroup while the entries under group — the
	// prefix and one value of column kpos, a leading part of an entry's
	// key — remain, and resumes among them as a forward scan does.
	kpos           int
	haveLo, haveHi bool
	resume         string
	skipResume     bool
	revStart       string
	group          string
	inGroup        bool

	// Full-scan cursor: next slot window base.
	base int64

	scanBufs
}

// scanBufs are a scan operator's buffers: the one part of it that
// outlives a pass, kept by scanFor for the binding's next one.
type scanBufs struct {
	// prefix is the encoded equality prefix; lo and hi the encoded range
	// bounds on column kpos; bound backs the seek key (prefix + one range
	// bound). The cursor's probe keys are views of them.
	prefix, lo, hi, bound []byte
	// The tree hands back each key it visits assembled in walk, valid only
	// until the next; resumeKey and groupKey back the cursor keys kept
	// between windows.
	walk, resumeKey, groupKey []byte
	// One window's candidates, refilled by every window: their row ids,
	// and the index keys (index path: back to back in keys, key j ending
	// at ends[j]) or row images (full scan) beside them.
	rids []int64
	keys []byte
	ends []int32
	rows []rowImage
}

// keyBytesKeep bounds the key bytes a pooled scan keeps: a full index
// window of keys as long as a keyBuf holds.
const keyBytesKeep = maxScanBatch * len(keyBuf{})

// scanFor returns binding i's scan operator, reset for one pass over ap.
// At most one scan per binding is open at a time — a join step re-opens
// its own per outer row, never a second beside it — so each binding owns
// one operator, and its buffers, for the whole transaction.
func (q *query) scanFor(i int, ap accessPlan) *scanOp {
	op := &q.sc.scans[i]
	*op = scanOp{q: q, ap: ap, tbl: q.bindings[i].tbl, scanBufs: op.scanBufs}
	return op
}

// empty ends a pass. Locks belong to the transaction; what the scan holds
// is its buffers and cursor keys, which go back empty — pointing at no
// row, index key or parameter — for the binding's next pass.
func (op *scanOp) empty() {
	op.prefix, op.lo, op.hi, op.bound = op.prefix[:0], op.lo[:0], op.hi[:0], op.bound[:0]
	op.walk, op.resumeKey, op.groupKey = op.walk[:0], op.resumeKey[:0], op.groupKey[:0]
	op.rids, op.keys, op.ends = op.rids[:0], op.keys[:0], op.ends[:0]
	op.rows = reuse(op.rows)
	op.resume, op.revStart, op.group = "", "", ""
}

// release empties the operator for the pool, dropping buffers grown past
// what a pooled scratch may keep.
func (op *scanOp) release() {
	*op = scanOp{scanBufs: scanBufs{
		prefix: keep(op.prefix), lo: keep(op.lo), hi: keep(op.hi), bound: keep(op.bound),
		walk: keep(op.walk), resumeKey: keep(op.resumeKey), groupKey: keep(op.groupKey),
		rids: keep(op.rids), keys: keepUpTo(op.keys, keyBytesKeep), ends: keep(op.ends), rows: keep(op.rows),
	}}
}

// seek evaluates an index path's key expressions against the current
// evaluation environment (for index nested-loop probes that means the
// outer row bound right now), takes the unique-point predicate lock the
// path calls for, and positions the cursor. A bound that can never match
// (NULL, incomparable constant) finishes the scan immediately.
func (op *scanOp) seek() error {
	q := op.q
	ap := op.ap
	op.prefix = op.prefix[:0]
	for j, e := range ap.eqExprs {
		v, err := q.env.eval(e)
		if err != nil {
			return err
		}
		if v.IsNull() {
			op.done = true // col = NULL never matches
			return nil
		}
		// Coerce to the indexed column's type: its keys encode that type.
		cv, err := coerce(v, op.keyType(j))
		if err != nil {
			op.done = true // incomparable constant: no matches
			return nil
		}
		op.prefix = appendKeyValue(op.prefix, cv)
	}
	op.kpos = len(ap.eqExprs)
	// Resolve the optional range bounds on the next index column.
	var err error
	if ap.loExpr != nil {
		if op.lo, op.haveLo, err = op.rangeBound(ap.loExpr, op.lo); err != nil || !op.haveLo {
			return err
		}
	}
	if ap.hiExpr != nil {
		if op.hi, op.haveHi, err = op.rangeBound(ap.hiExpr, op.hi); err != nil || !op.haveHi {
			return err
		}
	}
	// Unique-key point lookups take the key-value lock as a predicate
	// guard: a transaction that read key K — present or absent — blocks
	// writers of K until it commits, closing the check-then-act phantom for
	// the engine's hottest access pattern. Broader range scans remain
	// record-locked only (no next-key locking). Snapshot reads need no
	// guard: they re-read the same timestamp no matter who writes.
	if !q.snapRead && ap.index.schema.Unique && op.kpos == len(ap.index.cols) {
		if err := q.tx.db.locks.acquire(q.tx.ctx, q.tx, op.tbl.keyLockTarget(ap.index, op.prefix), q.rowLock); err != nil {
			return err
		}
	}
	// Forward scans seek to prefix (+ low bound); reverse scans seek to the
	// last key under prefix (+ high bound) and walk backward.
	switch {
	case !ap.reverse && op.haveLo:
		op.bound = append(append(op.bound[:0], op.prefix...), op.lo...)
		op.resume = view(op.bound)
	case !ap.reverse:
		op.resume = view(op.prefix)
	case op.haveHi:
		op.bound = append(append(op.bound[:0], op.prefix...), op.hi...)
		op.revStart = view(op.bound)
	default:
		op.revStart = view(op.prefix)
	}
	return nil
}

// keyType is the type of the index's column j.
func (op *scanOp) keyType(j int) Type {
	return op.tbl.schema.Columns[op.ap.index.cols[j]].Type
}

// rangeBound evaluates a range bound on column kpos and appends its
// encoding to b[:0]. ok is false when it can match nothing — NULL, or a
// constant the column's type cannot hold — which finishes the scan.
func (op *scanOp) rangeBound(e Expr, b []byte) (_ []byte, ok bool, err error) {
	v, err := op.q.env.eval(e)
	if err != nil {
		return b, false, err
	}
	if !v.IsNull() {
		if cv, cerr := coerce(v, op.keyType(op.kpos)); cerr == nil {
			return appendKeyValue(b[:0], cv), true, nil
		}
	}
	op.done = true // comparison with NULL, or an incomparable constant
	return b, false, nil
}

// fullWindow runs one window of the slot-order full scan: the rows
// visible to the statement are collected under the shared latch from at
// most fullScanBatch slots, then visited unlatched — version data is
// immutable. Each row counts as scanned when it is visited, so an early
// stop (LIMIT) counts only what it examined.
func (op *scanOp) fullWindow(visit func(rid int64, row rowImage) error) error {
	q := op.q
	tbl := op.tbl
	op.rids = op.rids[:0]
	op.rows = reuse(op.rows)
	tbl.latch.RLock()
	n := tbl.rows.n
	end := min(op.base+fullScanBatch, n)
	rid := op.base
	for ; rid < end && len(op.rows) < op.window; rid++ {
		var row rowImage
		if s := tbl.rows.at(rid); q.snapRead {
			row = tbl.resolve(s.visibleVersion(q.snapTS))
		} else {
			row = tbl.resolve(s.currentVersion(q.tx.id))
		}
		if row != noRow {
			op.rids = append(op.rids, rid)
			op.rows = append(op.rows, row)
		}
	}
	tbl.latch.RUnlock()
	op.base = rid
	op.done = rid >= n
	for j, rid := range op.rids {
		if err := q.cancel.check(); err != nil {
			return err
		}
		q.stats.RowsScanned++
		if err := visit(rid, op.rows[j]); err != nil {
			return err
		}
	}
	return nil
}

// walkGroups collects one latched window of a grouped walk: the
// distinct values of the index column after the prefix from the highest
// down, the entries under each value upward — ORDER BY a DESC, b over an
// index (eq…, a, b). Each next group is found by seeking, with keys: the
// one holding the last entry under the prefix, then the one holding the
// last entry below the group just finished. The cursor between windows is
// keys too (group, resume), never a leaf position, so a writer between two
// windows cannot strand it. collect stops the walk when the window is full.
func (op *scanOp) walkGroups(collect func(string, int64) bool) {
	tree := op.ap.index.tree
	prefix := view(op.prefix)
	for len(op.rids) < op.window {
		if !op.inGroup {
			var k string
			var ok bool
			if op.group == "" {
				k, ok = tree.findLastLE(prefix, &op.walk)
			} else {
				k, ok = tree.findLastLT(op.group, &op.walk)
			}
			if !ok || !strings.HasPrefix(k, prefix) {
				return // ran off the prefix: the scan is exhausted
			}
			op.groupKey = append(op.groupKey[:0], k[:len(prefix)+keyValueLen(k[len(prefix):], op.keyType(op.kpos))]...)
			op.group = view(op.groupKey)
			op.resume, op.skipResume, op.inGroup = op.group, false, true
		}
		tree.scanRange(op.resume, "", &op.walk, func(k string, rid int64) bool {
			return strings.HasPrefix(k, op.group) && collect(k, rid)
		})
		if len(op.rids) < op.window {
			op.inGroup = false // the walk left the group, or the index
		}
	}
}

// indexWindow runs one window of the index range walk: candidate
// (key, rid) pairs are collected under the table latch, each counting as
// scanned; then each row is locked (2PL reads that narrow the index) or
// read at the snapshot timestamp, and visited only through its own index
// entry — entries outlive the versions that created them, so this both
// deduplicates and keeps ordered scans emitting rows at the right key
// position.
func (op *scanOp) indexWindow(visit func(rid int64, row rowImage) error) error {
	q := op.q
	ap := op.ap
	tbl := op.tbl
	op.rids, op.keys, op.ends = op.rids[:0], op.keys[:0], op.ends[:0]
	exhausted := true
	prefix := view(op.prefix)
	lo, hi := view(op.lo), view(op.hi)
	collect := func(k string, rid int64) bool {
		if op.skipResume && k == op.resume {
			return true // already visited in the previous window
		}
		// Stay within the equality prefix.
		if !strings.HasPrefix(k, prefix) {
			return false
		}
		if op.haveLo || op.haveHi {
			// Column kpos compared in place. The strict bound on the
			// near side of the walk is skipped per entry; the far-side
			// bound terminates the walk.
			col := k[len(prefix):]
			if !ap.reverse {
				if op.haveLo && !ap.loInc && comparePrefix(col, lo) == 0 {
					return true
				}
				if op.haveHi {
					if c := comparePrefix(col, hi); c > 0 || (c == 0 && !ap.hiInc) {
						return false
					}
				}
			} else {
				if op.haveHi && !ap.hiInc && comparePrefix(col, hi) == 0 {
					return true
				}
				if op.haveLo {
					if c := comparePrefix(col, lo); c < 0 || (c == 0 && !ap.loInc) {
						return false
					}
				}
			}
		}
		q.stats.RowsScanned++
		op.rids = append(op.rids, rid)
		op.keys = append(op.keys, k...) // k is the walk's: copied to outlive the latch
		op.ends = append(op.ends, int32(len(op.keys)))
		if len(op.rids) >= op.window {
			exhausted = false
			return false
		}
		return true
	}
	tbl.latch.RLock()
	switch {
	case ap.grouped:
		op.walkGroups(collect)
	case !ap.reverse:
		ap.index.tree.scanRange(op.resume, "", &op.walk, collect)
	case op.skipResume:
		ap.index.tree.scanReverseLT(op.resume, &op.walk, collect)
	default:
		ap.index.tree.scanReverseLE(op.revStart, &op.walk, collect)
	}
	tbl.latch.RUnlock()
	// Advance the cursor before resolving rows, so an error mid-window
	// leaves the operator consistent.
	op.done = exhausted
	if !exhausted {
		op.resumeKey = append(op.resumeKey[:0], op.key(len(op.ends)-1)...)
		op.resume, op.skipResume = view(op.resumeKey), true
	}
	// A narrowed locked read locks every entry the window collected before
	// it visits any (a whole-index scan holds the table lock, which no
	// writer shares), so the rows it locks are the entries it counts.
	if !q.snapRead && ap.narrows() {
		for _, rid := range op.rids {
			if err := q.tx.lockRow(op.tbl, rid, q.rowLock); err != nil {
				return err
			}
		}
	}
	for j, rid := range op.rids {
		if err := q.cancel.check(); err != nil {
			return err
		}
		// A locked read reads after the lock grant: the row may have been
		// superseded, tombstoned, or its slot reclaimed by a writer that
		// committed before our lock was granted.
		var row rowImage
		if q.snapRead {
			row = tbl.visibleRow(rid, q.snapTS)
		} else {
			row = tbl.currentRow(rid, q.tx.id)
		}
		if row == noRow || !ap.index.entryMatches(op.key(j), row, rid) {
			continue
		}
		if err := visit(rid, row); err != nil {
			return err
		}
	}
	return nil
}

// key is the window's index key j.
func (op *scanOp) key(j int) string {
	var from int32
	if j > 0 {
		from = op.ends[j-1]
	}
	return view(op.keys[from:op.ends[j]])
}
