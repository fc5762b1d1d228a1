package sqldb

import "strings"

// scanOp is the batched leaf operator of the executor pipeline: one
// access path over one table binding, pulled Init/Next/Close-style in
// batches (scanBatch) like the aggregation operator (executor.go). Next
// materializes candidate row ids in short latched windows (an index
// range walk or a slot-order full-scan window), then resolves
// visibility — MVCC snapshot reads or 2PL row locks — and residual
// index-entry matching outside the latch, exactly as the push-model
// scan did. Callers either consume batches directly (hash-join builds)
// or through the scanPlan push adapter (exec.go).

// maxScanBatch bounds how many index entries one latched collection
// round materializes.
const maxScanBatch = 256

type scanOp struct {
	q    *query
	bind int
	ap   accessPlan

	tbl       *table
	tableName string
	// done marks the scan finished: bounds proved no row can match, or
	// the cursor ran off the end.
	done bool

	// Index-scan cursor, all in encoded keys. The optional range bounds
	// (haveLo, haveHi) apply to index column kpos, which starts at byte
	// len(prefix) of every entry under the prefix. Forward scans resume from the last
	// collected key (unique thanks to the rid tiebreaker; a node's key is
	// an immutable string, so holding it costs nothing); reverse scans
	// start at revStart and walk down; a grouped walk (accessPlan.grouped)
	// is inGroup while the entries under group — the prefix and one value
	// of column kpos, a leading part of a node's key — remain, and resumes
	// among them as a forward scan does.
	kpos           int
	haveLo, haveHi bool
	scanBatch      int
	resume         string
	skipResume     bool
	revStart       string
	group          string
	inGroup        bool

	// Full-scan cursor: next slot window base.
	base int64

	batch scanBatch
	scanBufs
}

// scanBufs are a scan operator's buffers: the one part of it that
// outlives a pass, kept by scanFor for the binding's next one.
type scanBufs struct {
	// prefix is the encoded equality prefix; lo and hi the encoded range
	// bounds on column kpos; bound backs the seek key (prefix + one range
	// bound). The cursor's probe keys are views of them.
	prefix, lo, hi, bound []byte
	// Per-batch buffers, refilled by every Next call: the returned
	// scanBatch is valid only until the next one.
	rids    []int64
	keys    []string
	outRows []rowImage
	outRids []int64
}

// empty truncates every buffer and zeroes those holding references: they
// point at no row or index key afterwards.
func (b *scanBufs) empty() {
	b.prefix, b.lo, b.hi, b.bound = b.prefix[:0], b.lo[:0], b.hi[:0], b.bound[:0]
	b.rids, b.outRids = b.rids[:0], b.outRids[:0]
	b.keys, b.outRows = reuse(b.keys), reuse(b.outRows)
}

// scanFor returns binding i's scan operator, reset for one pass over ap.
// At most one scan per binding is open at a time — a join step re-opens
// its own per outer row, never a second beside it — so each binding owns
// one operator, and its buffers, for the whole transaction.
func (q *query) scanFor(i int, ap accessPlan) *scanOp {
	op := &q.sc.scans[i]
	op.empty() // a pass whose Init failed was never Closed
	*op = scanOp{q: q, bind: i, ap: ap, scanBufs: op.scanBufs}
	return op
}

// release empties the operator for the pool, dropping buffers grown past
// what a pooled scratch may keep.
func (op *scanOp) release() {
	*op = scanOp{scanBufs: scanBufs{
		prefix: keep(op.prefix), lo: keep(op.lo), hi: keep(op.hi), bound: keep(op.bound),
		rids: keep(op.rids), keys: keep(op.keys), outRows: keep(op.outRows), outRids: keep(op.outRids),
	}}
}

// Init evaluates the access path's key expressions against the current
// evaluation environment (for index nested-loop probes that means the
// outer row bound right now), takes the unique-point predicate lock the
// path calls for, and positions the cursor. A bound that can never
// match (NULL, incomparable constant) finishes the scan immediately.
func (op *scanOp) Init() error {
	q := op.q
	op.tbl = q.bindings[op.bind].tbl
	ap := op.ap
	if ap.index == nil {
		// Full scan: cursor starts at slot 0. Batches deliver at most
		// scanBatch rows — sized down to the caller's early-stop hint
		// (LIMIT) so a stopped consumer never pays for a whole window —
		// and grow geometrically back toward the window size.
		op.scanBatch = fullScanBatch
		if q.batchHint > 0 && q.batchHint < op.scanBatch {
			op.scanBatch = q.batchHint
		}
		return nil
	}
	op.tableName = strings.ToLower(op.tbl.schema.Name)
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
		if err := q.tx.db.locks.acquire(q.tx.ctx, q.tx, ap.index.keyLockTarget(op.prefix), q.rowLock); err != nil {
			return err
		}
	}
	// Collection batch size: start at the caller's early-stop hint (LIMIT)
	// when one is set, but grow geometrically on every continued batch —
	// residual filters may reject most collected rows, and a hint-sized
	// batch would then pay a latch acquisition and O(log n) seek per
	// handful of entries.
	op.scanBatch = maxScanBatch
	if q.batchHint > 0 && q.batchHint < op.scanBatch {
		op.scanBatch = q.batchHint
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

// scanBatch is one batch of a scan: the rows it delivers, and their row
// ids.
type scanBatch struct {
	rows []rowImage
	rids []int64
}

// Next returns the next non-empty batch of visible, matching rows, or nil
// when the scan is exhausted. The batch's buffers are reused by the
// following Next call.
func (op *scanOp) Next() (*scanBatch, error) {
	if op.ap.index == nil {
		return op.nextFull()
	}
	return op.nextIndex()
}

// Close ends the pass. Locks belong to the transaction; what the scan
// holds is its buffers, which go back empty — pointing at no row, index
// key or parameter — for the binding's next pass.
func (op *scanOp) Close() {
	op.empty()
	op.resume, op.revStart, op.group = "", "", ""
	op.batch = scanBatch{}
}

// nextFull produces one batch from the slot-order full scan: rows are
// materialized under the shared latch in windows of at most
// fullScanBatch slots, but handed out unlatched — version data is
// immutable, and consumers may recurse into other scans or block on the
// lock manager, neither of which may happen latch-in-hand. RowsScanned
// is NOT bumped here: full-scan rows count when a consumer visits them,
// so an early-stopping consumer (LIMIT) reports only what it examined.
func (op *scanOp) nextFull() (*scanBatch, error) {
	q := op.q
	tbl := op.tbl
	for {
		if op.done {
			return nil, nil
		}
		op.outRows = reuse(op.outRows)
		op.outRids = op.outRids[:0]
		tbl.latch.RLock()
		n := int64(len(tbl.rows))
		end := op.base + fullScanBatch
		if end > n {
			end = n
		}
		rid := op.base
		for ; rid < end; rid++ {
			var row rowImage
			if q.snapRead {
				row = tbl.resolve(tbl.rows[rid].visibleVersion(q.snapTS))
			} else {
				row = tbl.resolve(tbl.rows[rid].currentVersion(q.tx.id))
			}
			if row != noRow {
				op.outRids = append(op.outRids, rid)
				op.outRows = append(op.outRows, row)
				if len(op.outRows) >= op.scanBatch {
					rid++
					break
				}
			}
		}
		tbl.latch.RUnlock()
		op.base = rid
		if rid >= n {
			op.done = true
		}
		// One cooperative tick per delivered row, batched: same
		// cancellation latency as the per-row push scan had.
		if err := q.cancel.checkN(len(op.outRows)); err != nil {
			return nil, err
		}
		if op.scanBatch < fullScanBatch {
			op.scanBatch *= 2
			if op.scanBatch > fullScanBatch {
				op.scanBatch = fullScanBatch
			}
		}
		if len(op.outRows) > 0 {
			op.batch = scanBatch{rows: op.outRows, rids: op.outRids}
			return &op.batch, nil
		}
	}
}

// walkGroups is one latched collection round of a grouped walk: the
// distinct values of the index column after the prefix from the highest
// down, the entries under each value upward — ORDER BY a DESC, b over an
// index (eq…, a, b). Each next group is found by seeking, with keys: the
// one holding the last entry under the prefix, then the one holding the
// last entry below the group just finished. The cursor between rounds is
// keys too (group, resume), never a node, so a writer between two batches
// cannot strand it. collect stops the round when the batch is full.
func (op *scanOp) walkGroups(collect func(string, int64) bool) {
	tree := op.ap.index.tree
	prefix := view(op.prefix)
	for len(op.rids) < op.scanBatch {
		if !op.inGroup {
			var n *slNode
			if op.group == "" {
				n = tree.findLastLE(prefix)
			} else {
				n = tree.findLastLT(op.group)
			}
			if n == nil || !strings.HasPrefix(n.key, prefix) {
				return // ran off the prefix: the scan is exhausted
			}
			op.group = n.key[:len(prefix)+keyValueLen(n.key[len(prefix):], op.keyType(op.kpos))]
			op.resume, op.skipResume, op.inGroup = op.group, false, true
		}
		tree.scanRange(op.resume, "", func(k string, rid int64) bool {
			return strings.HasPrefix(k, op.group) && collect(k, rid)
		})
		if len(op.rids) < op.scanBatch {
			op.inGroup = false // the walk left the group, or the index
		}
	}
}

// nextIndex produces one batch from the index range walk: candidate
// (key, rid) pairs are collected under the table latch, then each row
// is locked (2PL reads that narrow the index) or resolved at the
// snapshot timestamp, and accepted only through its own index entry —
// entries outlive the versions that created them, so this both
// deduplicates and keeps ordered scans emitting rows at the right key
// position.
func (op *scanOp) nextIndex() (*scanBatch, error) {
	q := op.q
	ap := op.ap
	tbl := op.tbl
	for {
		if op.done {
			return nil, nil
		}
		op.rids = op.rids[:0]
		op.keys = reuse(op.keys)
		lastKey := ""
		exhausted := true
		prefix := view(op.prefix)
		lo, hi := view(op.lo), view(op.hi)
		collect := func(k string, rid int64) bool {
			if op.skipResume && k == op.resume {
				return true // already visited in the previous batch
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
			op.keys = append(op.keys, k) // node keys are immutable: safe to hold
			lastKey = k
			if len(op.rids) >= op.scanBatch {
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
			ap.index.tree.scanRange(op.resume, "", collect)
		case op.skipResume:
			ap.index.tree.scanReverseLT(op.resume, collect)
		default:
			ap.index.tree.scanReverseLE(op.revStart, collect)
		}
		tbl.latch.RUnlock()
		// Advance the cursor before resolving rows, so an error mid-batch
		// leaves the operator consistent.
		if exhausted {
			op.done = true
		} else {
			op.resume = lastKey
			op.skipResume = true
			if op.scanBatch < maxScanBatch {
				op.scanBatch *= 2
				if op.scanBatch > maxScanBatch {
					op.scanBatch = maxScanBatch
				}
			}
		}
		op.outRows = reuse(op.outRows)
		op.outRids = op.outRids[:0]
		for bi, rid := range op.rids {
			if err := q.cancel.check(); err != nil {
				return nil, err
			}
			var row rowImage
			if q.snapRead {
				row = tbl.visibleRow(rid, q.snapTS)
			} else {
				// A narrowed read locks each row it visits; a whole-index
				// scan holds the table lock, which no writer shares.
				if ap.narrows() {
					if err := q.tx.lockRow(op.tableName, rid, q.rowLock); err != nil {
						return nil, err
					}
				}
				// Read after the lock grant: the row may have been
				// superseded, tombstoned, or its slot reclaimed by a writer
				// that committed before our lock was granted.
				row = tbl.currentRow(rid, q.tx.id)
			}
			if row == noRow {
				continue
			}
			if !ap.index.entryMatches(op.keys[bi], row, rid) {
				continue
			}
			op.outRids = append(op.outRids, rid)
			op.outRows = append(op.outRows, row)
		}
		if len(op.outRows) > 0 {
			op.batch = scanBatch{rows: op.outRows, rids: op.outRids}
			return &op.batch, nil
		}
	}
}
