package sqldb

import "bytes"

// Borrowed working memory for the statement path.
//
// The rule: a statement allocates what outlives its transaction — an
// inserted or updated row image (the version store keeps it), the WAL
// bytes a flush publishes — and borrows everything else, its result
// included. The lender is txScratch: one per transaction, taken from a
// pool on the DB at the transaction's first statement and returned in
// Tx.finish, the one place a transaction becomes done. It carries the
// per-statement state (the query, its evaluation environment, one scan
// operator per plan step with its window buffers, the sort unit's entries
// and arenas, the DML rid list, an UPDATE's SET cells, the bound
// parameters, the key-lock and WAL encode buffers), the per-transaction
// footprint (locks taken, redo — which rollback reads backward — and the
// arena of its update records, versions to stamp) and the transaction's
// results: each statement's *Rows and its array of row images.
//
// Lifetimes: statement state is valid until the next statement on the same
// Tx — a Tx runs one statement at a time, so nothing else can be reading
// it; transaction state until finish. A result is transaction state: the
// scratch lends each statement a *Rows no earlier statement of the
// transaction was lent, and its row images out of an arena that only grows
// until finish, so a result stays intact while later statements of its
// transaction run — the same statement again, a write of the rows it read,
// statements issued while it is being iterated — and is taken back, with
// the arena, when the transaction ends. Under the race detector a result
// taken back is poisoned: reading it panics instead of reading as empty.
// Query, QueryContext, autocommit and the database/sql driver hand their
// results past the transaction, so they hand over a fresh *Rows the caller
// owns: Query's with Data filled, fresh slices (Rows.materialize), the
// driver's with its own copy of the array of images (Rows.own). Nothing
// else reachable from a *Rows or a Result points into a scratch. A row the statement read is an image (rowimage.go): an
// immutable string, the version's own (rowVersion.data) or one copied once
// out of a resident page (pageRows), and never a view of a page buffer or
// a scratch. A result whose outputs are all bare columns is an array of
// the images of the rows the statement read, read through the plan's
// picks; it holds no pin and no version, and the images stay what the
// statement saw however the rows change after. Computed output rows are
// allocated for the result. Column names and picks belong to the
// immutable plan. Values are copied by value; the strings they reference
// are immutable and owned elsewhere — a TEXT value read out of a row is a
// substring of its image, and stays valid after the result is taken back.

// scratchKeep bounds, in elements, the buffers a scratch takes back to the
// pool. A statement that scanned or returned far more than the usual
// handful of rows grows its buffers for itself; keeping them would park
// that one statement's high-water mark on the heap behind every pooled
// scratch (heap_live_mb is a gated cost).
const scratchKeep = 1024

// resultsKeep bounds the *Rows a pooled scratch keeps to lend: more than a
// heartbeat's or a completion's transaction runs queries. A transaction
// that ran more allocates the rest for itself.
const resultsKeep = 32

type txScratch struct {
	// Statement state, reset by beginQuery.
	q          query
	env        evalEnv
	stats      StmtStats
	rows       []rowImage // the row bound to each binding (evalEnv.rows)
	params     []Value
	scans      []scanOp
	sorter     sortLimit    // SELECT's rows awaiting sort and limit, and their arenas
	rids       []int64      // matchTarget's materialized targets
	setIdx     []int        // UPDATE's SET / INSERT's VALUES column positions
	set        []byte       // UPDATE's SET columns' bitmap, then one row's cells for them (splice)
	provided   []Value      // INSERT's supplied value per column, UPDATE's SET value...
	has        []bool       // ...and whether INSERT supplied one
	keyTargets []lockTarget // unique-key locks of the row being written
	walBuf     bytes.Buffer // the commit's encoded redo records
	eqKey      []byte       // the equality key being built (equalKey), or a DISTINCT aggregate's

	// Transaction state. The Tx's own slices point here while the scratch
	// is attached and are handed back, emptied, at finish.
	locked   []lockTarget
	redo     []walRecord
	versions []stampEntry
	gcPend   []gcRecord
	// The arena redo's update records point into: each one's changed-column
	// bitmap and changed cells.
	deltas []byte
	// The transaction's results: results[:lent] are the *Rows lent so far,
	// the rest spares for the next; refs is the arena their arrays of row
	// images are cut from, appended to and never overwritten until finish.
	results []*Rows
	lent    int
	refs    []rowImage
}

// scratch returns the transaction's working memory, attaching one from
// the pool on first use.
func (tx *Tx) scratch() *txScratch {
	if tx.sc != nil {
		return tx.sc
	}
	sc, _ := tx.db.scratchPool.Get().(*txScratch)
	if sc == nil {
		sc = new(txScratch)
	}
	tx.sc = sc
	// What the transaction recorded before its first statement
	// (Checkpoint's quiesce locks, a DDL's log record) moves over.
	tx.locked = append(sc.locked[:0], tx.locked...)
	tx.redo = append(sc.redo[:0], tx.redo...)
	tx.versions = append(sc.versions[:0], tx.versions...)
	tx.gcPend = append(sc.gcPend[:0], tx.gcPend...)
	return sc
}

// releaseScratch empties the transaction's working memory and returns it
// to the pool. Called only from Tx.finish.
func (tx *Tx) releaseScratch() {
	sc := tx.sc
	if sc == nil {
		return
	}
	tx.sc = nil
	sc.locked = keep(tx.locked)
	sc.redo = keep(tx.redo)
	sc.versions = keep(tx.versions)
	sc.gcPend = keep(tx.gcPend)
	tx.locked, tx.redo, tx.versions, tx.gcPend = nil, nil, nil, nil
	sc.deltas = keep(sc.deltas)
	sc.releaseResults()

	sc.q = query{}
	sc.env = evalEnv{}
	sc.rows = keep(sc.rows)
	sc.params = keep(sc.params)
	sc.scans = sc.scans[:cap(sc.scans)] // an earlier statement may have used more
	for i := range sc.scans {
		sc.scans[i].release()
	}
	sc.sorter = sortLimit{entries: keep(sc.sorter.entries), keys: keep(sc.sorter.keys), refs: keep(sc.sorter.refs), rows: keep(sc.sorter.rows)}
	sc.rids = keep(sc.rids)
	sc.setIdx = keep(sc.setIdx)
	sc.set = keep(sc.set)
	sc.provided, sc.has = keep(sc.provided), keep(sc.has)
	sc.keyTargets = keep(sc.keyTargets)
	if sc.walBuf.Cap() > 64*scratchKeep {
		sc.walBuf = bytes.Buffer{}
	}
	sc.eqKey = keep(sc.eqKey)
	tx.db.scratchPool.Put(sc)
}

// lendRows lends the statement the *Rows its result is handed over in,
// one no earlier statement of the transaction was lent.
func (sc *txScratch) lendRows(cols []string) *Rows {
	if sc.lent == len(sc.results) {
		sc.results = append(sc.results, new(Rows))
	}
	r := sc.results[sc.lent]
	sc.lent++
	*r = Rows{Columns: cols}
	return r
}

// lendRefs lends n row images out of the arena, past every earlier
// result's. Growing the arena moves none of them: the earlier arrays stay
// where their results point.
func (sc *txScratch) lendRefs(n int) []rowImage {
	start := len(sc.refs)
	sc.refs = growTo(sc.refs, start+n, 0)
	return sc.refs[start : start+n : start+n]
}

// releaseResults takes back every result the transaction was lent and
// keeps at most resultsKeep of them, and the arena within scratchKeep, for
// the next transaction.
func (sc *txScratch) releaseResults() {
	for _, r := range sc.results[:sc.lent] {
		r.release()
	}
	sc.lent = 0
	if len(sc.results) > resultsKeep {
		sc.results = append(make([]*Rows, 0, resultsKeep), sc.results[:resultsKeep]...)
	}
	sc.refs = keep(sc.refs)
}

// reuse empties a scratch buffer for its next use, zeroing what was in
// use. Every truncation of a pointer-bearing scratch buffer goes through
// here, so nothing beyond a buffer's length ever pins a row, a version or
// a string, and clearing costs what filling did.
func reuse[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// keep is reuse for a buffer going back to the pool: one grown past
// scratchKeep is dropped instead.
func keep[T any](s []T) []T { return keepUpTo(s, scratchKeep) }

// keepUpTo is keep with a bound of its own.
func keepUpTo[T any](s []T, bound int) []T {
	if cap(s) > bound {
		return nil
	}
	return reuse(s)
}

// beginQuery resets the scratch's statement state and returns its query,
// not yet bound to a plan (planning may fail, and the statement's stats
// are emitted either way). params must stay valid for the statement:
// bindParams' buffer, or the caller's own slice.
func (sc *txScratch) beginQuery(tx *Tx, params []Value, kind string, rowLock lockMode) *query {
	sc.stats = StmtStats{Kind: kind}
	sc.env = evalEnv{params: params, now: tx.db.nowFn()}
	sc.q = query{
		tx:      tx,
		params:  params,
		env:     &sc.env,
		stats:   &sc.stats,
		rowLock: rowLock,
		cancel:  cancelCheck{ctx: tx.ctx},
		sc:      sc,
	}
	return &sc.q
}

// bind attaches the compiled plan: the evaluation environment gets its slot
// table and one row per FROM table, and each table its reusable scan
// operator.
func (q *query) bind(plan *selectPlan) {
	q.selectPlan = plan
	sc := q.sc
	n := len(plan.bindings)
	sc.rows = append(reuse(sc.rows), make([]rowImage, n)...)
	q.env.rows, q.env.cols = sc.rows, plan.cols
	if cap(sc.scans) < n {
		// No scan is open between statements, so regrowing moves nothing
		// anyone points at.
		sc.scans = append(sc.scans[:cap(sc.scans)], make([]scanOp, n-cap(sc.scans))...)
	}
	sc.scans = sc.scans[:n]
}

// updateRecord is the redo record of an update of rid from old to newRow:
// the bitmap of the columns whose cells differ and those cells, laid into
// the scratch's delta arena. Cells compare as bytes, so an update logs
// exactly the cells it changes.
func (sc *txScratch) updateRecord(tableID uint32, rid int64, old, newRow rowImage) walRecord {
	n := newRow.width()
	start := len(sc.deltas)
	for range (n + 7) / 8 {
		sc.deltas = append(sc.deltas, 0)
	}
	for i := 0; i < n; i++ {
		if c := newRow.cell(i); c != old.cell(i) {
			sc.deltas[start+i/8] |= 1 << (i % 8)
			sc.deltas = append(sc.deltas, c...)
		}
	}
	d := sc.deltas[start:]
	return walRecord{op: walUpdate, tableID: uint64(tableID), rid: rid, cols: n, delta: d[:len(d):len(d)]}
}

// bindParams returns the scratch's parameter buffer sized for n values.
func (tx *Tx) bindParams(n int) []Value {
	sc := tx.scratch()
	if cap(sc.params) < n {
		sc.params = make([]Value, n)
	}
	sc.params = reuse(sc.params)[:n]
	return sc.params
}
