package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// The executor runs every SELECT, and every UPDATE/DELETE target, as a
// plan of join steps (join.go): one step per FROM table, none without a
// FROM. Access paths are chosen per table: an index scan when WHERE/ON
// equality conjuncts cover a prefix of some index, otherwise a full scan.
// This is deliberately the plan shape the CAS's hot statements need — point
// lookups on machine name and virtual-machine id during heartbeats, short
// index scans for the scheduler — per the paper's observation that "a good
// schema, efficient transformations and short-running transactions for the
// most common operations are the keys to high performance".

type tableBinding struct {
	alias string
	tbl   *table
}

// accessPlan is the chosen access path for one FROM table: an equality
// prefix over the index's leading columns, optionally followed by a range
// bound on the next column (WHERE state = ? AND id > ? uses both).
type accessPlan struct {
	index   *index
	eqExprs []Expr // one per matched index column prefix, evaluated per outer row
	loExpr  Expr   // lower bound on the column after the prefix (nil = none)
	loInc   bool   // lower bound is inclusive (>=)
	hiExpr  Expr   // upper bound on the column after the prefix
	hiInc   bool
	// ordered counts the leading ORDER BY items this scan emits rows in
	// order of: the index columns right after the equality prefix name
	// them, in one direction — or, grouped, the first descending and the
	// rest ascending. The sort unit (sortLimit) uses it to stop the scan
	// once LIMIT is satisfied past the last tie, instead of reading every
	// matching row.
	ordered int
	// reverse scans the index backward (ORDER BY ... DESC).
	reverse bool
	// grouped walks the values of the column after the equality prefix
	// downward and the entries under each value upward (scanOp.walkGroups):
	// ORDER BY a DESC, b [, c] over an index (eq…, a, b, c) in full.
	grouped bool
}

// narrows reports whether the path reads a part of the index: an equality
// prefix or a range bound. One that does not reads every row, only in
// index order, and locks like the seq scan it stands in for — the table in
// S (or X), no row locks.
func (ap *accessPlan) narrows() bool {
	return len(ap.eqExprs) > 0 || ap.loExpr != nil || ap.hiExpr != nil
}

// query is the per-execution state of one statement: the compiled plan
// it runs (embedded, possibly shared with concurrent executions through
// the plan cache — see plancache.go) plus everything private to this
// execution: parameter values, the evaluation environment, snapshot
// timestamp, lock mode, hash-join tables, and counters. Execution must
// never write through the embedded selectPlan; only buildSelectPlan's
// throwaway planning query does, before the plan is published.
type query struct {
	tx *Tx
	*selectPlan
	params []Value
	env    *evalEnv
	stats  *StmtStats
	// sc is the transaction's scratch this execution borrows its buffers
	// from (scratch.go); nil for the throwaway planning query.
	sc *txScratch
	// rowLock is the lock mode taken on each row visited through an index
	// access path that narrows the read: S for SELECT, X for UPDATE/DELETE
	// targets. Full scans, in slot or index order, rely on the
	// table-granularity lock instead and take no row locks.
	rowLock lockMode
	// snapRead marks a snapshot read: rows visible at snapTS are read from
	// the version store and the lock manager is never consulted (no table
	// IS/S locks, no row S locks, no key predicate locks).
	snapRead bool
	snapTS   uint64
	// batchHint caps how many candidates a scan's first latched window
	// collects when the caller expects to stop early (LIMIT). Purely a
	// performance knob: the scan still continues window by window for as
	// long as the visitor accepts rows.
	batchHint int
	// hjs holds the per-step hash-join build tables, indexed like
	// selectPlan.steps. They are execution state (built from rows this
	// execution can see), so they live here rather than on the shared
	// stepPlan.
	hjs []*hashState
	// cancel is the cooperative cancellation checkpoint (ctx.go): every
	// scan and probe loop calls cancel.check() per visited row.
	cancel cancelCheck
	// Hash-join volume counters, flushed to the DB's planner counters once
	// per statement (keeps atomics off the per-row hot path).
	hashBuilds uint64
	buildRows  uint64
	probeRows  uint64
	// Aggregation counters (executor.go), flushed once per statement like
	// the hash-join volumes above.
	aggQueries   uint64
	aggFastPath  uint64
	aggInputRows uint64
	aggGroups    uint64
}

var errStopScan = fmt.Errorf("sqldb: internal: stop scan")

func (tx *Tx) execSelect(s *SelectStmt, params []Value) (*Rows, error) {
	q := tx.scratch().beginQuery(tx, params, "SELECT", lockShared)
	q.snapRead, q.snapTS = tx.readOnly, tx.snap
	stats := q.stats
	// Deferred so failing statements still report their volumes.
	defer func() {
		if q.hashBuilds > 0 || q.probeRows > 0 {
			tx.db.plannerHashBuilds.Add(q.hashBuilds)
			tx.db.plannerBuildRows.Add(q.buildRows)
			tx.db.plannerProbeRows.Add(q.probeRows)
		}
		if q.aggQueries > 0 {
			tx.db.execAggQueries.Add(q.aggQueries)
			tx.db.execAggFastPath.Add(q.aggFastPath)
			tx.db.execAggInputRows.Add(q.aggInputRows)
			tx.db.execAggGroups.Add(q.aggGroups)
		}
		tx.db.emit(*stats)
	}()
	if q.snapRead {
		tx.db.snapshotReads.Add(1)
	}
	if len(s.From) > 0 {
		stats.Table = s.From[0].Table
	}
	plan, _, err := tx.planSelect(s)
	if err != nil {
		return nil, err
	}
	q.bind(plan)
	stats.UsedIndex = plan.usedIndex

	// Lock after planning: an index access path that narrows the read only
	// needs intention-shared on the table (row S locks are taken per visited
	// row), while a full scan — by slot or in index order — keeps the
	// whole-table shared lock for phantom-free reads. The footprint was
	// merged and sorted at plan time (consistent acquisition order across
	// transactions). Snapshot reads take nothing at all — visibility is by
	// timestamp.
	if !q.snapRead {
		if err := tx.lockPlan(plan, lockIntentShared, lockShared); err != nil {
			return nil, err
		}
	}

	// Outputs were star-expanded and named at plan time; so was whether
	// they are all bare columns (plan.picks), and the result then row
	// references instead of computed rows. The result is the
	// transaction's to lend.
	rows := q.sc.lendRows(plan.names)
	sl := &q.sc.sorter
	defer sl.end()
	if err := sl.begin(q); err != nil {
		return nil, err
	}
	if sl.limit == 0 {
		return rows, nil // nothing to return: nothing to read
	}
	if plan.aggregated {
		err = q.runAggregate(plan.outs, sl)
	} else {
		err = q.runPlain(plan.outs, sl)
	}
	if err != nil {
		return nil, err
	}
	stats.RowsReturned = sl.result(rows)
	return rows, nil
}

// plan decides whether the access path may provide the ORDER BY, which
// chooseAccess reads, and then plans the steps (planJoin). The binder has
// run: q.order holds the resolved ORDER BY keys.
func (q *query) plan() error {
	q.orderable = len(q.bindings) == 1 && len(q.order) > 0 && !q.stmt.Distinct && !q.aggregated
	for _, e := range q.order {
		q.orderable = q.orderable && !hasAggregate(e)
	}
	return q.planJoin()
}

// conjuncts flattens nested ANDs into a list.
func conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == "and" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []Expr{e}
}

// bindNames is the binder: the one place a name is resolved. It fills
// q.cols, one pick per slot, for every column reference the statement
// holds — the outputs, each ON and the WHERE, GROUP BY, HAVING and ORDER
// BY — and lays out the outputs (q.outs, q.names), a star expanded into
// references of its own, numbered after the statement's. q.order is the
// ORDER BY keys, an ordinal replaced by the output it numbers. An unknown
// or ambiguous name, and any name in LIMIT or OFFSET, fails the plan here,
// before a row is read, whatever the tables hold. Nothing after reads a
// name: evaluation reads q.cols[slot].
//
// The alias rule, one for ORDER BY and HAVING: an output alias is found by
// its position in the star-expanded output row (the last output, if
// several carry it). An unqualified name that no FROM table's column
// carries names the output carrying it as its alias — outside an
// aggregate's arguments, which read input rows — and an ORDER BY item that
// is nothing but such a name names the output even when a column carries
// it too (SQL's sort by output name).
func (q *query) bindNames() error {
	s := q.stmt
	width := s.Slots
	for _, se := range s.Exprs {
		if se.Star {
			for _, b := range q.bindings {
				width += len(b.tbl.schema.Columns)
			}
		}
	}
	q.cols = make([]pick, s.Slots, width)
	var aliases []string // per output: its alias, or ""
	for i, se := range s.Exprs {
		if !se.Star {
			if err := q.bindExpr(se.Expr, nil); err != nil {
				return err
			}
			q.outs, q.names = append(q.outs, se.Expr), append(q.names, outputName(se, i))
			aliases = append(aliases, se.Alias)
			continue
		}
		n := len(q.outs)
		for bi, b := range q.bindings {
			if se.Table != "" && strings.ToLower(se.Table) != b.alias {
				continue
			}
			for ci, c := range b.tbl.schema.Columns {
				q.outs = append(q.outs, &ColRef{Table: b.alias, Name: c.Name, Slot: len(q.cols)})
				q.cols = append(q.cols, pick{bind: bi, col: ci})
				q.names, aliases = append(q.names, c.Name), append(aliases, "")
			}
		}
		if len(q.outs) == n {
			if len(q.bindings) == 0 {
				return fmt.Errorf("sqldb: SELECT * requires a FROM clause")
			}
			return fmt.Errorf("sqldb: %s.* matches no table", se.Table)
		}
	}
	for _, ref := range s.From {
		if err := q.bindExpr(ref.On, nil); err != nil {
			return err
		}
	}
	if err := q.bindExpr(s.Where, nil); err != nil {
		return err
	}
	for _, e := range s.GroupBy {
		if err := q.bindExpr(e, nil); err != nil {
			return err
		}
	}
	if err := q.bindExpr(s.Having, aliases); err != nil {
		return err
	}
	q.order = make([]Expr, len(s.OrderBy))
	for i, item := range s.OrderBy {
		q.order[i] = item.Expr
		switch x := item.Expr.(type) {
		case *ColRef:
			if at := aliasAt(aliases, x); at >= 0 {
				q.cols[x.Slot] = q.outputPick(at)
				continue
			}
		case *Literal: // ORDER BY <n>: the n-th output
			if n := x.Val; n.Type() == Int && n.Int64() >= 1 && n.Int64() <= int64(len(q.outs)) {
				q.order[i] = q.outs[n.Int64()-1]
			}
		}
		if err := q.bindExpr(item.Expr, aliases); err != nil {
			return err
		}
	}
	var err error
	for _, e := range [...]Expr{s.Limit, s.Offset} {
		walkExpr(e, func(x Expr) {
			if cr, ok := x.(*ColRef); ok && err == nil {
				err = fmt.Errorf("sqldb: LIMIT and OFFSET cannot name a column (%s)", cr.Name)
			}
		})
	}
	return err
}

// bindExpr resolves the column references in e into q.cols, with the
// alias rule's fallback to an output when aliases (one per output) is
// given.
func (q *query) bindExpr(e Expr, aliases []string) error {
	var err error
	walkExpr(e, func(x Expr) {
		if err != nil {
			return
		}
		switch x := x.(type) {
		case *ColRef:
			q.cols[x.Slot], err = q.bindingPos(x, aliases)
		case *FuncCall:
			if aliases != nil && isAggregate(x) {
				// Its arguments read input rows, so they name columns only:
				// bound first without aliases, a name only an alias carries
				// fails here, and the walk into them finds the same columns.
				for _, a := range x.Args {
					if err == nil {
						err = q.bindExpr(a, nil)
					}
				}
			}
		}
	})
	return err
}

// bindingPos resolves a column reference: to the column of the FROM table
// its qualifier names, or of the one FROM table with a column of its name;
// failing that, for an unqualified name, to the output aliases gives it.
// The binder is its one caller.
func (q *query) bindingPos(cr *ColRef, aliases []string) (pick, error) {
	if cr.Table != "" {
		t := strings.ToLower(cr.Table)
		for i, b := range q.bindings {
			if b.alias != t {
				continue
			}
			if ci := b.tbl.schema.ColumnIndex(cr.Name); ci >= 0 {
				return pick{bind: i, col: ci}, nil
			}
			return pick{}, fmt.Errorf("sqldb: no column %s in %s", cr.Name, t)
		}
		return pick{}, fmt.Errorf("sqldb: unknown table or alias %q", cr.Table)
	}
	found := pick{bind: -1}
	for i, b := range q.bindings {
		if ci := b.tbl.schema.ColumnIndex(cr.Name); ci >= 0 {
			if found.bind >= 0 {
				return pick{}, fmt.Errorf("sqldb: ambiguous column %q", cr.Name)
			}
			found = pick{bind: i, col: ci}
		}
	}
	if found.bind >= 0 {
		return found, nil
	}
	if at := aliasAt(aliases, cr); at >= 0 {
		return q.outputPick(at), nil
	}
	return pick{}, fmt.Errorf("sqldb: unknown column %q", cr.Name)
}

// aliasAt is the position of the last output aliases names cr by, or -1.
func aliasAt(aliases []string, cr *ColRef) int {
	at := -1
	for j, a := range aliases {
		if cr.Table == "" && a != "" && strings.EqualFold(a, cr.Name) {
			at = j
		}
	}
	return at
}

// outputPick is what a reference to output at reads: the output's own
// pick when it is a bare column, else its place in the output row.
func (q *query) outputPick(at int) pick {
	if cr, ok := q.outs[at].(*ColRef); ok {
		return q.cols[cr.Slot]
	}
	return pick{bind: -1, col: at}
}

// rangeBound is one inequality usable as an index range endpoint.
type rangeBound struct {
	expr Expr
	inc  bool
}

// chooseAccess picks the index with the longest equality prefix satisfied
// by the usable conjuncts for table position i, extending it with a range
// bound on the following column when one is available. canEval reports
// whether the non-column side of a conjunct is computable when this table
// is scanned (constants only for a driver scan; anything over the placed
// prefix for an index nested-loop probe).
func (q *query) chooseAccess(i int, usable []Expr, canEval func(Expr) bool) accessPlan {
	// boundSide classifies `col OP expr` where expr is computable at scan
	// time; returns the column index or -1.
	boundSide := func(colSide, otherSide Expr) int {
		ci := q.colOn(i, colSide)
		if ci < 0 || !canEval(otherSide) {
			return -1
		}
		return ci
	}

	eqByCol := make(map[int]Expr)
	loByCol := make(map[int]rangeBound)
	hiByCol := make(map[int]rangeBound)
	for _, c := range usable {
		switch x := c.(type) {
		case *Binary:
			switch x.Op {
			case "=":
				if ci := boundSide(x.L, x.R); ci >= 0 {
					if _, dup := eqByCol[ci]; !dup {
						eqByCol[ci] = x.R
					}
				} else if ci := boundSide(x.R, x.L); ci >= 0 {
					if _, dup := eqByCol[ci]; !dup {
						eqByCol[ci] = x.L
					}
				}
			case "<", "<=", ">", ">=":
				// col OP expr, or expr OP col (flip the direction).
				if ci := boundSide(x.L, x.R); ci >= 0 {
					setBound(loByCol, hiByCol, ci, x.Op, x.R)
				} else if ci := boundSide(x.R, x.L); ci >= 0 {
					setBound(loByCol, hiByCol, ci, flipOp(x.Op), x.L)
				}
			}
		case *BetweenExpr:
			if x.Not {
				continue
			}
			if ci := boundSide(x.X, x.Lo); ci >= 0 {
				if ci2 := boundSide(x.X, x.Hi); ci2 == ci {
					setBound(loByCol, hiByCol, ci, ">=", x.Lo)
					setBound(loByCol, hiByCol, ci, "<=", x.Hi)
				}
			}
		}
	}
	// An index that serves no predicate can still be worth scanning for
	// its order: under a LIMIT the sort unit's early stop then reads
	// K rows (plus filtered-out ones) where a seq scan materialises and
	// sorts the table. Such a scan locks like the seq scan (narrows).
	orderOnly := q.orderable && q.stmt.Limit != nil
	if len(eqByCol) == 0 && len(loByCol) == 0 && len(hiByCol) == 0 && !orderOnly {
		return accessPlan{}
	}
	var best accessPlan
	bestScore := 0
	// Snapshot the index list under the latch: CREATE/DROP INDEX mutate it
	// under the exclusive latch, and queries plan before taking any table
	// lock.
	tbl := q.bindings[i].tbl
	tbl.latch.RLock()
	indexes := make([]*index, len(tbl.indexes))
	copy(indexes, tbl.indexes)
	tbl.latch.RUnlock()
	for _, ix := range indexes {
		var plan accessPlan
		plan.index = ix
		for _, col := range ix.cols {
			e, ok := eqByCol[col]
			if !ok {
				break
			}
			plan.eqExprs = append(plan.eqExprs, e)
		}
		// A range bound on the column right after the equality prefix.
		if len(plan.eqExprs) < len(ix.cols) {
			next := ix.cols[len(plan.eqExprs)]
			if lo, ok := loByCol[next]; ok {
				plan.loExpr, plan.loInc = lo.expr, lo.inc
			}
			if hi, ok := hiByCol[next]; ok {
				plan.hiExpr, plan.hiInc = hi.expr, hi.inc
			}
		}
		// Order-providing scans: when the ORDER BY's leading items name this
		// table's index columns immediately after the equality prefix, all in
		// one direction, the index emits rows in (reverse) ORDER BY order.
		// One direction change is followed too — the first item descending,
		// the rest ascending, the scheduler's priority DESC, id — by walking
		// the first column's values down and each value's entries up; that
		// costs two seeks per value, so it is taken only where a LIMIT lets
		// the order stop the scan, and not under a range bound on that column
		// (the mirror shape, a, b DESC, keeps its one ordered item as well).
		// Considered when this index also serves a predicate (eq prefix or
		// range bound), or when the statement's shape makes order alone worth
		// having; either way order is only a tie-break in the score — it
		// must never beat a more selective index.
		if q.orderable && (plan.narrows() || orderOnly) {
			dir := false
			groupable := q.stmt.Limit != nil && plan.loExpr == nil && plan.hiExpr == nil
		items:
			for oi, item := range q.stmt.OrderBy {
				pos := len(plan.eqExprs) + oi
				if pos >= len(ix.cols) || q.colOn(i, q.order[oi]) != ix.cols[pos] {
					break
				}
				switch {
				case oi == 0:
					dir = item.Desc
				case plan.grouped:
					if item.Desc {
						break items
					}
				case item.Desc == dir:
				case oi == 1 && dir && groupable:
					plan.grouped = true
				default:
					break items
				}
				plan.ordered++
			}
			plan.reverse = plan.ordered > 0 && dir
		}
		score := 4 * len(plan.eqExprs)
		if plan.loExpr != nil {
			score += 2
		}
		if plan.hiExpr != nil {
			score += 2
		}
		if plan.ordered > 0 {
			score++
		}
		if score > bestScore {
			best = plan
			bestScore = score
		}
	}
	if bestScore == 0 {
		return accessPlan{}
	}
	return best
}

func setBound(lo, hi map[int]rangeBound, col int, op string, e Expr) {
	switch op {
	case ">":
		if _, dup := lo[col]; !dup {
			lo[col] = rangeBound{expr: e}
		}
	case ">=":
		if _, dup := lo[col]; !dup {
			lo[col] = rangeBound{expr: e, inc: true}
		}
	case "<":
		if _, dup := hi[col]; !dup {
			hi[col] = rangeBound{expr: e}
		}
	case "<=":
		if _, dup := hi[col]; !dup {
			hi[col] = rangeBound{expr: e, inc: true}
		}
	}
}

// flipOp mirrors a comparison when operands swap sides.
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// scanPlan runs one access path over binding i as a push stage, passing
// each row it keeps to visit in scan order. The scan goes window by window
// (scan.go): each latched window collects candidates, and visit runs on
// them after the latch is released. A visit error ends the scan and is
// returned (errStopScan is how a consumer stops early).
func (q *query) scanPlan(i int, ap accessPlan, visit func(rid int64, row rowImage) error) error {
	op := q.scanFor(i, ap)
	defer op.empty()
	most := maxScanBatch
	if ap.index == nil {
		most = fullScanBatch
	}
	op.window = most
	if q.batchHint > 0 {
		op.window = min(q.batchHint, most)
	}
	var err error
	if ap.index != nil {
		err = op.seek()
	}
	for err == nil && !op.done {
		if ap.index == nil {
			err = op.fullWindow(visit)
		} else {
			err = op.indexWindow(visit)
		}
		op.window = min(2*op.window, most)
	}
	return err
}

func outputName(se SelectExpr, i int) string {
	if se.Alias != "" {
		return se.Alias
	}
	switch e := se.Expr.(type) {
	case *ColRef:
		return strings.ToLower(e.Name)
	case *FuncCall:
		if e.Star {
			return e.Name + "(*)"
		}
		return e.Name
	default:
		return fmt.Sprintf("col%d", i+1)
	}
}

// pick locates a column: column col of the row bound to binding bind, or,
// with bind -1, output col of the output row being finished (an output
// alias in ORDER BY or HAVING).
type pick struct{ bind, col int }

// of reads the pick out of one row per binding. A LEFT JOIN's padded side
// is noRow and reads NULL.
func (p pick) of(refs []rowImage) Value {
	if row := refs[p.bind]; row != noRow {
		return row.col(p.col)
	}
	return Value{}
}

// compilePicks is outs' picks when every one of them is a bare column of
// some binding, nil otherwise.
func (q *query) compilePicks(outs []Expr) []pick {
	picks := make([]pick, len(outs))
	for i, e := range outs {
		cr, ok := e.(*ColRef)
		if !ok {
			return nil
		}
		picks[i] = q.cols[cr.Slot]
	}
	return picks
}

// sortLimit is the one sort / top-K / limit unit, for plain and aggregated
// SELECTs alike. A producer writes each candidate row into the unit's free
// slot — its ORDER BY keys, and either the image of the row bound to each
// binding when it was produced (a result of picks: nothing is copied) or
// its one computed row — and offers it. With a LIMIT the unit keeps
// LIMIT + OFFSET entries in a heap, the slot of a displaced entry becoming
// the next free one; without, it collects. result sorts what was kept,
// ties by arrival — the order is exactly a stable sort of every row — cuts
// OFFSET and LIMIT, and moves the rows into the *Rows. The arenas are the
// scratch's; what they referenced is let go in end.
type sortLimit struct {
	q     *query
	items []OrderItem
	nkey  int
	// width is the row images a slot of a result of picks holds: one per
	// binding.
	width int
	// limit is -1 for none. bound is how many entries are worth keeping,
	// LIMIT + OFFSET, or -1: no LIMIT, or a DISTINCT yet to be applied.
	limit, offset, bound int
	// ordered is how many leading keys rows arrive sorted by (the access
	// path's; 0 when it provides no order): once bound entries are kept, a
	// row that loses on those keys alone ends the scan, and every row does
	// when they are all the keys there are.
	ordered  int
	arrivals int
	free     int
	entries  []sortEntry
	keys     []Value    // nkey per slot
	refs     []rowImage // width per slot of a result of picks
	rows     [][]Value  // one per slot of a computed result
}

// sortEntry is one kept row: its arrival number and its arena slot.
type sortEntry struct{ seq, slot int }

// begin readies the unit for q's statement. LIMIT and OFFSET are evaluated
// here, once, against the parameters alone (the binder let them name no
// column).
func (s *sortLimit) begin(q *query) error {
	s.q, s.items, s.nkey = q, q.stmt.OrderBy, len(q.stmt.OrderBy)
	if q.picks != nil {
		s.width = len(q.bindings)
	}
	s.limit, s.bound = -1, -1 // end left the rest zero
	err := q.evalCount(q.stmt.Limit, "LIMIT", &s.limit)
	if err == nil {
		err = q.evalCount(q.stmt.Offset, "OFFSET", &s.offset)
	}
	if err != nil || s.limit < 0 || q.stmt.Distinct {
		return err
	}
	s.bound = s.limit + s.offset
	if q.orderable {
		s.ordered = q.steps[0].access.ordered
	}
	if len(q.steps) == 1 && (s.ordered > 0 || s.nkey == 0) {
		// The scan is expected to stop at bound rows: size its first window
		// for that (+1 so the boundary row that proves a stop on ties lands
		// in the same window).
		q.batchHint = s.bound + 1
	}
	return nil
}

// evalCount evaluates a LIMIT or OFFSET expression, when there is one,
// into *n.
func (q *query) evalCount(e Expr, name string, n *int) error {
	if e == nil {
		return nil
	}
	v, err := q.env.eval(e)
	if err != nil {
		return err
	}
	if v.Type() != Int || v.Int64() < 0 {
		return fmt.Errorf("sqldb: %s must be a non-negative integer", name)
	}
	*n = int(v.Int64())
	return nil
}

// end lets go of everything the arenas referenced and detaches the unit
// from its statement.
func (s *sortLimit) end() {
	*s = sortLimit{entries: s.entries[:0], keys: reuse(s.keys), refs: reuse(s.refs), rows: reuse(s.rows)}
}

// slot returns the free slot's keys and its row for the producer to fill
// before it calls offer: for a result of picks, the slot's images; else
// its computed row, nil in a fresh slot and, in one a displaced entry
// left, that entry's row: the producer's to overwrite.
func (s *sortLimit) slot() (keys []Value, refs []rowImage, row *[]Value) {
	f := s.free
	s.keys = growTo(s.keys, (f+1)*s.nkey, (s.bound+1)*s.nkey)
	keys = s.keys[f*s.nkey : (f+1)*s.nkey]
	if s.q.picks != nil {
		s.refs = growTo(s.refs, (f+1)*s.width, (s.bound+1)*s.width)
		return keys, s.refs[f*s.width : (f+1)*s.width], nil
	}
	s.rows = growTo(s.rows, f+1, s.bound+1)
	return keys, nil, &s.rows[f]
}

// growTo extends an arena to at least n elements, zero beyond what it held
// (reuse leaves them so). Capacity doubles, but not past most — when
// positive, the most the statement can use — so a LIMIT's arenas end at
// their exact size, which a pooled scratch can keep where a doubling past
// it would be dropped.
func growTo[T any](s []T, n, most int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	c := max(n, 2*cap(s))
	if most > 0 {
		c = max(n, min(c, most))
	}
	return append(make([]T, 0, c), s...)[:n]
}

// compare orders two slots by the ORDER BY keys, reporting the first key
// that tells them apart (nkey on a tie).
func (s *sortLimit) compare(a, b int) (c, at int) {
	ka, kb := s.keys[a*s.nkey:], s.keys[b*s.nkey:]
	for k := range s.items {
		c, err := Compare(ka[k], kb[k])
		if err != nil {
			c = 0
		}
		if s.items[k].Desc {
			c = -c
		}
		if c != 0 {
			return c, k
		}
	}
	return 0, s.nkey
}

// sort.Interface over the kept entries: ORDER BY keys, then arrival.
func (s *sortLimit) Len() int      { return len(s.entries) }
func (s *sortLimit) Swap(i, j int) { s.entries[i], s.entries[j] = s.entries[j], s.entries[i] }
func (s *sortLimit) Less(i, j int) bool {
	c, _ := s.compare(s.entries[i].slot, s.entries[j].slot)
	return c < 0 || c == 0 && s.entries[i].seq < s.entries[j].seq
}

// siftDown restores the heap — the entry sorting last on top — below i.
func (s *sortLimit) siftDown(i int) {
	for n := len(s.entries); ; {
		top := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if s.Less(top, c) {
				top = c
			}
		}
		if top == i {
			return
		}
		s.Swap(i, top)
		i = top
	}
}

// offer decides the fate of the row in the free slot and reports whether
// the producer may stop: no later row can enter the result.
func (s *sortLimit) offer() (stop bool) {
	e := sortEntry{seq: s.arrivals, slot: s.free}
	s.arrivals++
	if n := len(s.entries); s.bound < 0 || n < s.bound {
		s.entries = growTo(s.entries, n+1, s.bound)
		s.entries[n], s.free = e, n+1
		if n+1 != s.bound {
			return false
		}
		if s.ordered == s.nkey {
			return true // rows arrive in order: the first bound of them are the answer
		}
		for i := len(s.entries)/2 - 1; i >= 0; i-- {
			s.siftDown(i)
		}
		return false
	}
	// Full: the row must sort before the last kept one, which a tie — the
	// later arrival — does not.
	last := s.entries[0]
	if c, at := s.compare(e.slot, last.slot); c >= 0 {
		return at < s.ordered
	}
	s.entries[0], s.free = e, last.slot
	s.siftDown(0)
	return false
}

// value is output column col of a kept entry.
func (s *sortLimit) value(e sortEntry, col int) Value {
	if s.q.picks != nil {
		return s.q.picks[col].of(s.refs[e.slot*s.width : (e.slot+1)*s.width])
	}
	return s.rows[e.slot][col]
}

// result sorts the kept entries, applies DISTINCT, OFFSET and LIMIT, and
// hands the rows to r: computed rows as Data, row images as one exact-size
// array cut from the transaction's arena, with the plan's picks to read
// them by. It returns their number.
func (s *sortLimit) result(r *Rows) int {
	if s.nkey > 0 {
		sort.Sort(s)
	}
	if s.q.stmt.Distinct {
		s.dedupe(len(r.Columns))
	}
	out := s.entries[min(s.offset, len(s.entries)):]
	if s.limit >= 0 && s.limit < len(out) {
		out = out[:s.limit]
	}
	if s.q.picks == nil {
		r.Data = make([][]Value, len(out))
		for i, e := range out {
			r.Data[i] = s.rows[e.slot]
		}
		return len(out)
	}
	r.picks, r.width = s.q.picks, s.width
	r.refs = s.q.sc.lendRefs(len(out) * s.width)
	for i, e := range out {
		copy(r.refs[i*s.width:], s.refs[e.slot*s.width:(e.slot+1)*s.width])
	}
	return len(out)
}

// dedupe keeps the first of the entries whose output rows are equal, by
// their equality keys, so DISTINCT agrees with `=` about Int 1 vs Float
// 1.0.
func (s *sortLimit) dedupe(ncol int) {
	seen := make(map[string]bool, len(s.entries))
	kept := s.entries[:0]
	var kb []byte
	for _, e := range s.entries {
		kb = kb[:0]
		for col := 0; col < ncol; col++ {
			kb = appendEqual(kb, s.value(e, col))
		}
		if !seen[string(kb)] {
			seen[string(kb)] = true
			kept = append(kept, e)
		}
	}
	s.entries = kept
}

// runPlain executes a non-aggregated SELECT into the sort unit, one
// offered row per joined row.
func (q *query) runPlain(outs []Expr, sl *sortLimit) error {
	err := q.joinLoop(func() error {
		stop, err := q.offerRow(outs, sl)
		if stop {
			return errStopScan
		}
		return err
	})
	if err == errStopScan {
		err = nil
	}
	return err
}

// offerRow writes the row bound in q.env into the sort unit's free slot
// and offers it, unless HAVING rejects it: for a result of picks each
// bound row's image — images are immutable, so nothing is copied — else
// its outputs, evaluated into a row allocated for the result, which an
// output alias in HAVING or ORDER BY reads; then its ORDER BY keys. It
// reports whether the producer may stop.
func (q *query) offerRow(outs []Expr, sl *sortLimit) (stop bool, err error) {
	keys, refs, row := sl.slot()
	env := q.env
	if q.picks != nil {
		copy(refs, env.rows)
	} else {
		if *row == nil {
			*row = make([]Value, len(outs))
		}
		for i, e := range outs {
			if (*row)[i], err = env.eval(e); err != nil {
				return false, err
			}
		}
		env.aliasRow = *row
		if q.stmt.Having != nil {
			if ok, err := truthy(env.eval(q.stmt.Having)); err != nil || !ok {
				return false, err
			}
		}
	}
	for i, e := range q.order {
		if keys[i], err = env.eval(e); err != nil {
			return false, err
		}
	}
	return sl.offer(), nil
}

// aggState accumulates one aggregate call within one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max Value
	distinct map[string]bool
}

func finishAgg(fc *FuncCall, st *aggState) Value {
	switch fc.Name {
	case "count":
		return NewInt(st.count)
	case "sum":
		if st.count == 0 {
			return NullValue()
		}
		if st.isFloat {
			return NewFloat(st.sumF)
		}
		return NewInt(st.sumI)
	case "avg":
		if st.count == 0 {
			return NullValue()
		}
		return NewFloat(st.sumF / float64(st.count))
	case "min":
		return st.min
	case "max":
		return st.max
	default:
		return NullValue()
	}
}

// --- INSERT / UPDATE / DELETE ---

func (tx *Tx) execInsert(s *InsertStmt, params []Value) (Result, error) {
	if tx.readOnly {
		return Result{}, ErrReadOnly
	}
	sc := tx.scratch()
	stats := &sc.stats
	*stats = StmtStats{Kind: "INSERT", Table: s.Table}
	defer func() { tx.db.emit(*stats) }()
	// Inserts touch only their own fresh rows: intention-exclusive on the
	// table plus an X lock per inserted rid (taken inside tx.insertRow,
	// before the row becomes visible to index scans).
	tbl, err := tx.db.lookupTable(s.Table)
	if err != nil {
		return Result{}, err
	}
	if err := tx.lockTable(tbl, lockIntentExclusive); err != nil {
		return Result{}, err
	}
	ncol := len(tbl.schema.Columns)
	// colIdx maps each VALUES position to its column; with no column list
	// that is the identity.
	colIdx := sc.setIdx[:0]
	if len(s.Columns) == 0 {
		for i := 0; i < ncol; i++ {
			colIdx = append(colIdx, i)
		}
	}
	for _, c := range s.Columns {
		ci := tbl.schema.ColumnIndex(c)
		if ci < 0 {
			return Result{}, fmt.Errorf("sqldb: table %s has no column %s", s.Table, c)
		}
		colIdx = append(colIdx, ci)
	}
	sc.setIdx = colIdx
	autoCol := -1
	for i := range tbl.schema.Columns {
		if tbl.schema.Columns[i].AutoIncrement {
			autoCol = i
		}
	}
	if s.Slots > 0 {
		return Result{}, fmt.Errorf("sqldb: INSERT values cannot name a column")
	}
	sc.env = evalEnv{params: params, now: tx.db.nowFn()}
	env := &sc.env
	check := cancelCheck{ctx: tx.ctx}
	var res Result
	for _, exprRow := range s.Rows {
		if err := check.check(); err != nil {
			return res, err
		}
		if len(exprRow) != len(colIdx) {
			return res, fmt.Errorf("sqldb: INSERT has %d values for %d columns", len(exprRow), len(colIdx))
		}
		// provided[i] is column i's supplied value (has[i] set); buildRow
		// lays them out as the row image the table keeps, leaving the row's
		// values there.
		if cap(sc.provided) < ncol || cap(sc.has) < ncol {
			sc.provided, sc.has = make([]Value, ncol), make([]bool, ncol)
		}
		sc.provided, sc.has = reuse(sc.provided)[:ncol], reuse(sc.has)[:ncol]
		provided, has := sc.provided, sc.has
		for i, e := range exprRow {
			v, err := env.eval(e)
			if err != nil {
				return res, err
			}
			provided[colIdx[i]] = v
			has[colIdx[i]] = true
		}
		row, err := tbl.buildRow(provided, has)
		if err != nil {
			return res, err
		}
		if _, err := tx.insertRow(tbl, row); err != nil {
			return res, err
		}
		if autoCol >= 0 && !provided[autoCol].IsNull() {
			res.LastInsertID = provided[autoCol].Int64()
		}
		res.RowsAffected++
	}
	stats.RowsAffected = int(res.RowsAffected)
	return res, nil
}

// planTarget builds a single-table query context for UPDATE/DELETE WHERE
// handling, sharing the SELECT access-path machinery, then takes the table
// lock the chosen access path calls for: intention-exclusive (with row X
// locks during matchTarget) when an index narrows the statement to
// individual rows, whole-table exclusive for a full scan.
func (tx *Tx) planTarget(kind string, s Statement, tableName string, slot *planSlot, params []Value) (*query, *table, error) {
	q := tx.scratch().beginQuery(tx, params, kind, lockExclusive)
	q.stats.Table = tableName
	plan, _, err := tx.planTargetPlan(s, slot)
	if err != nil {
		return q, nil, err
	}
	q.bind(plan)
	q.stats.UsedIndex = plan.usedIndex
	if err := tx.lockPlan(plan, lockIntentExclusive, lockExclusive); err != nil {
		return q, nil, err
	}
	return q, plan.bindings[0].tbl, nil
}

// lockPlan takes the plan's table-lock footprint, in its order: narrow on
// a table every scan of which an index narrows, whole on the others.
func (tx *Tx) lockPlan(plan *selectPlan, narrow, whole lockMode) error {
	for _, pl := range plan.locks {
		mode := whole
		if pl.indexed {
			mode = narrow
		}
		if err := tx.lockTable(pl.tbl, mode); err != nil {
			return err
		}
	}
	return nil
}

// matchTarget collects row ids matching WHERE into the scratch's rid list
// (materialized up front so mutation does not disturb the scan): the rows
// the plan's one step reads and its conjuncts keep.
func (q *query) matchTarget() ([]int64, error) {
	st := &q.steps[0]
	rids := q.sc.rids[:0]
	err := q.scanPlan(st.bind, st.access, func(rid int64, row rowImage) error {
		q.env.rows[st.bind] = row
		if ok, err := q.evalConjs(st.match); err != nil || !ok {
			return err
		}
		rids = append(rids, rid)
		return nil
	})
	q.sc.rids = rids
	return rids, err
}

func (tx *Tx) execUpdate(s *UpdateStmt, params []Value) (Result, error) {
	if tx.readOnly {
		return Result{}, ErrReadOnly
	}
	q, tbl, err := tx.planTarget("UPDATE", s, s.Table, &s.plan, params)
	stats := q.stats
	defer func() { tx.db.emit(*stats) }()
	if err != nil {
		return Result{}, err
	}
	setIdx := q.sc.setIdx[:0]
	for _, set := range s.Sets {
		ci := tbl.schema.ColumnIndex(set.Column)
		if ci < 0 {
			return Result{}, fmt.Errorf("sqldb: table %s has no column %s", s.Table, set.Column)
		}
		setIdx = append(setIdx, ci)
	}
	q.sc.setIdx = setIdx
	rids, err := q.matchTarget()
	if err != nil {
		return Result{}, err
	}
	// Every SET is evaluated against the old row into vals, a later SET of
	// a column overriding an earlier; the new row is the old one with the
	// SET columns' cells encoded anew and the rest copied (splice).
	ncol := len(tbl.schema.Columns)
	sc := q.sc
	if cap(sc.provided) < ncol {
		sc.provided = make([]Value, ncol)
	}
	sc.provided = reuse(sc.provided)[:ncol]
	vals := sc.provided
	bits := (ncol + 7) / 8
	sc.set = append(sc.set[:0], make([]byte, bits)...)
	for _, c := range setIdx {
		sc.set[c/8] |= 1 << (c % 8)
	}
	var res Result
	for _, rid := range rids {
		if err := q.cancel.check(); err != nil {
			return res, err
		}
		old := tbl.currentRow(rid, tx.id)
		if old == noRow {
			continue
		}
		q.env.rows[0] = old
		for i, set := range s.Sets {
			v, err := q.env.eval(set.Value)
			if err != nil {
				return res, err
			}
			col := &tbl.schema.Columns[setIdx[i]]
			if !v.IsNull() {
				cv, err := coerce(v, col.Type)
				if err != nil {
					return res, fmt.Errorf("sqldb: column %s.%s: %v", s.Table, col.Name, err)
				}
				v = cv
			} else if col.NotNull {
				return res, fmt.Errorf("sqldb: column %s.%s is NOT NULL", s.Table, col.Name)
			}
			vals[setIdx[i]] = v
		}
		sc.set = sc.set[:bits]
		for c := range ncol {
			if bitSet(sc.set, c) {
				sc.set = appendValue(sc.set, vals[c])
			}
		}
		newRow := splice(old, sc.set[:bits], sc.set[bits:])
		if err := tx.updateRow(tbl, rid, newRow); err != nil {
			return res, err
		}
		res.RowsAffected++
	}
	stats.RowsAffected = int(res.RowsAffected)
	return res, nil
}

func (tx *Tx) execDelete(s *DeleteStmt, params []Value) (Result, error) {
	if tx.readOnly {
		return Result{}, ErrReadOnly
	}
	q, tbl, err := tx.planTarget("DELETE", s, s.Table, &s.plan, params)
	stats := q.stats
	defer func() { tx.db.emit(*stats) }()
	if err != nil {
		return Result{}, err
	}
	rids, err := q.matchTarget()
	if err != nil {
		return Result{}, err
	}
	var res Result
	for _, rid := range rids {
		if err := q.cancel.check(); err != nil {
			return res, err
		}
		if err := tx.deleteRow(tbl, rid); err != nil {
			return res, err
		}
		res.RowsAffected++
	}
	stats.RowsAffected = int(res.RowsAffected)
	return res, nil
}
