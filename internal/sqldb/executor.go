package sqldb

// Batched Volcano executor for aggregation. The monitoring tier's hot
// statements — PoolStatus's `SELECT state, count(*) ... GROUP BY state`,
// the website's per-owner accounting rollups — are aggregations over big
// scans, and the paper's premise ("cluster monitoring is just SQL") only
// holds operationally if they run at memory speed. They run through an
// Init()/Next()-style batch operator pipeline (the classic Volcano shape,
// run over row batches instead of single tuples), the only aggregation
// path there is:
//
//   - hashAggOp.Init() is the pipeline breaker: it drains the join/scan
//     pipeline once, accumulating per-group aggregate states keyed by the
//     canonical encoding shared with the hash-join operator
//     (writeHashValue), so GROUP BY agrees with `=` about Int 1 vs
//     Float 1.0.
//   - hashAggOp.Next() streams finished groups out in batches of up to
//     execBatchSize rows, evaluating HAVING, the projection, and ORDER BY
//     keys per group with cooperative cancellation checkpoints, writing
//     output values into one arena allocation per batch.
//
// Group state is lean: aggregate accumulators live in one []aggState
// slice indexed by the statement's deduplicated aggregate calls, and the
// group's representative row is one row image per binding, the very
// string the version store holds (images are immutable, so no copy is
// needed — see scanOp.nextFull).
//
// Spill-free fast paths cover the shapes the CAS actually runs: a single
// TEXT or INTEGER grouping column keys groups directly by the column's
// cell or value (no key encoding), a global aggregate keeps a single group,
// and bare-column aggregate arguments read the row by column index
// instead of walking the expression evaluator.

import (
	"bytes"
	"fmt"
	"strings"
)

// execBatchSize is how many rows one output batch of the executor
// pipeline carries.
const execBatchSize = 256

// smallGroupMax bounds the linear small-table phase of the TEXT keyed
// fast path before it migrates to a hash map.
const smallGroupMax = 16

// rowBatch is one unit of the aggregation operator's output: projected
// output rows plus their ORDER BY keys (nil when the statement has no
// ORDER BY). The scans under it deliver stored rows instead (scanBatch).
type rowBatch struct {
	rows [][]Value
	keys [][]Value
}

// ExecStats snapshots the batched executor's counters.
type ExecStats struct {
	// AggQueries counts aggregated SELECTs executed by the batched
	// hash-aggregation operator.
	AggQueries uint64
	// AggFastPaths counts those queries that ran a spill-free keyed fast
	// path (single TEXT/INTEGER grouping column, or a global aggregate).
	AggFastPaths uint64
	// AggInputRows counts rows consumed by the aggregation build phase.
	AggInputRows uint64
	// AggGroups counts groups materialized in the hash table.
	AggGroups uint64
	// AggOutputBatches counts finished-group output batches emitted.
	AggOutputBatches uint64
}

// ExecStats snapshots the batched executor's counters.
func (db *DB) ExecStats() ExecStats {
	return ExecStats{
		AggQueries:       db.execAggQueries.Load(),
		AggFastPaths:     db.execAggFastPath.Load(),
		AggInputRows:     db.execAggInputRows.Load(),
		AggGroups:        db.execAggGroups.Load(),
		AggOutputBatches: db.execAggBatches.Load(),
	}
}

// testHookAggAssembly, when set, runs once after the aggregation build
// phase finishes and before group assembly starts. The cancellation suite
// uses it to land a context cancellation deterministically between the
// scan and the HAVING/projection loop.
var testHookAggAssembly func()

// aggGroup is one group's accumulated state: aggregate accumulators
// indexed by the statement's deduplicated aggregate calls, plus one
// representative row reference per binding (the group's first input row)
// for evaluating grouped column references at finish time.
type aggGroup struct {
	aggs []aggState
	rep  []rowImage
}

// aggOp is a compiled aggregate operation code.
type aggOp uint8

const (
	aggOpCount aggOp = iota
	aggOpSum
	aggOpAvg
	aggOpMin
	aggOpMax
)

// aggOpOf resolves an aggregate function name (already validated by
// isAggregate) to its opcode.
func aggOpOf(name string) aggOp {
	switch name {
	case "sum":
		return aggOpSum
	case "avg":
		return aggOpAvg
	case "min":
		return aggOpMin
	case "max":
		return aggOpMax
	default:
		return aggOpCount
	}
}

// aggInstr is one compiled accumulation step.
type aggInstr struct {
	op       aggOp
	star     bool
	distinct bool
	// bind/col locate a bare column-reference argument; bind = -1 means
	// the argument needs the full expression evaluator.
	bind, col int
	fc        *FuncCall
}

// collectAggCalls gathers the distinct aggregate calls across the output
// list, HAVING, and ORDER BY, in first-appearance order.
func (q *query) collectAggCalls(outs []Expr) []*FuncCall {
	var calls []*FuncCall
	seen := make(map[*FuncCall]bool)
	collect := func(e Expr) {
		walkExpr(e, func(x Expr) {
			if fc, ok := x.(*FuncCall); ok && isAggregate(fc) && !seen[fc] {
				seen[fc] = true
				calls = append(calls, fc)
			}
		})
	}
	for _, e := range outs {
		collect(e)
	}
	collect(q.stmt.Having)
	for _, o := range q.stmt.OrderBy {
		collect(o.Expr)
	}
	return calls
}

// outputAliasIdx maps output aliases (lowercased) to output positions so
// HAVING can reference them (`count(*) AS n ... HAVING n >= 2`). Star
// items shift positions unpredictably, so alias resolution is disabled
// when the SELECT list contains one.
func (q *query) outputAliasIdx() map[string]int {
	var m map[string]int
	for i, se := range q.stmt.Exprs {
		if se.Star {
			return nil
		}
		if se.Alias != "" {
			if m == nil {
				m = make(map[string]int, len(q.stmt.Exprs))
			}
			m[strings.ToLower(se.Alias)] = i
		}
	}
	return m
}

// aggPlan is the compiled, shareable half of the batched hash GROUP BY
// operator: the deduplicated aggregate calls, the opcode program, the
// group-keying shape, and the finish-phase ORDER BY/alias resolution.
// Everything here is immutable after compileAgg returns — cached plans
// share one aggPlan across concurrent executions (the maps are read-only
// after compile); per-execution hash tables and buffers live on
// hashAggOp.
type aggPlan struct {
	aggCalls []*FuncCall
	// instrs is the compiled accumulation program: one instruction per
	// aggregate call, with the call's name resolved to an opcode and a
	// bare column-reference argument resolved to a binding/column pair, so
	// the per-row loop never touches strings or the expression evaluator
	// on the fast shapes.
	instrs []aggInstr

	// Group keying. Exactly one of the three shapes is active: global (no
	// GROUP BY, one group), fast (a single bare TEXT/INTEGER grouping
	// column keyed by its value), or generic (canonical writeHashValue
	// encoding of all GROUP BY expressions).
	global   bool
	fastBind int // -1 = generic path
	fastCol  int
	fastText bool
	onlyStar bool // the only aggregate is COUNT(*)

	// Finish phase.
	orderExprs []Expr
	aliasPos   []int
	aliasIdx   map[string]int    // read-only after compile
	aggIdx     map[*FuncCall]int // read-only after compile
}

// compileAgg builds the aggregation program for outs. Runs at plan time
// (buildSelectPlan); q is the throwaway planning query.
func (q *query) compileAgg(outs []Expr) (*aggPlan, error) {
	ap := &aggPlan{fastBind: -1}
	ap.aggCalls = q.collectAggCalls(outs)
	ap.instrs = make([]aggInstr, len(ap.aggCalls))
	for i, fc := range ap.aggCalls {
		in := &ap.instrs[i]
		in.op, in.star, in.distinct, in.bind, in.fc = aggOpOf(fc.Name), fc.Star, fc.Distinct, -1, fc
		if fc.Star {
			continue
		}
		if len(fc.Args) != 1 {
			return nil, fmt.Errorf("sqldb: %s expects one argument", strings.ToUpper(fc.Name))
		}
		if cr, ok := fc.Args[0].(*ColRef); ok {
			if pos, err := q.bindingPos(cr); err == nil {
				if ci := q.bindings[pos].tbl.schema.ColumnIndex(strings.ToLower(cr.Name)); ci >= 0 {
					in.bind, in.col = pos, ci
				}
			}
		}
	}

	switch {
	case len(q.stmt.GroupBy) == 0:
		ap.global = true
	case len(q.stmt.GroupBy) == 1:
		if cr, ok := q.stmt.GroupBy[0].(*ColRef); ok {
			if pos, err := q.bindingPos(cr); err == nil {
				schema := &q.bindings[pos].tbl.schema
				if ci := schema.ColumnIndex(strings.ToLower(cr.Name)); ci >= 0 {
					switch schema.Columns[ci].Type {
					case Text:
						ap.fastBind, ap.fastCol, ap.fastText = pos, ci, true
					case Int:
						ap.fastBind, ap.fastCol = pos, ci
					}
				}
			}
		}
	}
	ap.onlyStar = len(ap.instrs) == 1 && ap.instrs[0].star

	ap.orderExprs, ap.aliasPos = q.orderKeys(outs)
	ap.aliasIdx = q.outputAliasIdx()
	ap.aggIdx = make(map[*FuncCall]int, len(ap.aggCalls))
	for i, fc := range ap.aggCalls {
		ap.aggIdx[fc] = i
	}
	return ap, nil
}

// hashAggOp is the batched hash GROUP BY operator: the per-execution
// state driving one aggPlan. The embedded plan may be shared with
// concurrent executions of the same cached statement and is never
// written here.
type hashAggOp struct {
	q    *query
	outs []Expr
	*aggPlan

	// The TEXT fast path keys a group by the column's cell in the row image
	// (one cell per value, so nothing is decoded) and starts with a linear
	// small table (the pool-status shape has a handful of states, and a few
	// string compares beat a map hash), migrating to the map when it
	// outgrows smallGroupMax.
	smallKeys  []string
	smallVals  []*aggGroup
	textGroups map[string]*aggGroup
	intGroups  map[int64]*aggGroup
	nullGroup  *aggGroup // fast-path group for a NULL grouping value
	groups     map[string]*aggGroup
	single     *aggGroup   // the global aggregate's one group
	order      []*aggGroup // first-appearance order
	keyBuf     bytes.Buffer

	// Finish phase.
	having  Expr
	genv    *evalEnv
	scratch []binding
	pos     int
}

// newHashAggOp prepares the operator for one execution: it reuses the
// statement's compiled aggregation program (falling back to a fresh
// compile when the caller has none) and builds the execution-private
// group tables and group-scope evaluation environment.
func newHashAggOp(q *query, outs []Expr) (*hashAggOp, error) {
	ap := q.agg
	if ap == nil {
		var err error
		if ap, err = q.compileAgg(outs); err != nil {
			return nil, err
		}
	}
	op := &hashAggOp{q: q, outs: outs, aggPlan: ap, having: q.stmt.Having}
	if ap.fastBind >= 0 && !ap.fastText {
		op.intGroups = make(map[int64]*aggGroup)
	}
	if !ap.global && ap.fastBind < 0 {
		op.groups = make(map[string]*aggGroup)
	}
	op.scratch = make([]binding, len(q.env.bindings))
	copy(op.scratch, q.env.bindings)
	op.genv = &evalEnv{
		bindings: op.scratch,
		params:   q.params,
		now:      q.env.now,
		aliasIdx: ap.aliasIdx,
		aggIdx:   ap.aggIdx,
		aggVals:  make([]Value, len(ap.aggCalls)),
	}
	return op, nil
}

// newGroup materializes one group: a slice of aggregate accumulators plus
// the current row's image per binding. Images are immutable, so holding
// them is safe and no row is copied.
func (op *hashAggOp) newGroup() *aggGroup {
	g := &aggGroup{aggs: make([]aggState, len(op.aggCalls)), rep: make([]rowImage, len(op.scratch))}
	for i := range op.q.env.bindings {
		g.rep[i] = op.q.env.bindings[i].row
	}
	op.order = append(op.order, g)
	return g
}

// lookupGroupGeneric keys the row currently bound in q.env with the
// canonical encoding shared with the hash-join operator, so grouping
// agrees with `=` across Int/Float. NULLs keep their tag byte and form
// their own group (unlike join keys, which never match on NULL).
func (op *hashAggOp) lookupGroupGeneric() (*aggGroup, error) {
	op.keyBuf.Reset()
	for _, ge := range op.q.stmt.GroupBy {
		v, err := op.q.env.eval(ge)
		if err != nil {
			return nil, err
		}
		writeHashValue(&op.keyBuf, v)
	}
	if g, ok := op.groups[string(op.keyBuf.Bytes())]; ok {
		return g, nil
	}
	g := op.newGroup()
	op.groups[op.keyBuf.String()] = g
	return g, nil
}

// accumRow folds the row currently bound in q.env into its group. The
// group lookup fast paths and the compiled instruction loop are inlined
// here because this runs once per input row.
func (op *hashAggOp) accumRow() error {
	op.q.aggInputRows++
	env := op.q.env

	var g *aggGroup
	switch {
	case op.global:
		if op.single == nil {
			op.single = op.newGroup()
		}
		g = op.single
	case op.fastBind >= 0:
		var c string // the grouping column's cell
		if row := env.bindings[op.fastBind].row; row != noRow {
			c = row.cell(op.fastCol)
		}
		if c == "" || c[0] == byte(Null) {
			if op.nullGroup == nil {
				op.nullGroup = op.newGroup()
			}
			g = op.nullGroup
		} else if op.fastText {
			k := c
			if op.textGroups == nil {
				for j, key := range op.smallKeys {
					if key == k {
						g = op.smallVals[j]
						break
					}
				}
				if g == nil {
					g = op.newGroup()
					if len(op.smallKeys) < smallGroupMax {
						op.smallKeys = append(op.smallKeys, k)
						op.smallVals = append(op.smallVals, g)
					} else {
						op.textGroups = make(map[string]*aggGroup, 2*smallGroupMax)
						for j := range op.smallKeys {
							op.textGroups[op.smallKeys[j]] = op.smallVals[j]
						}
						op.textGroups[k] = g
					}
				}
			} else if g = op.textGroups[k]; g == nil {
				g = op.newGroup()
				op.textGroups[k] = g
			}
		} else {
			k := cellValue(c).i
			if g = op.intGroups[k]; g == nil {
				g = op.newGroup()
				op.intGroups[k] = g
			}
		}
	default:
		var err error
		if g, err = op.lookupGroupGeneric(); err != nil {
			return err
		}
	}

	if op.onlyStar {
		g.aggs[0].count++
		return nil
	}
	for i := range op.instrs {
		in := &op.instrs[i]
		st := &g.aggs[i]
		if in.star {
			st.count++
			continue
		}
		var v Value
		if in.bind >= 0 {
			if row := env.bindings[in.bind].row; row != noRow {
				v = row.col(in.col)
			}
		} else {
			var err error
			if v, err = env.eval(in.fc.Args[0]); err != nil {
				return err
			}
		}
		if v.typ == Null {
			continue // aggregates ignore NULL inputs
		}
		if in.distinct {
			if st.distinct == nil {
				st.distinct = make(map[string]bool)
			}
			op.keyBuf.Reset()
			writeHashValue(&op.keyBuf, v)
			if st.distinct[string(op.keyBuf.Bytes())] {
				continue
			}
			st.distinct[op.keyBuf.String()] = true
		}
		st.count++
		switch in.op {
		case aggOpSum, aggOpAvg:
			switch v.typ {
			case Int:
				st.sumI += v.i
				st.sumF += float64(v.i)
			case Float:
				st.isFloat = true
				st.sumF += v.float()
			default:
				return fmt.Errorf("sqldb: %s requires numeric input", strings.ToUpper(in.fc.Name))
			}
		case aggOpMin:
			if st.min.typ == Null {
				st.min = v
			} else {
				c, err := Compare(v, st.min)
				if err != nil {
					return err
				}
				if c < 0 {
					st.min = v
				}
			}
		case aggOpMax:
			if st.max.typ == Null {
				st.max = v
			} else {
				c, err := Compare(v, st.max)
				if err != nil {
					return err
				}
				if c > 0 {
					st.max = v
				}
			}
		}
	}
	return nil
}

// Init is the pipeline breaker: it drains the scan/join pipeline into the
// group hash table.
func (op *hashAggOp) Init() error {
	q := op.q
	q.aggQueries++
	if op.global || op.fastBind >= 0 {
		q.aggFastPath++
	}
	err := q.joinLoop(op.accumRow)
	if err != nil {
		return err
	}
	// Global aggregation over zero rows still yields one row (count(*)=0,
	// sum/avg/min/max NULL) over an all-NULL-padded environment.
	if op.global && op.single == nil {
		g := &aggGroup{aggs: make([]aggState, len(op.aggCalls)), rep: make([]rowImage, len(op.scratch))}
		op.order = append(op.order, g)
		op.single = g
	}
	q.aggGroups += uint64(len(op.order))
	if h := testHookAggAssembly; h != nil {
		h()
	}
	return nil
}

// Next assembles up to execBatchSize finished groups: aggregate results,
// HAVING, projection, and ORDER BY keys, with a cooperative cancellation
// checkpoint per group. Output values for the whole batch share one arena
// allocation. Returns nil when all groups are consumed; a returned batch
// may be empty when HAVING filtered every group in it.
func (op *hashAggOp) Next() (*rowBatch, error) {
	if op.pos >= len(op.order) {
		return nil, nil
	}
	nOut := len(op.outs)
	nKey := len(op.orderExprs)
	n := len(op.order) - op.pos
	if n > execBatchSize {
		n = execBatchSize
	}
	outArena := make([]Value, n*nOut)
	var keyArena []Value
	if nKey > 0 {
		keyArena = make([]Value, n*nKey)
	}
	b := &rowBatch{rows: make([][]Value, 0, n)}
	if nKey > 0 {
		b.keys = make([][]Value, 0, n)
	}
	for bi := 0; bi < n; bi++ {
		g := op.order[op.pos]
		op.pos++
		if err := op.q.cancel.check(); err != nil {
			return nil, err
		}
		for i := range op.scratch {
			op.scratch[i].row = g.rep[i]
		}
		for i, fc := range op.aggCalls {
			op.genv.aggVals[i] = finishAgg(fc, &g.aggs[i])
		}
		out := outArena[bi*nOut : (bi+1)*nOut : (bi+1)*nOut]
		for i, e := range op.outs {
			v, err := op.genv.eval(e)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		if op.having != nil {
			op.genv.aliasRow = out
			ok, err := truthy(op.genv.eval(op.having))
			op.genv.aliasRow = nil
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		b.rows = append(b.rows, out)
		if nKey > 0 {
			keys := keyArena[bi*nKey : (bi+1)*nKey : (bi+1)*nKey]
			for i, e := range op.orderExprs {
				if op.aliasPos[i] >= 0 {
					keys[i] = out[op.aliasPos[i]]
					continue
				}
				v, err := op.genv.eval(e)
				if err != nil {
					return nil, err
				}
				keys[i] = v
			}
			b.keys = append(b.keys, keys)
		}
	}
	op.q.aggBatches++
	return b, nil
}

// Close releases the operator's hash tables.
func (op *hashAggOp) Close() {
	op.groups = nil
	op.textGroups = nil
	op.intGroups = nil
	op.smallKeys = nil
	op.smallVals = nil
	op.order = nil
}
