package sqldb

// Aggregation. The monitoring tier's hot statements — PoolStatus's
// `SELECT state, count(*) ... GROUP BY state`, the website's per-owner
// accounting rollups — are aggregations over big scans, and the paper's
// premise ("cluster monitoring is just SQL") only holds operationally if
// they run at memory speed. They run as one push stage, like every other:
//
//   - runAggregate folds each row joinLoop emits into its group. A group
//     is keyed by the equality key the hash join uses (equalKey), so
//     GROUP BY agrees with `=` about Int 1 vs Float 1.0, and NULLs form
//     one group. A key that is one cell is the cell itself, read in place.
//   - The groups are one list in first-appearance order, each carrying its
//     key, searched linearly up to smallGroupMax groups and through a map
//     past that: the pool-status shape has a handful of states, and a few
//     string compares beat a map hash.
//   - Once the input is exhausted, each group is finished — aggregates,
//     HAVING, projection, ORDER BY keys — straight into the sort unit
//     (offerRow), with a cancellation checkpoint per group.
//
// Group state is lean: aggregate accumulators live in one []aggState
// slice indexed by the statement's deduplicated aggregate calls, and the
// group's representative row is one row image per binding, the very
// string the version store holds (images are immutable, so no copy is
// needed).

import (
	"fmt"
	"strings"
)

// smallGroupMax bounds the linear phase of the group list's lookup before
// it builds a map.
const smallGroupMax = 16

// ExecStats snapshots the aggregation counters.
type ExecStats struct {
	// AggQueries counts aggregated SELECTs executed.
	AggQueries uint64
	// AggFastPaths counts those whose every group key part is a cell, read
	// as stored with nothing evaluated; a global aggregate has none.
	AggFastPaths uint64
	// AggInputRows counts rows folded into groups.
	AggInputRows uint64
	// AggGroups counts groups materialized.
	AggGroups uint64
}

// ExecStats snapshots the aggregation counters.
func (db *DB) ExecStats() ExecStats {
	return ExecStats{
		AggQueries:   db.execAggQueries.Load(),
		AggFastPaths: db.execAggFastPath.Load(),
		AggInputRows: db.execAggInputRows.Load(),
		AggGroups:    db.execAggGroups.Load(),
	}
}

// testHookAggAssembly, when set, runs once after the last row is folded
// and before the first group is finished. The cancellation suite uses it
// to land a context cancellation deterministically between the scan and
// the HAVING/projection loop.
var testHookAggAssembly func()

// aggGroup is one group's accumulated state: its key, aggregate
// accumulators indexed by the statement's deduplicated aggregate calls,
// plus one representative row reference per binding (the group's first
// input row) for evaluating grouped column references at finish time.
type aggGroup struct {
	key  string
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
	fc       *FuncCall
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

// aggPlan is the compiled, shareable half of aggregation: the
// deduplicated aggregate calls, the opcode program and the group key.
// Everything here is immutable after compileAgg returns — cached plans
// share one aggPlan across concurrent executions (the map is read-only
// after compile); the groups of one execution live in runAggregate.
type aggPlan struct {
	aggCalls []*FuncCall
	// instrs is the compiled accumulation program: one instruction per
	// aggregate call, with the call's name resolved to an opcode, so the
	// per-row loop never touches strings.
	instrs []aggInstr
	// keys is the group key, one part per GROUP BY item; none for a
	// global aggregate, whose one group has the empty key.
	keys     []keyPart
	onlyStar bool              // the only aggregate is COUNT(*)
	aggIdx   map[*FuncCall]int // read-only after compile
}

// compileAgg builds the aggregation program for outs. Runs at plan time
// (buildSelectPlan); q is the throwaway planning query.
func (q *query) compileAgg(outs []Expr) (*aggPlan, error) {
	ap := &aggPlan{aggCalls: q.collectAggCalls(outs)}
	ap.instrs = make([]aggInstr, len(ap.aggCalls))
	for i, fc := range ap.aggCalls {
		in := &ap.instrs[i]
		in.op, in.star, in.distinct, in.fc = aggOpOf(fc.Name), fc.Star, fc.Distinct, fc
		if !fc.Star && len(fc.Args) != 1 {
			return nil, fmt.Errorf("sqldb: %s expects one argument", strings.ToUpper(fc.Name))
		}
	}
	for _, e := range q.stmt.GroupBy {
		ap.keys = append(ap.keys, q.keyPart(e))
	}
	ap.onlyStar = len(ap.instrs) == 1 && ap.instrs[0].star
	ap.aggIdx = make(map[*FuncCall]int, len(ap.aggCalls))
	for i, fc := range ap.aggCalls {
		ap.aggIdx[fc] = i
	}
	return ap, nil
}

// groupList is one execution's groups in first-appearance order, found by
// key: linearly while there are at most smallGroupMax, then through index.
type groupList struct {
	list  []*aggGroup
	index map[string]*aggGroup
}

// find is the group keyed key, or nil.
func (gl *groupList) find(key string) *aggGroup {
	if gl.index != nil {
		return gl.index[key]
	}
	for _, g := range gl.list {
		if g.key == key {
			return g
		}
	}
	return nil
}

// add appends a new group: key, one accumulator per aggregate call, and
// the image of the row bound to each binding in q.env. Images are
// immutable, so holding them is safe and no row is copied.
func (gl *groupList) add(q *query, key string) *aggGroup {
	g := &aggGroup{key: key, aggs: make([]aggState, len(q.agg.aggCalls)), rep: append([]rowImage(nil), q.env.rows...)}
	gl.list = append(gl.list, g)
	switch {
	case gl.index != nil:
		gl.index[key] = g
	case len(gl.list) > smallGroupMax:
		gl.index = make(map[string]*aggGroup, 2*len(gl.list))
		for _, h := range gl.list {
			gl.index[h.key] = h
		}
	}
	return g
}

// runAggregate executes a grouped / aggregated SELECT as one push stage:
// it folds every joined row into its group, then finishes each group into
// the sort unit.
func (q *query) runAggregate(outs []Expr, sl *sortLimit) error {
	ap := q.agg
	q.aggQueries++
	if cellsOnly(ap.keys) {
		q.aggFastPath++
	}
	var groups groupList
	err := q.joinLoop(func() error {
		q.aggInputRows++
		key, _, err := q.equalKey(ap.keys, false)
		if err != nil {
			return err
		}
		g := groups.find(key)
		if g == nil {
			g = groups.add(q, holdKey(ap.keys, key))
		}
		return q.fold(ap, g)
	})
	if err != nil {
		return err
	}
	// Global aggregation over zero rows still yields one row (count(*)=0,
	// sum/avg/min/max NULL) over an all-NULL-padded environment.
	if len(groups.list) == 0 && len(ap.keys) == 0 {
		clear(q.env.rows)
		groups.add(q, "")
	}
	q.aggGroups += uint64(len(groups.list))
	if h := testHookAggAssembly; h != nil {
		h()
	}

	env := q.env
	env.aggIdx, env.aggVals = ap.aggIdx, make([]Value, len(ap.aggCalls))
	for _, g := range groups.list {
		if err := q.cancel.check(); err != nil {
			return err
		}
		copy(env.rows, g.rep)
		for i, fc := range ap.aggCalls {
			env.aggVals[i] = finishAgg(fc, &g.aggs[i])
		}
		if stop, err := q.offerRow(outs, sl); err != nil || stop {
			return err
		}
	}
	return nil
}

// fold accumulates the row bound in q.env into g. It runs once per input
// row; an argument that is a bare column is read through its pick, like
// any column reference.
func (q *query) fold(ap *aggPlan, g *aggGroup) error {
	if ap.onlyStar {
		g.aggs[0].count++
		return nil
	}
	env := q.env
	for i := range ap.instrs {
		in := &ap.instrs[i]
		st := &g.aggs[i]
		if in.star {
			st.count++
			continue
		}
		v, err := env.eval(in.fc.Args[0])
		if err != nil {
			return err
		}
		if v.typ == Null {
			continue // aggregates ignore NULL inputs
		}
		if in.distinct {
			if st.distinct == nil {
				st.distinct = make(map[string]bool)
			}
			q.sc.eqKey = appendEqual(q.sc.eqKey[:0], v)
			if st.distinct[string(q.sc.eqKey)] {
				continue
			}
			st.distinct[string(q.sc.eqKey)] = true
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
