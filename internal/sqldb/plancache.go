package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Plan cache for parameterized statements.
//
// The CAS executes a handful of statement shapes — heartbeat upserts,
// pool-status joins, accounting aggregates — millions of times with only
// the parameters changing. Parsing has been cached since the statement
// cache landed (db.go); this file caches the other half: the compiled
// plan. A selectPlan carries everything planning produces (conjunct
// assignment, join order, per-table access paths, the opcode-compiled
// aggregation program) and nothing execution mutates; per-execution state
// (parameter values, snapshot timestamp, cursors, hash tables, counters)
// lives on query, so one plan serves any number of concurrent executions.
//
// Keying is by SQL text, transitively: the statement cache interns one
// AST per SQL string, and the plan hangs off that AST in an atomic slot
// (planSlot). The hot path is therefore one pointer load plus a few
// epoch comparisons — no map, no mutex, no allocation — and an evicted
// statement takes its plan with it.
//
// Invalidation is epoch-based. Every table carries a schemaEpoch (bumped
// by CREATE/DROP INDEX and DROP TABLE, on the leader, on followers
// applying shipped WAL, and during recovery replay — all paths funnel
// through applyDDL and the table methods) and a statsEpoch (bumped by
// checkPlan when a table's live row count drifts past the replan threshold
// from the count a plan was costed at). A plan records both epochs per
// referenced table at build time; any movement fails validation and the
// statement replans.
// Nothing else goes into a plan: not the reader's snapshot (an index
// serves every snapshot from the moment it exists, addIndexLocked) and
// not its read mode (an access path locks by what it reads, narrows), so
// every execution of a statement may share one plan.

// planSlot is the atomic plan anchor embedded in the planned statement
// ASTs (SelectStmt, UpdateStmt, DeleteStmt). The zero value is ready to
// use. It is deliberately opaque: readers go through planSelect /
// planTargetPlan, which validate before sharing.
type planSlot struct {
	p atomic.Pointer[selectPlan]
}

// PlanCacheStats is a point-in-time snapshot of the plan-cache counters.
type PlanCacheStats struct {
	// Hits counts executions served by a validated cached plan.
	Hits uint64
	// Misses counts executions that compiled a plan: the first touch of a
	// statement and every replan after an invalidation.
	Misses uint64
	// Invalidations counts cached plans discarded by validation: a
	// schema or stats epoch moved, or live cardinality drifted past the
	// replan threshold.
	Invalidations uint64
	// Stores counts plans published into statement slots.
	Stores uint64
}

// PlanCacheStats snapshots the plan-cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          db.planHits.Load(),
		Misses:        db.planMisses.Load(),
		Invalidations: db.planInvalidations.Load(),
		Stores:        db.planStores.Load(),
	}
}

// planStamp is one table's validity record inside a cached plan: the
// epochs and live cardinality observed when the plan was compiled.
type planStamp struct {
	tbl         *table
	schemaEpoch uint64
	statsEpoch  uint64
	// planRows is the live row count the plan was costed at. Validation
	// declares the plan stale when the current count leaves
	// [planRows/2, 2*planRows]: past that window the row and distinct-key
	// estimates (stats.go) the plan chose by are off by more than a factor
	// of two.
	planRows int64
}

// selectPlan is the immutable compiled form of one SELECT (or the
// synthesized single-table SELECT underneath an UPDATE/DELETE target).
// Everything here is written during buildSelectPlan and never after:
// cached instances are shared across goroutines with no further
// synchronization beyond the slot's atomic load.
type selectPlan struct {
	stmt     *SelectStmt
	bindings []tableBinding
	// steps is the plan (join.go): one step per binding in the chosen
	// execution order, each with its access path, strategy and predicates;
	// none for a SELECT without FROM. Per-step hash tables live on
	// query.hjs, not here.
	steps []stepPlan
	// cols is the slot table the binder (bindNames) fills: what each
	// column reference of the statement — and each a star expands into —
	// reads, at its ColRef.Slot. Nothing after planning reads a name.
	cols []pick
	// orderable marks a single-table, non-aggregated, non-DISTINCT
	// SELECT whose ORDER BY the access path may (partially) provide.
	orderable bool
	// outs/names are the star-expanded output expressions and their
	// column names; aggregated marks GROUP BY/HAVING/aggregate SELECTs
	// and agg carries their compiled aggregation program (executor.go).
	// picks is set when every output of a non-aggregated SELECT is a bare
	// column: where each is read from, one (binding, column) per output.
	// The result is then the images of the rows read, not computed rows.
	outs       []Expr
	names      []string
	picks      []pick
	aggregated bool
	agg        *aggPlan
	// order is the ORDER BY keys, an ordinal replaced by its output.
	order []Expr
	// usedIndex mirrors into StmtStats.UsedIndex per execution.
	usedIndex bool
	// locks is the statement's table-lock footprint: one entry per
	// distinct table, sorted by id so every transaction acquires in the
	// same order. The mode follows from the entry and the statement kind
	// at execution (IS/S for a read, IX/X for an UPDATE/DELETE target).
	locks []planLock

	// Cache-validation state.
	db     *DB
	stamps []planStamp
}

// planLock is one table of a plan's lock footprint. indexed says every
// scan of the table in this plan reads a narrowed part of an index, so an
// intention lock on the table plus row locks suffice; one full scan of it,
// in slot or index order, and the whole-table mode is needed.
type planLock struct {
	tbl     *table
	indexed bool
}

// lockFootprint merges the plan's steps into its sorted table-lock
// footprint. Runs once per compiled plan, after access paths are chosen.
func (p *selectPlan) lockFootprint() []planLock {
	locks := make([]planLock, 0, len(p.steps))
steps:
	for i := range p.steps {
		st := &p.steps[i]
		tbl := p.bindings[st.bind].tbl
		indexed := st.access.narrows()
		for j := range locks {
			if locks[j].tbl == tbl {
				locks[j].indexed = locks[j].indexed && indexed
				continue steps
			}
		}
		locks = append(locks, planLock{tbl: tbl, indexed: indexed})
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i].tbl.tableID < locks[j].tbl.tableID })
	return locks
}

// checkPlan reports whether a cached plan is still valid, without locks: a
// handful of atomic loads against the epochs and cardinalities recorded at
// build time.
func (db *DB) checkPlan(p *selectPlan) bool {
	if p.db != db {
		return false // AST shared across engines (tests); never the hot path
	}
	for i := range p.stamps {
		st := &p.stamps[i]
		if st.tbl.schemaEpoch.Load() != st.schemaEpoch {
			return false
		}
		se := st.tbl.statsEpoch.Load()
		if se != st.statsEpoch {
			return false
		}
		if live := st.tbl.liveRows.Load(); live > 2*st.planRows || live < st.planRows/2 {
			// Cardinality drifted past the replan threshold. Advance the
			// table's stats epoch (CAS so racing validators bump once) so
			// every plan costed at the old cardinality re-costs, then
			// replan this one now.
			st.tbl.statsEpoch.CompareAndSwap(se, se+1)
			return false
		}
	}
	return true
}

// planSelect returns the compiled plan for s, serving it from the
// statement's plan slot when the cached plan validates. The bool result
// reports a cache hit (EXPLAIN renders it as [CACHED]).
func (tx *Tx) planSelect(s *SelectStmt) (*selectPlan, bool, error) {
	if p := tx.db.cachedPlan(&s.plan); p != nil {
		return p, true, nil
	}
	return tx.storePlan(&s.plan, s)
}

// planTargetPlan is planSelect for an UPDATE or DELETE target: the slot
// lives on the DML statement, and the plan compiles the single-table
// SELECT targetSelect synthesizes.
func (tx *Tx) planTargetPlan(s Statement, slot *planSlot) (*selectPlan, bool, error) {
	if p := tx.db.cachedPlan(slot); p != nil {
		return p, true, nil
	}
	return tx.storePlan(slot, targetSelect(s))
}

// targetSelect is the SELECT an UPDATE or DELETE target plans as: its
// table and WHERE, and an UPDATE's SET values as the outputs, so that the
// binder resolves every name the statement holds.
func targetSelect(s Statement) *SelectStmt {
	switch s := s.(type) {
	case *UpdateStmt:
		sel := &SelectStmt{From: []TableRef{{Table: s.Table, Alias: s.Table}}, Where: s.Where, Slots: s.Slots}
		for _, set := range s.Sets {
			sel.Exprs = append(sel.Exprs, SelectExpr{Expr: set.Value})
		}
		return sel
	case *DeleteStmt:
		return &SelectStmt{From: []TableRef{{Table: s.Table, Alias: s.Table}}, Where: s.Where, Slots: s.Slots}
	}
	panic(fmt.Sprintf("sqldb: %T has no target", s))
}

// cachedPlan is the one slot lookup: the slot's plan when it validates,
// else nil, after dropping the stale plan it found.
func (db *DB) cachedPlan(slot *planSlot) *selectPlan {
	p := slot.p.Load()
	if p == nil {
		return nil
	}
	if db.checkPlan(p) {
		db.planHits.Add(1)
		return p
	}
	db.planInvalidations.Add(1)
	slot.p.CompareAndSwap(p, nil)
	return nil
}

// storePlan compiles s and publishes the plan in slot.
func (tx *Tx) storePlan(slot *planSlot, s *SelectStmt) (*selectPlan, bool, error) {
	tx.db.planMisses.Add(1)
	p, err := tx.buildSelectPlan(s)
	if err != nil {
		return nil, false, err
	}
	slot.p.Store(p)
	tx.db.planStores.Add(1)
	return p, false, nil
}

// buildSelectPlan compiles s from scratch: name binding and output
// expansion, conjunct classification, cost-based join ordering,
// access-path selection, and — for aggregated statements — the
// opcode-compiled aggregation
// program. The returned plan is immutable; a throwaway planning query
// carries the transient state the planner threads through.
func (tx *Tx) buildSelectPlan(s *SelectStmt) (*selectPlan, error) {
	p := &selectPlan{stmt: s, db: tx.db}
	for _, ref := range s.From {
		tbl, err := tx.db.lookupTable(ref.Table)
		if err != nil {
			return nil, err
		}
		p.bindings = append(p.bindings, tableBinding{alias: strings.ToLower(ref.Alias), tbl: tbl})
	}
	// Stamp before planning: a DDL racing with plan construction then
	// moves an epoch past the stamp and the first validation replans,
	// instead of the stamp masking a plan built against older metadata.
	p.stamps = make([]planStamp, len(p.bindings))
	for i, b := range p.bindings {
		p.stamps[i] = planStamp{
			tbl:         b.tbl,
			schemaEpoch: b.tbl.schemaEpoch.Load(),
			statsEpoch:  b.tbl.statsEpoch.Load(),
			planRows:    b.tbl.liveRows.Load(),
		}
	}
	var scratch StmtStats
	pq := &query{tx: tx, selectPlan: p, stats: &scratch, cancel: cancelCheck{ctx: tx.ctx}}
	if err := pq.bindNames(); err != nil {
		return nil, err
	}
	p.aggregated = len(s.GroupBy) > 0 || s.Having != nil
	for _, o := range p.outs {
		p.aggregated = p.aggregated || hasAggregate(o)
	}
	if err := pq.plan(); err != nil {
		return nil, err
	}
	p.locks = p.lockFootprint()
	var err error
	if p.aggregated {
		if p.agg, err = pq.compileAgg(p.outs); err != nil {
			return nil, err
		}
	} else {
		p.picks = pq.compilePicks(p.outs)
	}
	return p, nil
}
