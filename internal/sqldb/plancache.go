package sqldb

import (
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
// ANALYZE and by checkPlan itself when live cardinality drifts past the
// replan threshold). A plan records both epochs per referenced table at
// build time; any movement fails validation and the statement replans.
// Index visibility is revalidated per snapshot: a plan records the
// newest createdTS among its chosen indexes, and a snapshot older than
// that bypasses the cache (plans fresh, keeps the cached plan for
// current readers) so it never scans an index built after its
// timestamp.

// planSlot is the atomic plan anchor embedded in cacheable statement
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
	// statement and every replan after an invalidation (snapshot bypasses
	// are counted under Bypasses instead).
	Misses uint64
	// Invalidations counts cached plans discarded by validation: a
	// schema or stats epoch moved, or live cardinality drifted past the
	// replan threshold.
	Invalidations uint64
	// Bypasses counts snapshot reads that planned fresh because their
	// snapshot predates an index the cached plan uses; the cached plan
	// stays for current-timestamp callers.
	Bypasses uint64
	// Stores counts plans published into statement slots.
	Stores uint64
}

// PlanCacheStats snapshots the plan-cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          db.planHits.Load(),
		Misses:        db.planMisses.Load(),
		Invalidations: db.planInvalidations.Load(),
		Bypasses:      db.planBypasses.Load(),
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
	// [planRows/2, 2*planRows] — the statScale drift window beyond which
	// distinct-prefix extrapolation (stats.go) stops being trustworthy.
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
	// orderable marks a single-table, non-aggregated, non-DISTINCT
	// SELECT whose ORDER BY the access path may (partially) provide.
	orderable bool
	// orderAliased[i] marks ORDER BY items that orderKeys resolves to an
	// output alias: they sort by the output expression, not the
	// same-named table column, so an index can never provide their order.
	orderAliased []bool
	// outs/cols are the star-expanded output expressions and their
	// column names; aggregated marks GROUP BY/HAVING/aggregate SELECTs
	// and agg carries their compiled aggregation program (executor.go).
	// picks is set when every output of a non-aggregated SELECT is a bare
	// column: where each is read from, one (binding, column) per output.
	// The result is then references to the rows read, not computed rows.
	outs       []Expr
	cols       []string
	picks      []pick
	aggregated bool
	agg        *aggPlan
	// orderExprs/orderAlias are the resolved ORDER BY items of a
	// non-aggregated SELECT (orderKeys): the expression per item, and the
	// output position it sorts by when it names an alias or an ordinal.
	orderExprs []Expr
	orderAlias []int
	// usedIndex mirrors into StmtStats.UsedIndex per execution.
	usedIndex bool
	// locks is the statement's table-lock footprint: one entry per
	// distinct table, sorted by name so every transaction acquires in the
	// same order. The mode follows from the entry and the statement kind
	// at execution (IS/S for a read, IX/X for an UPDATE/DELETE target).
	locks []planLock

	// Cache-validation state.
	db     *DB
	stamps []planStamp
	// maxIndexTS is the newest createdTS among the plan's chosen
	// indexes; snapshots older than it must not execute this plan.
	maxIndexTS uint64
	// modeSplit marks a statement whose access path differs between
	// snapshot and locked reads (an order-only index scan, chooseAccess);
	// forSnap says which of the two this plan is.
	modeSplit, forSnap bool
	// cacheable is false when the plan embeds a decision private to one
	// execution — today, skipping an index invisible to the planning
	// snapshot (sawInvisible). Such plans are used once and discarded.
	cacheable    bool
	sawInvisible bool
}

// planLock is one table of a plan's lock footprint. indexed says every
// scan of the table in this plan goes through an index, so an intention
// lock on the table plus row locks suffice; one full scan of it and the
// whole-table mode is needed.
type planLock struct {
	table   string
	indexed bool
}

// lockFootprint merges the plan's steps into its sorted table-lock
// footprint. Runs once per compiled plan, after access paths are chosen.
func (p *selectPlan) lockFootprint() []planLock {
	locks := make([]planLock, 0, len(p.steps))
steps:
	for i := range p.steps {
		st := &p.steps[i]
		name := strings.ToLower(p.bindings[st.bind].tbl.schema.Name)
		indexed := st.access.index != nil
		for j := range locks {
			if locks[j].table == name {
				locks[j].indexed = locks[j].indexed && indexed
				continue steps
			}
		}
		locks = append(locks, planLock{table: name, indexed: indexed})
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i].table < locks[j].table })
	return locks
}

// planCheckResult classifies a cached plan against the current schema,
// statistics, and snapshot.
type planCheckResult int

const (
	planHit    planCheckResult = iota
	planStale                  // discard and replan
	planBypass                 // plan fresh for this execution, keep cached
)

// checkPlan validates a cached plan without locks: a handful of atomic
// loads against the epochs and cardinalities recorded at build time.
func (db *DB) checkPlan(p *selectPlan, snapRead bool, snapTS uint64) planCheckResult {
	if p.db != db {
		return planStale // AST shared across engines (tests); never the hot path
	}
	for i := range p.stamps {
		st := &p.stamps[i]
		if st.tbl.schemaEpoch.Load() != st.schemaEpoch {
			return planStale
		}
		se := st.tbl.statsEpoch.Load()
		if se != st.statsEpoch {
			return planStale
		}
		if live := st.tbl.liveRows.Load(); live > 2*st.planRows || live < st.planRows/2 {
			// Cardinality drifted past the replan threshold. Advance the
			// table's stats epoch (CAS so racing validators bump once) so
			// every plan costed at the old cardinality re-costs, then
			// replan this one now.
			st.tbl.statsEpoch.CompareAndSwap(se, se+1)
			return planStale
		}
	}
	if snapRead && snapTS < p.maxIndexTS {
		return planBypass
	}
	if p.modeSplit && p.forSnap != snapRead {
		// The slot goes to the snapshot plan — the monitoring read the
		// ordered scan exists for; locked reads plan past it.
		if snapRead {
			return planStale
		}
		return planBypass
	}
	return planHit
}

// planSelect returns the compiled plan for s, serving it from the
// statement's plan slot when the cached plan validates. The bool result
// reports a cache hit (EXPLAIN renders it as [CACHED]).
func (tx *Tx) planSelect(s *SelectStmt, snapRead bool, snapTS uint64) (*selectPlan, bool, error) {
	db := tx.db
	store := true
	if p := s.plan.p.Load(); p != nil {
		switch db.checkPlan(p, snapRead, snapTS) {
		case planHit:
			db.planHits.Add(1)
			return p, true, nil
		case planBypass:
			db.planBypasses.Add(1)
			store = false
		case planStale:
			db.planInvalidations.Add(1)
			s.plan.p.CompareAndSwap(p, nil)
		}
	}
	if store {
		db.planMisses.Add(1)
	}
	p, err := tx.buildSelectPlan(s, snapRead, snapTS)
	if err != nil {
		return nil, false, err
	}
	if store && p.cacheable {
		s.plan.p.Store(p)
		db.planStores.Add(1)
	}
	return p, false, nil
}

// planTargetPlan is planSelect for UPDATE/DELETE targets: the slot lives
// on the DML statement and the plan compiles a synthesized single-table
// SELECT over its WHERE clause. Targets always read current versions
// under locks, so there is no snapshot bypass case.
func (tx *Tx) planTargetPlan(tableName string, where Expr, slot *planSlot) (*selectPlan, bool, error) {
	db := tx.db
	if p := slot.p.Load(); p != nil {
		if db.checkPlan(p, false, 0) == planHit {
			db.planHits.Add(1)
			return p, true, nil
		}
		db.planInvalidations.Add(1)
		slot.p.CompareAndSwap(p, nil)
	}
	db.planMisses.Add(1)
	sel := &SelectStmt{
		From:  []TableRef{{Table: tableName, Alias: tableName}},
		Where: where,
	}
	p, err := tx.buildSelectPlan(sel, false, 0)
	if err != nil {
		return nil, false, err
	}
	if p.cacheable {
		slot.p.Store(p)
		db.planStores.Add(1)
	}
	return p, false, nil
}

// buildSelectPlan compiles s from scratch: conjunct classification,
// cost-based join ordering, access-path selection, output expansion,
// and — for aggregated statements — the opcode-compiled aggregation
// program. The returned plan is immutable; a throwaway planning query
// carries the transient state the planner threads through.
func (tx *Tx) buildSelectPlan(s *SelectStmt, snapRead bool, snapTS uint64) (*selectPlan, error) {
	p := &selectPlan{
		stmt:      s,
		db:        tx.db,
		cacheable: true,
	}
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
	pq := &query{tx: tx, selectPlan: p, stats: &scratch,
		snapRead: snapRead, snapTS: snapTS, cancel: cancelCheck{ctx: tx.ctx}}
	pq.env = &evalEnv{now: tx.db.nowFn()}
	pq.env.bindings = make([]binding, len(p.bindings))
	for i, b := range p.bindings {
		pq.env.bindings[i] = binding{alias: b.alias, schema: &b.tbl.schema}
	}
	if err := pq.plan(); err != nil {
		return nil, err
	}
	p.locks = p.lockFootprint()
	outs, cols, err := pq.expandOutputs()
	if err != nil {
		return nil, err
	}
	p.outs, p.cols = outs, cols
	p.orderExprs, p.orderAlias = pq.orderKeys(outs)
	p.aggregated = len(s.GroupBy) > 0 || s.Having != nil
	for _, o := range outs {
		if hasAggregate(o) {
			p.aggregated = true
		}
	}
	if p.aggregated {
		if p.agg, err = pq.compileAgg(outs); err != nil {
			return nil, err
		}
	} else {
		p.picks = pq.compilePicks(outs)
	}
	for i := range p.steps {
		if ix := p.steps[i].access.index; ix != nil && ix.createdTS > p.maxIndexTS {
			p.maxIndexTS = ix.createdTS
		}
	}
	if p.sawInvisible {
		p.cacheable = false
	}
	return p, nil
}
