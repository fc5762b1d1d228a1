package sqldb

// Cost-based join planning and execution. The CAS's hot status queries
// (vm→matches→jobs, job→executable→dataset provenance) are multi-way
// joins; this file replaces the fixed left-deep syntactic-order nested
// loop with a planner that
//
//   - reorders inner joins by estimated cost (exhaustive for segments of
//     ≤5 tables, greedy beyond), using the statistics in stats.go;
//   - picks a per-edge strategy: hash join for equi-join conjuncts, index
//     nested-loop when an index covers the join keys, plain nested loop
//     otherwise; where an index probes by the outer row, never a plain
//     nested loop, nor a hash build while the outer stream is estimated
//     small (probeOuterMax);
//   - builds hash tables on the estimated-smaller input (the new table or
//     the accumulated outer stream), with match-bit tracking so LEFT JOIN
//     NULL-padding stays correct in both modes.
//
// LEFT JOIN positions are reorder barriers: only runs of consecutive
// inner-joined tables (segments) are permuted, which keeps outer-join
// semantics independent of the chosen order. The differential join
// fuzzer holds every plan to a naive nested-loop evaluator kept in test
// code (refQuery).

import (
	"fmt"
	"math"
	"strings"
)

// joinStrategy is the per-step execution strategy.
type joinStrategy int

const (
	stratScan    joinStrategy = iota // driver table: plain access-path scan
	stratNL                          // nested loop (re-scan per outer row)
	stratIndexNL                     // index nested-loop probe per outer row
	stratHash                        // hash join on equi-conjunct keys
)

func (s joinStrategy) String() string {
	switch s {
	case stratScan:
		return "DRIVER"
	case stratNL:
		return "NESTED LOOP"
	case stratIndexNL:
		return "INDEX NL"
	case stratHash:
		return "HASH JOIN"
	}
	return "?"
}

// stepPlan is one position of the chosen join order.
type stepPlan struct {
	bind      int  // binding index (position in q.bindings / FROM)
	leftOuter bool // LEFT JOIN semantics at this step
	strat     joinStrategy
	// access is the scan path for this table: the per-probe index plan for
	// stratIndexNL, the local-predicate build scan for stratHash, the full
	// scan (or local index) for stratScan/stratNL.
	access accessPlan
	// match decides whether an (outer, candidate) pair joins: LEFT ON
	// conjuncts, or every conjunct first evaluable here for inner steps.
	// For hash steps the purely-local conjuncts move to local instead.
	match []Expr
	// post holds WHERE conjuncts applied after the LEFT padding decision.
	post []Expr
	// local are match conjuncts referencing only this table; hash builds
	// apply them while scanning the build input.
	local []Expr
	// hashOuter/hashInner are the equi-join keys (outer side read from the
	// accumulated prefix, inner side from this table's row).
	hashOuter []keyPart
	hashInner []keyPart
	// buildOuter builds the hash table over the materialized outer stream
	// (estimated smaller) and probes it with one scan of this table.
	buildOuter bool
	estBase    float64 // estimated rows of this table after local conjuncts
	estOut     float64 // estimated cumulative rows after this step
	// NB: no runtime state lives here. stepPlans are part of the cached,
	// goroutine-shared selectPlan; the per-execution hash tables they
	// drive are on query.hjs, indexed by step position.
}

// hashState is the runtime state of one hash-join step.
type hashState struct {
	rows  []rowImage // build-side (inner) rows after local conjuncts
	table map[string][]int32
}

// outerTuple is one materialized outer-prefix row (hash joins that build
// on the outer side). matched is the match bit that keeps LEFT JOIN
// padding correct when the probe scan visits the tuple more than once.
type outerTuple struct {
	rows    []rowImage
	key     string
	hasKey  bool
	matched bool
}

// joinConj is one predicate conjunct with the set of bindings it
// references as a bitmask.
type joinConj struct {
	e    Expr
	refs uint64
}

// conjRefs computes the binding-reference bitmask of an expression from
// the picks the binder gave its column references.
func (q *query) conjRefs(e Expr) uint64 {
	var mask uint64
	walkExpr(e, func(x Expr) {
		if cr, ok := x.(*ColRef); ok {
			mask |= uint64(1) << uint(q.cols[cr.Slot].bind)
		}
	})
	return mask
}

// planJoin plans the statement's steps: conjunct classification, join
// ordering, per-edge strategy selection. It fills q.steps, one per FROM
// table: a lone table is one DRIVER step holding every WHERE conjunct, and
// a statement without FROM has none.
func (q *query) planJoin() error {
	n := len(q.bindings)
	if n > 64 {
		return fmt.Errorf("sqldb: too many joined tables (max 64)")
	}
	if n == 0 {
		return nil
	}
	db := q.tx.db
	if n >= 2 {
		db.plannerJoinQueries.Add(1)
	}

	// Classify conjuncts: LEFT ON conjuncts are pinned to their step; inner
	// ON conjuncts are equivalent to WHERE conjuncts and join the shared
	// pool, where each is consumed at the earliest step binding all its
	// references.
	var pool []joinConj
	leftOn := make([][]joinConj, n)
	for i := 1; i < n; i++ {
		for _, c := range conjuncts(q.stmt.From[i].On) {
			dst := &pool
			if q.stmt.From[i].Join == JoinLeft {
				dst = &leftOn[i]
			}
			*dst = append(*dst, joinConj{e: c, refs: q.conjRefs(c)})
		}
	}
	for _, c := range conjuncts(q.stmt.Where) {
		pool = append(pool, joinConj{e: c, refs: q.conjRefs(c)})
	}

	// build instantiates the steps for one complete order, returning the
	// total estimated cost.
	build := func(order []int) ([]stepPlan, float64) {
		placed := uint64(0)
		est := 1.0
		cost := 0.0
		steps := make([]stepPlan, 0, n)
		for _, b := range order {
			leftOuter := b > 0 && q.stmt.From[b].Join == JoinLeft
			st, c := q.makeStep(placed, est, b, leftOuter, pool, leftOn[b])
			steps = append(steps, st)
			cost += c
			est = st.estOut
			placed |= uint64(1) << uint(b)
		}
		return steps, cost
	}

	order := q.chooseOrder(pool, leftOn)
	reordered := false
	for i, b := range order {
		if i != b {
			reordered = true
		}
	}
	if reordered {
		db.plannerReordered.Add(1)
	}

	steps, _ := build(order)
	q.steps = steps
	for i := range steps {
		st := &steps[i]
		if st.access.index != nil {
			q.usedIndex = true
		}
		switch st.strat {
		case stratHash:
			db.plannerHashJoins.Add(1)
		case stratIndexNL:
			db.plannerIndexNL.Add(1)
		case stratNL:
			db.plannerNestedLoops.Add(1)
		}
	}
	return nil
}

// orderState is the incremental planning state after some prefix of the
// join order: which tables are placed, the cumulative cardinality
// estimate, and the accumulated cost.
type orderState struct {
	placed uint64
	est    float64
	cost   float64
}

// extendOrder advances st by the tables in seq.
func (q *query) extendOrder(st orderState, seq []int, pool []joinConj, leftOn [][]joinConj) orderState {
	for _, b := range seq {
		leftOuter := b > 0 && q.stmt.From[b].Join == JoinLeft
		sp, c := q.makeStep(st.placed, st.est, b, leftOuter, pool, leftOn[b])
		st.cost += c
		st.est = sp.estOut
		st.placed |= uint64(1) << uint(b)
	}
	return st
}

// chooseOrder picks the join order: LEFT JOIN positions are fixed
// barriers; runs of inner-joined tables between them are permuted —
// exhaustively for runs of ≤5 tables, greedily beyond. The search
// threads the incremental prefix state forward, so candidate
// permutations only pay for their own segment's steps, never for
// re-planning the already-chosen prefix.
func (q *query) chooseOrder(pool []joinConj, leftOn [][]joinConj) []int {
	n := len(q.bindings)
	var segs [][]int
	var lefts []bool
	cur := []int{0}
	for i := 1; i < n; i++ {
		if q.stmt.From[i].Join == JoinLeft {
			if len(cur) > 0 {
				segs = append(segs, cur)
				lefts = append(lefts, false)
			}
			segs = append(segs, []int{i})
			lefts = append(lefts, true)
			cur = nil
		} else {
			cur = append(cur, i)
		}
	}
	if len(cur) > 0 {
		segs = append(segs, cur)
		lefts = append(lefts, false)
	}

	chosen := make([]int, 0, n)
	state := orderState{est: 1}
	for si, seg := range segs {
		switch {
		case lefts[si] || len(seg) == 1:
			chosen = append(chosen, seg...)
		case len(seg) <= 5:
			var best []int
			bestCost := math.Inf(1)
			permute(seg, func(p []int) {
				if c := q.extendOrder(state, p, pool, leftOn).cost; c < bestCost-1e-9 {
					bestCost = c
					best = append(best[:0], p...)
				}
			})
			chosen = append(chosen, best...)
		default:
			// Greedy: repeatedly add the table with the cheapest next step.
			remaining := append([]int(nil), seg...)
			for len(remaining) > 0 {
				bestIdx := 0
				bestCost := math.Inf(1)
				for ri := range remaining {
					if c := q.extendOrder(state, remaining[ri:ri+1], pool, leftOn).cost; c < bestCost-1e-9 {
						bestCost = c
						bestIdx = ri
					}
				}
				state = q.extendOrder(state, remaining[bestIdx:bestIdx+1], pool, leftOn)
				chosen = append(chosen, remaining[bestIdx])
				remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
			}
			continue
		}
		// Advance the prefix state past this segment's final order, when a
		// segment follows to be costed after it.
		if si < len(segs)-1 {
			state = q.extendOrder(state, chosen[len(chosen)-len(seg):], pool, leftOn)
		}
	}
	return chosen
}

// permute enumerates permutations of s in lexicographic order of element
// positions (the identity first, so cost ties keep the syntactic order).
func permute(s []int, fn func([]int)) {
	p := append([]int(nil), s...)
	var rec func(k int)
	rec = func(k int) {
		if k == len(p) {
			fn(p)
			return
		}
		for i := k; i < len(p); i++ {
			// Rotate element i to position k, keeping relative order of the
			// rest — yields lexicographic enumeration.
			v := p[i]
			copy(p[k+1:i+1], p[k:i])
			p[k] = v
			rec(k + 1)
			copy(p[k:i], p[k+1:i+1])
			p[i] = v
		}
	}
	rec(0)
}

// makeStep plans one join step: consumes the conjuncts that become
// evaluable when b joins the placed set, estimates cardinalities, and
// picks the cheapest strategy. Returns the step and its estimated cost.
func (q *query) makeStep(placed uint64, est float64, b int, leftOuter bool, pool, leftOnB []joinConj) (stepPlan, float64) {
	bbit := uint64(1) << uint(b)
	tbl := q.bindings[b].tbl
	rowsB := tbl.estRows()
	st := stepPlan{bind: b, leftOuter: leftOuter}

	// Conjunct consumption: evaluable now, not evaluable before.
	var matchCs, postCs []joinConj
	for _, c := range pool {
		if c.refs&^(placed|bbit) != 0 {
			continue // references a table not yet placed
		}
		if placed != 0 && c.refs&^placed == 0 {
			continue // consumed at an earlier step
		}
		if leftOuter {
			postCs = append(postCs, c) // WHERE applies after padding
		} else {
			matchCs = append(matchCs, c)
		}
	}
	matchCs = append(matchCs, leftOnB...)

	// Split local conjuncts and find equi-join edges.
	type edge struct {
		outer, inner Expr
		innerCol     int
	}
	var local, cross []joinConj
	var edges []edge
	for _, c := range matchCs {
		if c.refs&^bbit == 0 {
			local = append(local, c)
			continue
		}
		cross = append(cross, c)
		bin, ok := c.e.(*Binary)
		if !ok || bin.Op != "=" {
			continue
		}
		lr, rr := q.conjRefs(bin.L), q.conjRefs(bin.R)
		switch {
		case lr&^placed == 0 && lr != 0 && rr&^bbit == 0 && rr != 0:
			edges = append(edges, edge{outer: bin.L, inner: bin.R, innerCol: q.colOn(b, bin.R)})
		case rr&^placed == 0 && rr != 0 && lr&^bbit == 0 && lr != 0:
			edges = append(edges, edge{outer: bin.R, inner: bin.L, innerCol: q.colOn(b, bin.L)})
		}
	}

	// Cardinality estimates.
	estBase := rowsB
	for _, c := range local {
		estBase *= q.localSelectivity(b, c.e)
	}
	if estBase < 0.1 {
		estBase = 0.1
	}
	sel := 1.0
	for _, ed := range edges {
		d := 10.0
		if ed.innerCol >= 0 {
			d = tbl.distinctOfCol(ed.innerCol)
		}
		sel /= math.Max(d, 1)
	}
	for i := len(edges); i < len(cross); i++ {
		sel *= 0.33 // non-equi cross conjuncts
	}
	estMatched := est * estBase * sel
	if estMatched < 0.1 {
		estMatched = 0.1
	}

	// Access paths: accessAll may probe on outer-dependent keys (index
	// NL); accessLocal uses only outer-independent predicates (build scan
	// and plain scans). With nothing placed every usable conjunct is local
	// and only constants are computable, so the two are one call.
	canEvalOuter := func(e Expr) bool { return q.conjRefs(e)&^placed == 0 }
	canEvalConst := func(e Expr) bool { return q.conjRefs(e) == 0 }
	usable := make([]Expr, 0, len(matchCs))
	for _, c := range matchCs {
		usable = append(usable, c.e)
	}
	localEx := make([]Expr, 0, len(local))
	for _, c := range local {
		localEx = append(localEx, c.e)
	}
	accessLocal := q.chooseAccess(b, localEx, canEvalConst)
	accessAll := accessLocal
	if placed != 0 {
		accessAll = q.chooseAccess(b, usable, canEvalOuter)
	}

	// Strategy costs.
	logB := math.Log2(math.Max(rowsB, 2))
	scanB := math.Max(rowsB, 0.5)
	if accessLocal.index != nil {
		scanB = estBase*1.5 + logB
	}
	// An index probe keyed by the outer row reads a part of what a re-scan
	// reads, so it rules the plain nested loop out at every size, and the
	// hash build up to probeOuterMax outer rows.
	probes := q.probesOuter(accessAll)
	costNL := est * math.Max(rowsB, 0.5)
	if probes {
		costNL = math.Inf(1)
	}
	costIdx := math.Inf(1)
	if accessAll.index != nil {
		costIdx = est * (logB + 1)
	}
	costHash := math.Inf(1)
	if len(edges) > 0 && !(probes && est <= probeOuterMax) {
		// Fixed setup overhead plus a per-row hashing constant: what a
		// build costs against a nested loop, or against an index probe
		// over a large outer stream.
		costHash = 4 + scanB + est + 2*math.Min(estBase, est)
	}

	allEx := usable
	st.estBase = estBase
	st.estOut = estMatched
	if leftOuter && st.estOut < est {
		st.estOut = est
	}

	var cost float64
	switch {
	case placed == 0:
		st.strat = stratScan
		st.access = accessLocal
		st.match = allEx
		st.estOut = estBase
		cost = scanB
	case costHash <= costIdx && costHash <= costNL:
		st.strat = stratHash
		st.access = accessLocal
		for _, ed := range edges {
			st.hashOuter = append(st.hashOuter, q.keyPart(ed.outer))
			st.hashInner = append(st.hashInner, q.keyPart(ed.inner))
		}
		// Equi conjuncts stay in match: the hash buckets narrow candidates,
		// the original predicates still decide (guards the rare cases where
		// canonical key encoding is coarser than SQL `=`).
		for _, c := range cross {
			st.match = append(st.match, c.e)
		}
		st.local = localEx
		st.buildOuter = est < estBase
		cost = costHash
	case costIdx <= costNL:
		st.strat = stratIndexNL
		st.access = accessAll
		st.match = allEx
		cost = costIdx
	default:
		st.strat = stratNL
		st.access = accessLocal
		st.match = allEx
		cost = costNL
	}
	for _, c := range postCs {
		st.post = append(st.post, c.e)
	}
	return st, cost + estMatched
}

// probeOuterMax is the largest estimated outer stream for which a step an
// index probes by the outer row never hashes. Up to it the probes are a
// few B+tree descents, where a build scans and hashes the whole inner
// input. The costs cannot tell the two apart there: they differ by a few
// units, and the distinct estimates behind est and estBase are coarse
// enough (a tenth of the rows for a non-unique key prefix) to flip the
// pick, and a cached plan with it, as a table fills and empties.
const probeOuterMax = 64

// probesOuter reports whether ap is an index probe keyed by the outer row:
// an equality prefix part that reads a placed table.
func (q *query) probesOuter(ap accessPlan) bool {
	for _, e := range ap.eqExprs {
		if q.conjRefs(e) != 0 {
			return true
		}
	}
	return false
}

// colOn is the column of binding b that e is a bare reference to, or -1.
func (q *query) colOn(b int, e Expr) int {
	if cr, ok := e.(*ColRef); ok && q.cols[cr.Slot].bind == b {
		return q.cols[cr.Slot].col
	}
	return -1
}

// localSelectivity estimates the fraction of b's rows passing one
// single-table conjunct (System-R-style defaults, sharpened by
// distinct-key statistics for equality).
func (q *query) localSelectivity(b int, e Expr) float64 {
	tbl := q.bindings[b].tbl
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case "=":
			if ci := q.colOn(b, x.L); ci >= 0 && q.conjRefs(x.R) == 0 {
				return 1 / math.Max(tbl.distinctOfCol(ci), 1)
			}
			if ci := q.colOn(b, x.R); ci >= 0 && q.conjRefs(x.L) == 0 {
				return 1 / math.Max(tbl.distinctOfCol(ci), 1)
			}
			return 0.1
		case "<", "<=", ">", ">=":
			return 0.3
		case "<>":
			return 0.9
		case "or":
			return 0.5
		}
		return 0.33
	case *InExpr:
		if ci := q.colOn(b, x.X); ci >= 0 && !x.Not {
			s := float64(len(x.List)) / math.Max(tbl.distinctOfCol(ci), 1)
			return math.Min(s, 1)
		}
		return 0.25
	case *BetweenExpr:
		return 0.25
	case *IsNullExpr:
		if x.Not {
			return 0.9
		}
		return 0.1
	case *LikeExpr:
		return 0.25
	default:
		return 0.33
	}
}

// --- execution ---

// joinLoop drives the join pipeline, calling emit once per fully joined
// row bound in q.env.
func (q *query) joinLoop(emit func() error) error {
	return q.driveStep(len(q.steps)-1, emit)
}

// driveStep produces every joined tuple of steps[0..k], leaving the rows
// bound in q.env for emit. Streaming strategies wrap the upstream driver;
// materializing hash modes collect the outer stream first. Below the first
// step is the one empty row every plan starts from: without a FROM it is
// the whole input, and the WHERE decides it.
func (q *query) driveStep(k int, emit func() error) error {
	if k < 0 {
		if len(q.steps) == 0 && q.stmt.Where != nil {
			if ok, err := truthy(q.env.eval(q.stmt.Where)); err != nil || !ok {
				return err
			}
		}
		return emit()
	}
	st := &q.steps[k]
	if st.strat == stratHash {
		return q.driveHash(k, st, emit)
	}
	return q.driveStep(k-1, func() error { return q.nestedProbe(st, emit) })
}

// evalConjs evaluates predicates with WHERE semantics (all must be TRUE).
func (q *query) evalConjs(cs []Expr) (bool, error) {
	for _, c := range cs {
		ok, err := truthy(q.env.eval(c))
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// nestedProbe runs one nested-loop / index-NL probe of st for the outer
// row currently bound in q.env.
func (q *query) nestedProbe(st *stepPlan, emit func() error) error {
	matched := false
	err := q.scanPlan(st.bind, st.access, func(rid int64, row rowImage) error {
		q.env.rows[st.bind] = row
		if ok, err := q.evalConjs(st.match); err != nil || !ok {
			return err
		}
		matched = true
		if ok, err := q.evalConjs(st.post); err != nil || !ok {
			return err
		}
		return emit()
	})
	if err != nil {
		return err
	}
	if st.leftOuter && !matched {
		return q.padAndEmit(st, emit)
	}
	return nil
}

// padAndEmit emits the NULL-padded row of a LEFT JOIN step.
func (q *query) padAndEmit(st *stepPlan, emit func() error) error {
	q.env.rows[st.bind] = noRow
	if ok, err := q.evalConjs(st.post); err != nil || !ok {
		return err
	}
	return emit()
}

// keyPart is one part of an equality key, a hash join's or a group's: a
// bare column of a type other than FLOAT (bind >= 0), whose cell already
// is its key bytes — a column holds its one type, and a cell is
// appendValue's bytes, which appendEqual leaves alone for every type but
// FLOAT — or an expression, evaluated and encoded by appendEqual.
type keyPart struct {
	e         Expr
	bind, col int
}

// keyPart compiles e into a key part at plan time.
func (q *query) keyPart(e Expr) keyPart {
	if cr, ok := e.(*ColRef); ok {
		if p := q.cols[cr.Slot]; p.bind >= 0 && q.bindings[p.bind].tbl.schema.Columns[p.col].Type != Float {
			return keyPart{e: e, bind: p.bind, col: p.col}
		}
	}
	return keyPart{e: e, bind: -1}
}

// cellsOnly reports whether every part is a cell, read as stored.
func cellsOnly(parts []keyPart) bool {
	for _, p := range parts {
		if p.bind < 0 {
			return false
		}
	}
	return true
}

// nullCell is the cell of a NULL (byte(Null) is 0): what a key reads on
// the padded side of a LEFT JOIN, where there is no row.
const nullCell = "\x00"

// equalKey is the equality key of the row bound in q.env: the parts'
// bytes, one after another — each part is self-delimiting — so two rows'
// keys are equal when each part is equal under `=` or NULL in both. null
// reports a NULL part; a join key, which then matches nothing, stops
// there. A key of one cell is the cell itself, a substring of an immutable
// image; any other is the scratch's buffer, valid until the next call,
// which a holder copies (holdKey).
func (q *query) equalKey(parts []keyPart, join bool) (key string, null bool, err error) {
	if oneCell(parts) {
		c := q.keyCell(parts[0])
		return c, c[0] == byte(Null), nil
	}
	b := q.sc.eqKey[:0]
	for _, p := range parts {
		if p.bind >= 0 {
			c := q.keyCell(p)
			null = null || c[0] == byte(Null)
			b = append(b, c...)
		} else {
			v, err := q.env.eval(p.e)
			if err != nil {
				return "", false, err
			}
			null = null || v.typ == Null
			b = appendEqual(b, v)
		}
		if null && join {
			break
		}
	}
	q.sc.eqKey = b
	return view(b), null, nil
}

// keyCell is part p's cell in the row bound in q.env.
func (q *query) keyCell(p keyPart) string {
	if row := q.env.rows[p.bind]; row != noRow {
		return row.cell(p.col)
	}
	return nullCell
}

// holdKey is a key equalKey returned, made safe to keep: a cell as it is,
// the scratch's bytes copied.
func holdKey(parts []keyPart, key string) string {
	if oneCell(parts) {
		return key
	}
	return strings.Clone(key)
}

// oneCell reports whether a key is one cell, read in place.
func oneCell(parts []keyPart) bool { return len(parts) == 1 && parts[0].bind >= 0 }

// appendEqual appends v's equality-key bytes to b: its cell, except that
// an integral FLOAT in int64 range is written as the INTEGER it equals,
// since `=` compares numbers by value (so 1.0 keys as 1, and -0.0 as 0).
// Out-of-range numerics keep their own encoding; a join's equi predicates
// remain in its match list, so hash buckets only ever narrow candidates,
// never accept wrong ones.
func appendEqual(b []byte, v Value) []byte {
	if v.typ == Float {
		if f := v.float(); f == math.Trunc(f) && f >= -9.2e18 && f <= 9.2e18 {
			v = NewInt(int64(f))
		}
	}
	return appendValue(b, v)
}

// driveHash executes one hash-join step.
func (q *query) driveHash(k int, st *stepPlan, emit func() error) error {
	if !st.buildOuter {
		hj, err := q.buildHashInner(k, st)
		if err != nil {
			return err
		}
		// Streaming probe: one lookup per outer tuple.
		return q.driveStep(k-1, func() error { return q.probeHashInner(st, hj, emit) })
	}

	// Build on the outer side: collect the outer stream (with its key and
	// a match bit per tuple), hash it, probe it with one scan of st's table.
	var outs []outerTuple
	err := q.driveStep(k-1, func() error {
		t := outerTuple{rows: append([]rowImage(nil), q.env.rows...)}
		key, null, err := q.equalKey(st.hashOuter, true)
		if err != nil {
			return err
		}
		t.key, t.hasKey = holdKey(st.hashOuter, key), !null
		outs = append(outs, t)
		return nil
	})
	if err != nil {
		return err
	}
	restore := func(t *outerTuple) { copy(q.env.rows, t.rows) }

	if err := q.probeBuildOuter(st, outs, restore, emit); err != nil {
		return err
	}
	if st.leftOuter {
		for i := range outs {
			if err := q.cancel.check(); err != nil {
				return err
			}
			if outs[i].matched {
				continue
			}
			restore(&outs[i])
			if err := q.padAndEmit(st, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildHashInner scans st's table once (local conjuncts applied),
// materializes the surviving rows and builds the in-memory hash table.
// Runs once per query; the result is memoized on q.hjs (never on the
// shared plan).
func (q *query) buildHashInner(k int, st *stepPlan) (*hashState, error) {
	if q.hjs == nil {
		q.hjs = make([]*hashState, len(q.steps))
	}
	if q.hjs[k] != nil {
		return q.hjs[k], nil
	}
	hj := &hashState{}
	q.hjs[k] = hj
	err := q.scanPlan(st.bind, st.access, func(rid int64, row rowImage) error {
		q.env.rows[st.bind] = row
		ok, err := q.evalConjs(st.local)
		if ok {
			hj.rows = append(hj.rows, row)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	q.buildRows += uint64(len(hj.rows))
	q.hashBuilds++
	hj.table = make(map[string][]int32, len(hj.rows))
	for i, row := range hj.rows {
		if err := q.cancel.check(); err != nil {
			return nil, err
		}
		q.env.rows[st.bind] = row
		key, null, err := q.equalKey(st.hashInner, true)
		if err != nil {
			return nil, err
		}
		if null {
			continue // NULL key never matches
		}
		key = holdKey(st.hashInner, key)
		hj.table[key] = append(hj.table[key], int32(i))
	}
	return hj, nil
}

// probeHashInner probes the built hash table for the outer row currently
// bound in q.env (streaming build-inner mode).
func (q *query) probeHashInner(st *stepPlan, hj *hashState, emit func() error) error {
	q.probeRows++
	key, null, err := q.equalKey(st.hashOuter, true)
	if err != nil {
		return err
	}
	matched := false
	if !null {
		for _, ri := range hj.table[key] {
			q.env.rows[st.bind] = hj.rows[ri]
			pass, err := q.evalConjs(st.match)
			if err != nil {
				return err
			}
			if !pass {
				continue
			}
			matched = true
			pass, err = q.evalConjs(st.post)
			if err != nil {
				return err
			}
			if !pass {
				continue
			}
			if err := emit(); err != nil {
				return err
			}
		}
	}
	if st.leftOuter && !matched {
		return q.padAndEmit(st, emit)
	}
	return nil
}

// probeBuildOuter hashes the materialized outer tuples and probes them
// with one scan of st's table.
func (q *query) probeBuildOuter(st *stepPlan, outs []outerTuple, restore func(*outerTuple), emit func() error) error {
	q.buildRows += uint64(len(outs))
	q.hashBuilds++
	table := make(map[string][]int32, len(outs))
	for i := range outs {
		if err := q.cancel.check(); err != nil {
			return err
		}
		if outs[i].hasKey {
			table[outs[i].key] = append(table[outs[i].key], int32(i))
		}
	}
	return q.scanPlan(st.bind, st.access, func(rid int64, row rowImage) error {
		q.probeRows++
		q.env.rows[st.bind] = row
		if ok, err := q.evalConjs(st.local); err != nil || !ok {
			return err
		}
		key, null, err := q.equalKey(st.hashInner, true)
		if err != nil || null {
			return err
		}
		for _, oi := range table[key] {
			t := &outs[oi]
			restore(t)
			q.env.rows[st.bind] = row
			pass, err := q.evalConjs(st.match)
			if err != nil {
				return err
			}
			if !pass {
				continue
			}
			t.matched = true
			pass, err = q.evalConjs(st.post)
			if err != nil {
				return err
			}
			if !pass {
				continue
			}
			if err := emit(); err != nil {
				return err
			}
		}
		return nil
	})
}
