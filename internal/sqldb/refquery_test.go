package sqldb

// refQuery is the oracle the query-shaped differential suites diff the
// engine against: the join fuzzer, crossCheck, TestAggModesDifferential,
// the top-K differential and every query block of the logictest goldens.
// It evaluates a SELECT the naive way and shares nothing with the engine's
// read path but the expression evaluator, the equality-key encoding of a
// value (appendEqual) and finishAgg; its name resolution (refBinder), its
// grouping, taking every key part as an evaluated value, and its
// accumulator (aggState.add, at the end of this file) are its own:
//
//   - every name is resolved before any row is read: a qualified one to
//     the column of the FROM table its qualifier names, an unqualified one
//     to the one FROM table's column that carries it — or, in ORDER BY and
//     HAVING outside an aggregate's arguments, to the output carrying it as
//     its alias, read from the finished output row; LIMIT and OFFSET
//     name nothing;
//   - base rows come straight from each slot's version chain: the version
//     visible at the snapshot timestamp refQueryAt is given (refQuery's is
//     the current commit clock), so callers must not race it with writers;
//   - the FROM list is a nested-loop product in syntactic order, each ON
//     deciding whether its row joins and, for a LEFT JOIN that matched
//     nothing, the NULL padding; no FROM is the product of nothing, one
//     empty row;
//   - WHERE filters the product;
//   - groups are keyed by appendEqual over the GROUP BY values and
//     accumulate through aggState.add/finishAgg, the first row of a group
//     standing for it;
//   - ORDER BY is a stable sort by Compare over every result row, an
//     ordinal sorting by the output it numbers, then DISTINCT, OFFSET and
//     LIMIT.
//
// No planner, access path, plan cache or aggregation stage runs here.

import (
	"fmt"
	"sort"
	"strings"
)

// refRow is one result row of the oracle and its ORDER BY keys.
type refRow struct{ out, keys []Value }

// refGroup is one group of an aggregated SELECT: one row reference per
// table from its first input row, and one accumulator per aggregate call.
type refGroup struct {
	rows []rowImage
	aggs []aggState
}

func refQuery(db *DB, sql string, args ...any) (*Rows, error) {
	return refQueryAt(db, db.clock.Load(), sql, args...)
}

// refQueryAt is refQuery as a snapshot taken at commit timestamp ts sees
// the tables.
func refQueryAt(db *DB, ts uint64, sql string, args ...any) (*Rows, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("refQuery: not a SELECT: %s", sql)
	}
	env := &evalEnv{params: make([]Value, len(args)), now: db.nowFn()}
	for i, a := range args {
		if env.params[i], err = FromGo(a); err != nil {
			return nil, err
		}
	}
	base := make([][]rowImage, len(s.From))
	b := &refBinder{cols: make([]pick, s.Slots), aliases: map[string]int{}}
	for i, ref := range s.From {
		tbl, err := db.lookupTable(ref.Table)
		if err != nil {
			return nil, err
		}
		b.from = append(b.from, refTable{alias: strings.ToLower(ref.Alias), schema: &tbl.schema})
		base[i] = visibleRows(tbl, ts)
	}
	outs, err := b.outputs(s)
	if err != nil {
		return nil, err
	}
	env.cols, env.rows = b.cols, make([]rowImage, len(s.From))
	limit, err := refCount(env, s.Limit, "LIMIT", -1)
	if err != nil {
		return nil, err
	}
	offset, err := refCount(env, s.Offset, "OFFSET", 0)
	if err != nil {
		return nil, err
	}
	// ORDER BY ordinals sort by the output they number; every other item
	// is evaluated, an alias in it reading the output row.
	orderPos := make([]int, len(s.OrderBy))
	for i, item := range s.OrderBy {
		orderPos[i] = -1
		if lit, ok := item.Expr.(*Literal); ok && lit.Val.Type() == Int {
			if n := int(lit.Val.Int64()); n >= 1 && n <= len(outs) {
				orderPos[i] = n - 1
			}
		}
	}
	var result []refRow
	// finish evaluates one result row and its keys in env and keeps it
	// unless HAVING rejects it.
	finish := func(env *evalEnv, having Expr) error {
		r := refRow{out: make([]Value, len(outs)), keys: make([]Value, len(s.OrderBy))}
		for i, e := range outs {
			v, err := env.eval(e)
			if err != nil {
				return err
			}
			r.out[i] = v
		}
		env.aliasRow = r.out
		if having != nil {
			if ok, err := truthy(env.eval(having)); err != nil || !ok {
				return err
			}
		}
		for i, item := range s.OrderBy {
			if orderPos[i] >= 0 {
				r.keys[i] = r.out[orderPos[i]]
				continue
			}
			v, err := env.eval(item.Expr)
			if err != nil {
				return err
			}
			r.keys[i] = v
		}
		result = append(result, r)
		return nil
	}

	aggregated := len(s.GroupBy) > 0 || s.Having != nil
	for _, e := range outs {
		aggregated = aggregated || hasAggregate(e)
	}
	emit := func() error { return finish(env, nil) }
	var calls []*FuncCall
	groups := map[string]*refGroup{}
	var order []*refGroup
	if aggregated {
		collect := func(e Expr) {
			walkExpr(e, func(x Expr) {
				if fc, ok := x.(*FuncCall); ok && isAggregate(fc) {
					calls = append(calls, fc)
				}
			})
		}
		for _, e := range outs {
			collect(e)
		}
		collect(s.Having)
		for _, item := range s.OrderBy {
			collect(item.Expr)
		}
		var key, scratch []byte
		emit = func() error {
			key = key[:0]
			for _, e := range s.GroupBy {
				v, err := env.eval(e)
				if err != nil {
					return err
				}
				key = appendEqual(key, v)
			}
			g := groups[string(key)]
			if g == nil {
				g = &refGroup{rows: append([]rowImage(nil), env.rows...), aggs: make([]aggState, len(calls))}
				groups[string(key)] = g
				order = append(order, g)
			}
			for i, fc := range calls {
				if fc.Star {
					g.aggs[i].count++
					continue
				}
				if len(fc.Args) != 1 {
					return fmt.Errorf("sqldb: %s expects one argument", strings.ToUpper(fc.Name))
				}
				v, err := env.eval(fc.Args[0])
				if err != nil {
					return err
				}
				if err := g.aggs[i].add(fc, v, &scratch); err != nil {
					return err
				}
			}
			return nil
		}
	}

	var product func(i int) error
	product = func(i int) error {
		if i == len(base) {
			if s.Where != nil {
				if ok, err := truthy(env.eval(s.Where)); err != nil || !ok {
					return err
				}
			}
			return emit()
		}
		matched := false
		for _, row := range base[i] {
			env.rows[i] = row
			if on := s.From[i].On; i > 0 && on != nil {
				ok, err := truthy(env.eval(on))
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			matched = true
			if err := product(i + 1); err != nil {
				return err
			}
		}
		env.rows[i] = noRow
		if !matched && i > 0 && s.From[i].Join == JoinLeft {
			return product(i + 1)
		}
		return nil
	}
	if err := product(0); err != nil {
		return nil, err
	}

	if aggregated {
		if len(order) == 0 && len(s.GroupBy) == 0 {
			// A global aggregate over no rows is still one row.
			order = append(order, &refGroup{rows: make([]rowImage, len(base)), aggs: make([]aggState, len(calls))})
		}
		aggIdx := make(map[*FuncCall]int, len(calls))
		for i, fc := range calls {
			aggIdx[fc] = i
		}
		for _, g := range order {
			genv := &evalEnv{rows: g.rows, cols: env.cols, params: env.params, now: env.now, aggIdx: aggIdx, aggVals: make([]Value, len(calls))}
			for i, fc := range calls {
				genv.aggVals[i] = finishAgg(fc, &g.aggs[i])
			}
			if err := finish(genv, s.Having); err != nil {
				return nil, err
			}
		}
	}

	sort.SliceStable(result, func(a, b int) bool {
		for k, item := range s.OrderBy {
			c, err := Compare(result[a].keys[k], result[b].keys[k])
			if err != nil {
				c = 0
			}
			if item.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	rows := &Rows{}
	seen := map[string]bool{}
	var kb []byte
	for _, r := range result {
		if s.Distinct {
			kb = kb[:0]
			for _, v := range r.out {
				kb = appendEqual(kb, v)
			}
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
		}
		rows.Data = append(rows.Data, r.out)
	}
	rows.Data = rows.Data[min(offset, len(rows.Data)):]
	if limit >= 0 && limit < len(rows.Data) {
		rows.Data = rows.Data[:limit]
	}
	return rows, nil
}

// visibleRows is every row of tbl a snapshot at ts sees, in slot order.
func visibleRows(tbl *table, ts uint64) []rowImage {
	tbl.latch.RLock()
	defer tbl.latch.RUnlock()
	var rows []rowImage
	for rid := range tbl.rows.n {
		if row := tbl.resolve(tbl.rows.at(rid).visibleVersion(ts)); row != noRow {
			rows = append(rows, row)
		}
	}
	return rows
}

// refTable is one FROM table as the oracle sees it.
type refTable struct {
	alias  string
	schema *TableSchema
}

// refBinder is the oracle's name resolution, written apart from the
// engine's binder so that the differential suites check that one: it
// fills cols, one pick per column reference the statement holds, and one
// per column a star expands into, numbered after them.
type refBinder struct {
	from    []refTable
	cols    []pick
	aliases map[string]int // output alias → output position; the last wins
}

// outputs expands the SELECT list over the FROM tables — a star to every
// column of every table, t.* to t's —, records each output alias, and
// resolves every name of the statement.
func (b *refBinder) outputs(s *SelectStmt) ([]Expr, error) {
	var outs []Expr
	for _, se := range s.Exprs {
		if !se.Star {
			if se.Alias != "" {
				b.aliases[strings.ToLower(se.Alias)] = len(outs)
			}
			outs = append(outs, se.Expr)
			if err := b.bind(se.Expr, false); err != nil {
				return nil, err
			}
			continue
		}
		n := len(outs)
		for ti, t := range b.from {
			if se.Table != "" && !strings.EqualFold(se.Table, t.alias) {
				continue
			}
			for ci, c := range t.schema.Columns {
				outs = append(outs, &ColRef{Table: t.alias, Name: c.Name, Slot: len(b.cols)})
				b.cols = append(b.cols, pick{bind: ti, col: ci})
			}
		}
		if len(outs) == n {
			if len(b.from) == 0 {
				return nil, fmt.Errorf("sqldb: SELECT * requires a FROM clause")
			}
			return nil, fmt.Errorf("sqldb: %s.* matches no table", se.Table)
		}
	}
	plain := []Expr{s.Where}
	for _, ref := range s.From {
		plain = append(plain, ref.On)
	}
	plain = append(plain, s.GroupBy...)
	for _, e := range plain {
		if err := b.bind(e, false); err != nil {
			return nil, err
		}
	}
	aliased := []Expr{s.Having}
	for _, item := range s.OrderBy {
		// An item that is nothing but an output's alias sorts by that
		// output, whatever column shares its name.
		if cr, ok := item.Expr.(*ColRef); ok && cr.Table == "" {
			if at, ok := b.aliases[cr.Name]; ok {
				b.cols[cr.Slot] = pick{bind: -1, col: at}
				continue
			}
		}
		aliased = append(aliased, item.Expr)
	}
	for _, e := range aliased {
		if err := b.bind(e, true); err != nil {
			return nil, err
		}
	}
	var err error
	for _, e := range []Expr{s.Limit, s.Offset} {
		walkExpr(e, func(x Expr) {
			if _, ok := x.(*ColRef); ok {
				err = fmt.Errorf("refQuery: a column in LIMIT or OFFSET")
			}
		})
	}
	return outs, err
}

// bind resolves the names in e. aliased lets an unqualified name that no
// FROM table's column carries be an output alias, except inside an
// aggregate's arguments.
func (b *refBinder) bind(e Expr, aliased bool) error {
	switch x := e.(type) {
	case nil, *Literal, *Param:
		return nil
	case *ColRef:
		err := b.column(x)
		if at, ok := b.aliases[x.Name]; ok && aliased && x.Table == "" && b.unclaimed(x.Name) {
			b.cols[x.Slot], err = pick{bind: -1, col: at}, nil
		}
		return err
	case *FuncCall:
		return b.bindAll(x.Args, aliased && !isAggregate(x))
	case *Unary:
		return b.bind(x.X, aliased)
	case *Binary:
		return b.bindAll([]Expr{x.L, x.R}, aliased)
	case *InExpr:
		return b.bindAll(append([]Expr{x.X}, x.List...), aliased)
	case *BetweenExpr:
		return b.bindAll([]Expr{x.X, x.Lo, x.Hi}, aliased)
	case *IsNullExpr:
		return b.bind(x.X, aliased)
	case *LikeExpr:
		return b.bindAll([]Expr{x.X, x.Pattern}, aliased)
	}
	return fmt.Errorf("refQuery: cannot bind %T", e)
}

func (b *refBinder) bindAll(es []Expr, aliased bool) error {
	for _, e := range es {
		if err := b.bind(e, aliased); err != nil {
			return err
		}
	}
	return nil
}

// unclaimed reports whether no FROM table has a column called name.
func (b *refBinder) unclaimed(name string) bool {
	for _, t := range b.from {
		for _, c := range t.schema.Columns {
			if strings.EqualFold(c.Name, name) {
				return false
			}
		}
	}
	return true
}

// column resolves a column reference against the FROM tables.
func (b *refBinder) column(cr *ColRef) error {
	hits := 0
	for ti, t := range b.from {
		if cr.Table != "" && !strings.EqualFold(cr.Table, t.alias) {
			continue
		}
		for ci, c := range t.schema.Columns {
			if strings.EqualFold(c.Name, cr.Name) {
				if hits++; hits == 1 {
					b.cols[cr.Slot] = pick{bind: ti, col: ci}
				}
			}
		}
		if cr.Table != "" {
			break // the first table of that alias
		}
	}
	switch {
	case hits == 0:
		return fmt.Errorf("refQuery: unknown column %s", exprString(cr))
	case hits > 1:
		return fmt.Errorf("refQuery: ambiguous column %s", cr.Name)
	}
	return nil
}

// refCount evaluates a LIMIT or OFFSET against the parameters, def when
// the statement has none.
func refCount(env *evalEnv, e Expr, name string, def int) (int, error) {
	if e == nil {
		return def, nil
	}
	v, err := env.eval(e)
	if err != nil {
		return 0, err
	}
	if v.Type() != Int || v.Int64() < 0 {
		return 0, fmt.Errorf("sqldb: %s must be a non-negative integer", name)
	}
	return int(v.Int64()), nil
}

// add folds one input value into the oracle's accumulator; the engine
// accumulates in fold's compiled loop instead. DISTINCT sets key values
// with the equality-key encoding (appendEqual), so COUNT(DISTINCT x)
// agrees with `=` about Int 1 vs Float 1.0; MIN/MAX propagate Compare
// errors on mixed-type inputs instead of silently keeping whichever value
// arrived first. scratch is a caller-owned reused buffer for the DISTINCT
// key encoding.
func (st *aggState) add(fc *FuncCall, v Value, scratch *[]byte) error {
	if v.IsNull() {
		return nil // aggregates ignore NULL inputs
	}
	if fc.Distinct {
		if st.distinct == nil {
			st.distinct = make(map[string]bool)
		}
		*scratch = appendEqual((*scratch)[:0], v)
		if st.distinct[string(*scratch)] {
			return nil
		}
		st.distinct[string(*scratch)] = true
	}
	st.count++
	switch fc.Name {
	case "sum", "avg":
		if !v.isNumeric() {
			return fmt.Errorf("sqldb: %s requires numeric input", strings.ToUpper(fc.Name))
		}
		if v.Type() == Float {
			st.isFloat = true
		}
		st.sumI += v.Int64()
		st.sumF += v.Float64()
	case "min":
		if st.min.IsNull() {
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
	case "max":
		if st.max.IsNull() {
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
	return nil
}
