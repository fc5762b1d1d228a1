package sqldb

// Differential join fuzzer: random small schemas, data, and 1–4-table
// queries (a lone table filtered by local predicates, or INNER/LEFT joins
// with mixed ON/WHERE conjuncts) run through the engine — the cost-based
// planner (hash joins, index nested loops, reordering, the single table's
// ordered index scans), the plan cache, the batched scans and the
// aggregation stage — and through refQuery, the naive evaluator in
// refquery_test.go, and the result sets must be identical. Each case
// runs its query as a snapshot read, as a locked read inside a read-write
// transaction (table and row locks), and again after each of three rounds
// of writes and schema or cardinality churn — once in a snapshot opened
// before the round, whose rows the oracle reads at that snapshot's
// timestamp.
// About a quarter of the queries end in ORDER BY over every output, in a
// shuffled order, and a LIMIT with an OFFSET: the top-K over joins and
// aggregated rows, compared in order against the oracle's sorted and
// sliced result. About a third of the outputs carry an alias — beside a
// star too —, which ORDER BY then names, and so do some HAVING clauses. A one-table
// case's WHERE also targets an UPDATE, rolled back, whose affected-row
// count must be the oracle's count(*) under the same WHERE.
//
// Every case is derived from a seed and fully reproducible; failures log
// the seed, the schema/data script, and the query. The default run is a
// CI-sized smoke with fixed seeds; the acceptance run is
//
//	JOINFUZZ_CASES=1000 go test ./internal/sqldb -run TestJoinFuzz
//
// with JOINFUZZ_SEED overriding the seed base.

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const joinFuzzDefaultSeed = 20260729

func TestJoinFuzz(t *testing.T) {
	cases := 200
	if s := os.Getenv("JOINFUZZ_CASES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("JOINFUZZ_CASES=%q: %v", s, err)
		}
		cases = n
	}
	base := int64(joinFuzzDefaultSeed)
	if s := os.Getenv("JOINFUZZ_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("JOINFUZZ_SEED=%q: %v", s, err)
		}
		base = n
	}
	if testing.Short() {
		cases = 50
	}
	var agg PlannerStats
	var drifts uint64
	ordered, oneTable := 0, 0
	for i := 0; i < cases; i++ {
		s, o, one, d := runJoinFuzzCase(t, base+int64(i))
		if t.Failed() {
			return
		}
		drifts += d
		if o {
			ordered++
		}
		if one {
			oneTable++
		}
		agg.HashJoins += s.HashJoins
		agg.HashBuilds += s.HashBuilds
		agg.IndexNLJoins += s.IndexNLJoins
		agg.NestedLoops += s.NestedLoops
		agg.Reordered += s.Reordered
	}
	t.Logf("joinfuzz coverage over %d cases: hash=%d builds=%d indexNL=%d nestedLoop=%d reordered=%d ordered=%d oneTable=%d drift=%d",
		cases, agg.HashJoins, agg.HashBuilds, agg.IndexNLJoins, agg.NestedLoops, agg.Reordered, ordered, oneTable, drifts)
	// The corpus must actually exercise every strategy — a fuzzer that
	// only ever plans nested loops proves nothing about hash joins, and one
	// whose hash picks never run proves nothing about the build —, the
	// one-step plan single-table statements and DML targets run, and the
	// replan of a plan whose row counts drifted.
	if cases >= 100 {
		if agg.HashJoins == 0 || agg.HashBuilds == 0 || agg.IndexNLJoins == 0 || agg.NestedLoops == 0 || agg.Reordered == 0 || oneTable == 0 || drifts == 0 {
			t.Fatalf("joinfuzz corpus missed a strategy: %+v, %d one-table cases, %d drift replans", agg, oneTable, drifts)
		}
	}
}

// fuzzTable describes one generated table. rows is the most rows it has
// held since it last grew (deletes only lower the count in between), and
// ids the primary-key values handed out so far.
type fuzzTable struct {
	name  string
	hasPK bool
	rows  int
	ids   int
}

// Column palette shared by every generated table: three INTEGERs (id, a,
// b), one TEXT and one FLOAT, so join predicates can be drawn from
// type-compatible pairs.
var fuzzCols = []struct{ name, typ string }{
	{"id", "INTEGER"},
	{"a", "INTEGER"},
	{"b", "INTEGER"},
	{"s", "TEXT"},
	{"f", "FLOAT"},
}

// newJoinFuzzDB opens the engine a fuzz case runs against: in-memory by
// default, or — with JOINFUZZ_POOL_PAGES=n — paged storage over a MemVFS
// with an n-frame pool, so the differential sweep doubles as an
// eviction-correctness test when the pool is tiny.
func newJoinFuzzDB(t *testing.T) *DB {
	t.Helper()
	s := os.Getenv("JOINFUZZ_POOL_PAGES")
	if s == "" {
		return New()
	}
	pool, err := strconv.Atoi(s)
	if err != nil || pool <= 0 {
		t.Fatalf("JOINFUZZ_POOL_PAGES=%q: want a positive integer", s)
	}
	db, err := Open(Options{VFS: NewMemVFS(), Path: "joinfuzz.db", PoolPages: pool, PageSize: 1024})
	if err != nil {
		t.Fatalf("Open paged: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// runJoinFuzzCase runs the case of seed, reporting the planner's counters,
// whether its query was ordered, whether it read one table, and how many
// cached plans its growth rounds found drifted.
func runJoinFuzzCase(t *testing.T, seed int64) (s PlannerStats, ordered, oneTable bool, drifts uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := newJoinFuzzDB(t)
	var script []string
	run := func(sql string) {
		script = append(script, sql)
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("joinfuzz seed %d: setup %q: %v", seed, sql, err)
		}
	}

	nt := 1 + rng.Intn(4)
	tables := make([]fuzzTable, nt)
	for ti := 0; ti < nt; ti++ {
		ft := fuzzTable{name: fmt.Sprintf("t%d", ti), hasPK: rng.Intn(2) == 0, rows: rng.Intn(31)}
		ft.ids = ft.rows
		tables[ti] = ft
		var defs []string
		for ci, c := range fuzzCols {
			d := c.name + " " + c.typ
			if ci == 0 && ft.hasPK {
				d += " PRIMARY KEY"
			}
			defs = append(defs, d)
		}
		run(fmt.Sprintf("CREATE TABLE %s (%s)", ft.name, strings.Join(defs, ", ")))
		// Random secondary indexes.
		for n := rng.Intn(3); n > 0; n-- {
			cands := [][]string{{"a"}, {"b"}, {"s"}, {"a", "b"}, {"b", "a"}, {"s", "a"}}
			cols := cands[rng.Intn(len(cands))]
			run(fmt.Sprintf("CREATE INDEX IF NOT EXISTS ix_%s_%d ON %s (%s)",
				ft.name, n, ft.name, strings.Join(cols, ", ")))
		}
		for r := 0; r < ft.rows; r++ {
			id := strconv.Itoa(r + 1) // unique when pk; harmless otherwise
			if !ft.hasPK {
				id = fuzzIntLit(rng)
			}
			run(fmt.Sprintf("INSERT INTO %s VALUES (%s, %s, %s, %s, %s)",
				ft.name, id, fuzzIntLit(rng), fuzzIntLit(rng), fuzzTextLit(rng), fuzzFloatLit(rng)))
		}
	}
	query, where, ordered := buildFuzzQuery(rng, tables)
	oneTable = nt == 1
	fail := func(format string, args ...any) {
		t.Fatalf("joinfuzz seed %d\nsetup:\n  %s\nquery: %s\n%s",
			seed, strings.Join(script, ";\n  "), query, fmt.Sprintf(format, args...))
	}
	want, errW := refQuery(db, query)
	// check diffs one run against want, the oracle's result as of the
	// snapshot it ran in (expect sets it).
	expect := func(ts uint64) { want, errW = refQueryAt(db, ts, query) }
	check := func(run string, got *Rows, err error) {
		if (err != nil) != (errW != nil) {
			fail("%s: error mismatch: engine=%v oracle=%v", run, err, errW)
		}
		if err == nil {
			if d := diffRows(got, want, ordered); d != "" {
				fail("%s: %s", run, d)
			}
		}
	}
	// A one-table WHERE is also an UPDATE target: the rows it affects are
	// the rows the oracle counts.
	checkTarget := func(string) {}
	if oneTable {
		update, count := "UPDATE t0 SET b = b", "SELECT count(*) FROM t0"
		if where != "" {
			update, count = update+" WHERE "+where, count+" WHERE "+where
		}
		checkTarget = func(run string) {
			wantN, errN := refQuery(db, count)
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			res, err := tx.Exec(update)
			tx.Rollback()
			switch {
			case (err != nil) != (errN != nil):
				fail("%s: %s: error mismatch: engine=%v oracle=%v", run, update, err, errN)
			case err == nil && res.RowsAffected != wantN.Data[0][0].Int64():
				fail("%s: %s: %d rows affected, oracle counts %v", run, update, res.RowsAffected, wantN.Data[0][0])
			}
		}
	}

	rows, err := db.Query(query)
	check("snapshot read", rows, err)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rows, err = tx.Query(query)
	tx.Rollback()
	check("locked read", rows, err)
	checkTarget("update target")

	// Schema and cardinality churn — CREATE INDEX, DROP INDEX, or a bulk
	// insert growing one table past twice the rows any plan was costed at
	// — between rounds, each running the query twice: the first replans
	// past the epoch the churn moved, the second runs the plan it cached. A
	// stale plan that survives an epoch bump (or an epoch bump that fails
	// to happen) surfaces as a result that differs from the oracle's. Each
	// round first opens a snapshot and then, before its churn, moves
	// indexed columns of a few rows and deletes a few more: the snapshot,
	// older than the round's index or rows, must read its own rows
	// through it.
	for round := 0; round < 3; round++ {
		snap, err := db.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		script = append(script, "-- snapshot opened")
		ft := tables[rng.Intn(nt)]
		run(fmt.Sprintf("UPDATE %s SET a = %s, b = %s, s = %s WHERE a = %d",
			ft.name, fuzzIntLit(rng), fuzzIntLit(rng), fuzzTextLit(rng), rng.Intn(8)))
		run(fmt.Sprintf("DELETE FROM %s WHERE b = %d", tables[rng.Intn(nt)].name, rng.Intn(8)))
		grown := false
		switch rng.Intn(3) {
		case 0:
			tn := tables[rng.Intn(nt)].name
			run(fmt.Sprintf("CREATE INDEX IF NOT EXISTS ixpc_%s_%d ON %s (b, a)", tn, round, tn))
		case 1:
			run(fmt.Sprintf("DROP INDEX IF EXISTS ix_%s_1", tables[rng.Intn(nt)].name))
		case 2:
			growFuzzTable(t, db, rng, &tables[rng.Intn(nt)], run)
			grown = true
		}
		before := db.PlanCacheStats().Invalidations
		expect(snap.Snapshot())
		rows, err := snap.Query(query)
		snap.Rollback()
		check(fmt.Sprintf("round %d snapshot older than the churn", round), rows, err)
		expect(db.clock.Load())
		for pass := 0; pass < 2; pass++ {
			run := fmt.Sprintf("plan-cache round %d pass %d", round, pass)
			rows, err := db.Query(query)
			check(run, rows, err)
			checkTarget(run)
		}
		if grown {
			drifts += db.PlanCacheStats().Invalidations - before
		}
	}
	return db.PlannerStats(), ordered, oneTable, drifts
}

// growFuzzTable inserts, in one statement, enough rows to take ft past
// twice the most rows it has held since it last grew. A plan is costed at
// a count no higher than that, so every cached plan reading ft leaves the
// drift window (plancache.go) and replans.
func growFuzzTable(t *testing.T, db *DB, rng *rand.Rand, ft *fuzzTable, run func(string)) {
	t.Helper()
	rows, err := db.Query("SELECT count(*) FROM " + ft.name)
	if err != nil {
		t.Fatal(err)
	}
	live := int(rows.Data[0][0].Int64())
	var vals []string
	for n := 2*ft.rows + 1 - live; n > 0; n-- {
		ft.ids++
		id := strconv.Itoa(ft.ids)
		if !ft.hasPK {
			id = fuzzIntLit(rng)
		}
		vals = append(vals, fmt.Sprintf("(%s, %s, %s, %s, %s)",
			id, fuzzIntLit(rng), fuzzIntLit(rng), fuzzTextLit(rng), fuzzFloatLit(rng)))
	}
	run(fmt.Sprintf("INSERT INTO %s VALUES %s", ft.name, strings.Join(vals, ", ")))
	ft.rows = 2*ft.rows + 1
}

// diffRows describes how the engine's result got differs from the
// oracle's want, or returns "" when they agree: row for row when ordered,
// else as multisets (an unordered result has no order to compare).
func diffRows(got, want *Rows, ordered bool) string {
	g, w := canonRows(got), canonRows(want)
	if ordered {
		g, w = canonList(got), canonList(want)
	}
	if len(g) != len(w) {
		return fmt.Sprintf("row count engine=%d oracle=%d\nengine: %v\noracle: %v", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("row %d differs\nengine: %v\noracle: %v", i, g, w)
		}
	}
	return ""
}

// canonList renders a result set as canonical strings in result order.
func canonList(r *Rows) []string {
	out := make([]string, 0, len(r.Data))
	for _, row := range r.Data {
		out = append(out, canonValues(row))
	}
	return out
}

// canonValues renders one row (or index key) as a canonical string.
func canonValues(vs []Value) string {
	var sb strings.Builder
	for _, v := range vs {
		sb.WriteString(v.Type().String())
		sb.WriteByte(':')
		sb.WriteString(v.String())
		sb.WriteByte('|')
	}
	return sb.String()
}

// canonRows renders a result set as sorted canonical strings (joins give
// no ordering guarantee, so results compare as multisets).
func canonRows(r *Rows) []string {
	out := canonList(r)
	sort.Strings(out)
	return out
}

func fuzzIntLit(rng *rand.Rand) string {
	if rng.Intn(100) < 15 {
		return "NULL"
	}
	return strconv.Itoa(rng.Intn(8))
}

func fuzzTextLit(rng *rand.Rand) string {
	if rng.Intn(100) < 15 {
		return "NULL"
	}
	return fmt.Sprintf("'x%d'", rng.Intn(6))
}

func fuzzFloatLit(rng *rand.Rand) string {
	if rng.Intn(100) < 15 {
		return "NULL"
	}
	return []string{"0", "1", "1.5", "2", "3.5", "2.0"}[rng.Intn(6)]
}

// intCols / textCols / floatCols partition the palette by join-key
// compatibility.
var (
	fuzzIntCols   = []string{"id", "a", "b"}
	fuzzFloatCols = []string{"f"}
	fuzzTextCols  = []string{"s"}
)

// fuzzPredicate builds one conjunct. Equality predicates between two
// tables are weighted up so hash joins and index NL paths get exercised;
// the rest are non-equi cross-table comparisons and local predicates.
func fuzzPredicate(rng *rand.Rand, left, right []string) string {
	col := func(aliases []string, pool []string) string {
		return aliases[rng.Intn(len(aliases))] + "." + pool[rng.Intn(len(pool))]
	}
	// Type-compatible pools: ints join ints and floats; text joins text.
	numeric := append(append([]string{}, fuzzIntCols...), fuzzFloatCols...)
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // cross-table equality (numeric)
		return col(right, fuzzIntCols) + " = " + col(left, numeric)
	case 4: // cross-table equality (text)
		return col(right, fuzzTextCols) + " = " + col(left, fuzzTextCols)
	case 5: // cross-table non-equi
		op := []string{"<", "<=", ">", ">=", "<>"}[rng.Intn(5)]
		return col(right, fuzzIntCols) + " " + op + " " + col(left, fuzzIntCols)
	default:
		return fuzzLocalPredicate(rng, right[rng.Intn(len(right))]+".")
	}
}

// fuzzLocalPredicate builds one conjunct over one table's columns, each
// prefixed by qual: an equality, a range or a BETWEEN against constants,
// an IS [NOT] NULL check, or a text equality.
func fuzzLocalPredicate(rng *rand.Rand, qual string) string {
	col := func(pool []string) string { return qual + pool[rng.Intn(len(pool))] }
	switch rng.Intn(5) {
	case 0:
		return col(fuzzIntCols) + " = " + strconv.Itoa(rng.Intn(8))
	case 1:
		op := []string{"<", "<=", ">", ">=", "<>"}[rng.Intn(5)]
		return col(fuzzIntCols) + " " + op + " " + strconv.Itoa(rng.Intn(8))
	case 2:
		lo := rng.Intn(8)
		return fmt.Sprintf("%s BETWEEN %d AND %d", col(fuzzIntCols), lo, lo+rng.Intn(4))
	case 3:
		not := ""
		if rng.Intn(2) == 0 {
			not = "NOT "
		}
		return col([]string{"a", "b", "s", "f"}) + " IS " + not + "NULL"
	default:
		return col(fuzzTextCols) + " = " + fmt.Sprintf("'x%d'", rng.Intn(6))
	}
}

// buildFuzzQuery assembles a one-table query over local predicates, or a
// 2–4-table join with mixed ON/WHERE conjuncts, over the generated tables.
// where is the WHERE clause's text, "" for none. ordered reports a query
// that ends in ORDER BY over every output, LIMIT and OFFSET: its rows
// compare in order.
func buildFuzzQuery(rng *rand.Rand, tables []fuzzTable) (query, where string, ordered bool) {
	n := len(tables)
	aliases := make([]string, n)
	var sb strings.Builder
	sb.WriteString("SELECT ")
	// About a third of the corpus are GROUP BY queries. Aggregate shapes
	// project ONLY grouping keys and aggregates (a non-grouped column's
	// representative row legitimately differs between join orders), and
	// SUM/AVG draw from integer columns only: int sums are exact in
	// float64, while float addition order differs between plans.
	var groupKeys []string
	// sortBy names each output for ORDER BY: its expression or alias, or
	// "" where only its ordinal names it.
	var sortBy []string
	var outs []string
	isAlias := map[string]bool{"cnt": true}
	// as adds an output under an alias: a fresh name, or — where a column
	// name is safe, in ORDER BY alone — one a column carries too, which
	// the alias shadows there.
	as := func(e string, shadow bool) {
		name := fmt.Sprintf("x%d", len(outs))
		if shadow && rng.Intn(2) == 0 {
			name = fuzzCols[1+rng.Intn(len(fuzzCols)-1)].name
		}
		outs, sortBy = append(outs, e+" AS "+name), append(sortBy, name)
		isAlias[name] = true
	}
	// out adds an output, under an alias about a third of the time.
	out := func(e string, shadow bool) {
		if rng.Intn(3) == 0 {
			as(e, shadow)
			return
		}
		outs, sortBy = append(outs, e), append(sortBy, e)
	}
	var aliased []string // grouping keys' aliases, for HAVING
	aggregate := rng.Intn(3) == 0
	if aggregate {
		nk := 1 + rng.Intn(2)
		for k := 0; k < nk; k++ {
			ti := rng.Intn(n)
			c := fuzzCols[rng.Intn(len(fuzzCols))] // any type, incl. FLOAT f
			groupKeys = append(groupKeys, fmt.Sprintf("r%d.%s", ti, c.name))
			out(groupKeys[k], false)
			if isAlias[sortBy[k]] {
				aliased = append(aliased, sortBy[k])
			}
		}
		outs, sortBy = append(outs, "count(*) AS cnt"), append(sortBy, "cnt")
		for i := 0; i < 1+rng.Intn(3); i++ {
			ti := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				out(fmt.Sprintf("sum(r%d.%s)", ti, fuzzIntCols[rng.Intn(len(fuzzIntCols))]), false)
			case 1:
				out(fmt.Sprintf("avg(r%d.%s)", ti, fuzzIntCols[rng.Intn(len(fuzzIntCols))]), false)
			case 2:
				fn := []string{"min", "max"}[rng.Intn(2)]
				c := fuzzCols[rng.Intn(len(fuzzCols))]
				out(fmt.Sprintf("%s(r%d.%s)", fn, ti, c.name), false)
			default:
				c := fuzzCols[rng.Intn(len(fuzzCols))]
				out(fmt.Sprintf("count(DISTINCT r%d.%s)", ti, c.name), false)
			}
		}
	} else if rng.Intn(5) == 0 {
		// A star, and sometimes an output beside it that its alias names.
		outs, sortBy = []string{"*"}, make([]string, n*len(fuzzCols))
		if rng.Intn(2) == 0 {
			as(fmt.Sprintf("r%d.%s", rng.Intn(n), fuzzCols[rng.Intn(len(fuzzCols))].name), true)
		}
	} else {
		for i := 0; i < 2+rng.Intn(3); i++ {
			ti := rng.Intn(n)
			c := fuzzCols[rng.Intn(len(fuzzCols))]
			out(fmt.Sprintf("r%d.%s", ti, c.name), true)
		}
	}
	sb.WriteString(strings.Join(outs, ", "))
	sb.WriteString(" FROM ")
	for i := 0; i < n; i++ {
		aliases[i] = fmt.Sprintf("r%d", i)
		if i == 0 {
			fmt.Fprintf(&sb, "%s r0", tables[0].name)
			continue
		}
		kind := " JOIN "
		if rng.Intn(3) == 0 {
			kind = " LEFT JOIN "
		}
		fmt.Fprintf(&sb, "%s%s r%d ON ", kind, tables[i].name, i)
		nconj := 1 + rng.Intn(2)
		var conjs []string
		for c := 0; c < nconj; c++ {
			conjs = append(conjs, fuzzPredicate(rng, aliases[:i], []string{aliases[i]}))
		}
		sb.WriteString(strings.Join(conjs, " AND "))
	}
	if rng.Intn(3) > 0 {
		var conjs []string
		for c := 0; c < 1+rng.Intn(2); c++ {
			if n == 1 {
				// Bare columns, so the same text can filter an UPDATE.
				conjs = append(conjs, fuzzLocalPredicate(rng, ""))
				continue
			}
			ti := 1 + rng.Intn(n-1)
			conjs = append(conjs, fuzzPredicate(rng, aliases[:ti], []string{aliases[ti]}))
		}
		where = strings.Join(conjs, " AND ")
		sb.WriteString(" WHERE " + where)
	}
	if aggregate {
		sb.WriteString(" GROUP BY " + strings.Join(groupKeys, ", "))
		switch rng.Intn(4) {
		case 0:
			sb.WriteString(" HAVING count(*) >= 2")
		case 1:
			sb.WriteString(" HAVING cnt >= 2") // output alias in HAVING
		case 2:
			if len(aliased) > 0 { // a grouping key's alias
				fmt.Fprintf(&sb, " HAVING %s IS NOT NULL OR cnt > 1", aliased[rng.Intn(len(aliased))])
			}
		}
	}
	if rng.Intn(4) == 0 {
		// Every output a key, so ties are equal rows and the order is one;
		// in any order, so that the key an alias names can lead.
		items := make([]string, len(sortBy))
		for i, name := range sortBy {
			if name == "" || !isAlias[name] && rng.Intn(2) == 0 {
				name = strconv.Itoa(i + 1)
			}
			if rng.Intn(2) == 0 {
				name += " DESC"
			}
			items[i] = name
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		fmt.Fprintf(&sb, " ORDER BY %s LIMIT %d OFFSET %d", strings.Join(items, ", "), rng.Intn(12), rng.Intn(4))
		ordered = true
	}
	return sb.String(), where, ordered
}
