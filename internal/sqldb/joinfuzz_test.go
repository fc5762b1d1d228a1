package sqldb

// Differential join fuzzer: random small schemas, data, and 2–4-table
// INNER/LEFT join queries with mixed ON/WHERE conjuncts are executed
// twice — through the cost-based planner (hash joins, index nested
// loops, reordering) and through the forced nested-loop reference path —
// and the sorted result sets must be identical.
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
	for i := 0; i < cases; i++ {
		s := runJoinFuzzCase(t, base+int64(i))
		if t.Failed() {
			return
		}
		agg.HashJoins += s.HashJoins
		agg.IndexNLJoins += s.IndexNLJoins
		agg.NestedLoops += s.NestedLoops
		agg.Reordered += s.Reordered
	}
	t.Logf("joinfuzz coverage over %d cases: hash=%d indexNL=%d nestedLoop=%d reordered=%d",
		cases, agg.HashJoins, agg.IndexNLJoins, agg.NestedLoops, agg.Reordered)
	// The corpus must actually exercise every strategy — a fuzzer that
	// only ever plans nested loops proves nothing about hash joins.
	if cases >= 100 {
		if agg.HashJoins == 0 || agg.IndexNLJoins == 0 || agg.NestedLoops == 0 || agg.Reordered == 0 {
			t.Fatalf("joinfuzz corpus missed a strategy: %+v", agg)
		}
	}
}

// fuzzTable describes one generated table.
type fuzzTable struct {
	name  string
	hasPK bool
	rows  int
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

func runJoinFuzzCase(t *testing.T, seed int64) PlannerStats {
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

	nt := 2 + rng.Intn(3)
	tables := make([]fuzzTable, nt)
	for ti := 0; ti < nt; ti++ {
		ft := fuzzTable{name: fmt.Sprintf("t%d", ti), hasPK: rng.Intn(2) == 0, rows: rng.Intn(31)}
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
	if rng.Intn(2) == 0 {
		run("ANALYZE")
	}

	query := buildFuzzQuery(rng, tables)

	// The cost-based run also uses the batched hash-aggregation operator;
	// the reference run pairs forced nested loops with the row-at-a-time
	// aggregation path, so GROUP BY shapes differentially test both the
	// join planner and the executor.
	db.SetPlannerMode(PlannerCostBased)
	db.SetAggMode(AggHashBatched)
	planned, errP := db.Query(query)
	db.SetPlannerMode(PlannerForceNestedLoop)
	db.SetAggMode(AggReference)
	reference, errR := db.Query(query)

	fail := func(format string, args ...any) {
		t.Fatalf("joinfuzz seed %d\nsetup:\n  %s\nquery: %s\n%s",
			seed, strings.Join(script, ";\n  "), query, fmt.Sprintf(format, args...))
	}
	if (errP != nil) != (errR != nil) {
		fail("error mismatch: cost-based=%v reference=%v", errP, errR)
	}
	if errP != nil {
		return db.PlannerStats() // both errored identically: fine
	}
	got := canonRows(planned)
	want := canonRows(reference)
	if len(got) != len(want) {
		fail("row count mismatch: cost-based=%d reference=%d\ncost-based: %v\nreference: %v",
			len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			fail("row %d mismatch:\ncost-based: %v\nreference: %v", i, got, want)
		}
	}

	// Plan-cache differential: re-run the query through cached plans vs a
	// forced fresh compile, with schema and statistics churn interleaved
	// between rounds — CREATE INDEX, DROP INDEX, ANALYZE — so stale plans
	// that survive an epoch bump (or epoch bumps that fail to happen)
	// surface as result divergence.
	db.SetPlannerMode(PlannerCostBased)
	db.SetAggMode(AggHashBatched)
	for round := 0; round < 3; round++ {
		switch rng.Intn(3) {
		case 0:
			tn := tables[rng.Intn(nt)].name
			run(fmt.Sprintf("CREATE INDEX IF NOT EXISTS ixpc_%s_%d ON %s (b, a)", tn, round, tn))
		case 1:
			run(fmt.Sprintf("DROP INDEX IF EXISTS ix_%s_1", tables[rng.Intn(nt)].name))
		case 2:
			run("ANALYZE")
		}
		db.SetPlanCacheMode(PlanCacheOn)
		cached, errC := db.Query(query)
		db.SetPlanCacheMode(PlanCacheOff)
		fresh, errF := db.Query(query)
		db.SetPlanCacheMode(PlanCacheOn)
		if (errC != nil) != (errF != nil) {
			fail("plan-cache round %d error mismatch: cached=%v fresh=%v", round, errC, errF)
		}
		if errC != nil {
			continue
		}
		gotC, wantF := canonRows(cached), canonRows(fresh)
		if len(gotC) != len(wantF) {
			fail("plan-cache round %d row count mismatch: cached=%d fresh=%d",
				round, len(gotC), len(wantF))
		}
		for i := range gotC {
			if gotC[i] != wantF[i] {
				fail("plan-cache round %d row %d mismatch:\ncached: %v\nfresh: %v",
					round, i, gotC, wantF)
			}
		}
	}
	return db.PlannerStats()
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
	out := make([]string, 0, len(r.Data))
	for _, row := range r.Data {
		out = append(out, canonValues(row))
	}
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
// the rest are column-vs-constant comparisons, IS NULL checks, and
// non-equi cross-table comparisons.
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
	case 6: // local equality against a constant
		return col(right, fuzzIntCols) + " = " + strconv.Itoa(rng.Intn(8))
	case 7: // local range
		op := []string{"<", "<=", ">", ">="}[rng.Intn(4)]
		return col(right, fuzzIntCols) + " " + op + " " + strconv.Itoa(rng.Intn(8))
	case 8: // IS [NOT] NULL
		not := ""
		if rng.Intn(2) == 0 {
			not = "NOT "
		}
		return col(right, []string{"a", "b", "s", "f"}) + " IS " + not + "NULL"
	default: // local text equality
		return col(right, fuzzTextCols) + " = " + fmt.Sprintf("'x%d'", rng.Intn(6))
	}
}

// buildFuzzQuery assembles a 2–4-table join with mixed ON/WHERE
// conjuncts over the generated tables.
func buildFuzzQuery(rng *rand.Rand, tables []fuzzTable) string {
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
	aggregate := rng.Intn(3) == 0
	if aggregate {
		nk := 1 + rng.Intn(2)
		for k := 0; k < nk; k++ {
			ti := rng.Intn(n)
			c := fuzzCols[rng.Intn(len(fuzzCols))] // any type, incl. FLOAT f
			groupKeys = append(groupKeys, fmt.Sprintf("r%d.%s", ti, c.name))
		}
		outs := append([]string{}, groupKeys...)
		outs = append(outs, "count(*) AS cnt")
		for i := 0; i < 1+rng.Intn(3); i++ {
			ti := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				outs = append(outs, fmt.Sprintf("sum(r%d.%s)", ti, fuzzIntCols[rng.Intn(len(fuzzIntCols))]))
			case 1:
				outs = append(outs, fmt.Sprintf("avg(r%d.%s)", ti, fuzzIntCols[rng.Intn(len(fuzzIntCols))]))
			case 2:
				fn := []string{"min", "max"}[rng.Intn(2)]
				c := fuzzCols[rng.Intn(len(fuzzCols))]
				outs = append(outs, fmt.Sprintf("%s(r%d.%s)", fn, ti, c.name))
			default:
				c := fuzzCols[rng.Intn(len(fuzzCols))]
				outs = append(outs, fmt.Sprintf("count(DISTINCT r%d.%s)", ti, c.name))
			}
		}
		sb.WriteString(strings.Join(outs, ", "))
	} else if rng.Intn(5) == 0 {
		sb.WriteString("*")
	} else {
		var outs []string
		for i := 0; i < 2+rng.Intn(3); i++ {
			ti := rng.Intn(n)
			c := fuzzCols[rng.Intn(len(fuzzCols))]
			outs = append(outs, fmt.Sprintf("r%d.%s", ti, c.name))
		}
		sb.WriteString(strings.Join(outs, ", "))
	}
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
			ti := 1 + rng.Intn(n-1)
			conjs = append(conjs, fuzzPredicate(rng, aliases[:ti], []string{aliases[ti]}))
		}
		sb.WriteString(" WHERE " + strings.Join(conjs, " AND "))
	}
	if aggregate {
		sb.WriteString(" GROUP BY " + strings.Join(groupKeys, ", "))
		switch rng.Intn(4) {
		case 0:
			sb.WriteString(" HAVING count(*) >= 2")
		case 1:
			sb.WriteString(" HAVING cnt >= 2") // output alias in HAVING
		}
	}
	return sb.String()
}
