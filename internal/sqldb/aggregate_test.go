package sqldb

// Aggregate-semantics suite for the aggregation stage (executor.go) and
// the oracle, refQuery (refquery_test.go). Every behavioural test runs
// against both, so the oracle the differential suites trust is held to
// the same semantics; a differential section cross-checks the engine
// against the oracle on fixed query shapes. The Int-vs-Float tests are
// regressions for the canonical-key bugfix: GROUP BY, SELECT DISTINCT
// and COUNT(DISTINCT x) previously keyed on the WAL encoding, which
// splits Int 1 and Float 1.0 even though 1 = 1.0 under Compare; the
// equality key (appendEqual) writes an integral FLOAT as its INTEGER.

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// queryFunc runs a SELECT: the engine's (*DB).Query or the oracle.
type queryFunc func(db *DB, sql string, args ...any) (*Rows, error)

// forEachEvaluator runs fn on a fresh subtest once with the engine
// ("hash-batched", the name it has always run under) and once with the
// oracle ("reference").
func forEachEvaluator(t *testing.T, fn func(t *testing.T, query queryFunc)) {
	t.Helper()
	for _, m := range []struct {
		name  string
		query queryFunc
	}{{"hash-batched", (*DB).Query}, {"reference", refQuery}} {
		t.Run(m.name, func(t *testing.T) { fn(t, m.query) })
	}
}

// mustRun is mustQuery through query.
func mustRun(t *testing.T, query queryFunc, db *DB, sql string) *Rows {
	t.Helper()
	rows, err := query(db, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rows
}

// newMixedDB builds a table where coalesce(i, f) yields Int 1 for some
// rows and Float 1.0 for others — the same value under Compare, distinct
// byte strings under the WAL encoding.
func newMixedDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE m (id INTEGER PRIMARY KEY, i INTEGER, f FLOAT, s TEXT)`)
	mustExec(t, db, `INSERT INTO m VALUES
		(1, 1, NULL, 'a'),
		(2, NULL, 1.0, 'b'),
		(3, 1, NULL, 'c'),
		(4, NULL, 2.5, 'd')`)
	return db
}

func TestGroupByIntFloatCanonical(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, query queryFunc) {
		db := newMixedDB(t)
		rows := mustRun(t, query, db, `SELECT coalesce(i, f), count(*) FROM m GROUP BY coalesce(i, f) ORDER BY 2 DESC`)
		if rows.Len() != 2 {
			t.Fatalf("got %d groups, want 2 (Int 1 and Float 1.0 must share a group): %v", rows.Len(), rows.Data)
		}
		if got := rows.Data[0][1].Int64(); got != 3 {
			t.Fatalf("merged group count = %d, want 3", got)
		}
	})
}

func TestSelectDistinctIntFloatCanonical(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, query queryFunc) {
		db := newMixedDB(t)
		rows := mustRun(t, query, db, `SELECT DISTINCT coalesce(i, f) FROM m`)
		if rows.Len() != 2 {
			t.Fatalf("DISTINCT returned %d rows, want 2: %v", rows.Len(), rows.Data)
		}
	})
}

func TestCountDistinctIntFloatCanonical(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, query queryFunc) {
		db := newMixedDB(t)
		rows := mustRun(t, query, db, `SELECT count(DISTINCT coalesce(i, f)) FROM m`)
		if got := rows.Data[0][0].Int64(); got != 2 {
			t.Fatalf("count(DISTINCT) = %d, want 2", got)
		}
	})
}

// TestMinMaxMixedTypeError: MIN/MAX over values of incomparable types
// must surface the Compare error instead of silently keeping whichever
// value arrived first.
func TestMinMaxMixedTypeError(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, query queryFunc) {
		db := newMixedDB(t)
		for _, q := range []string{
			`SELECT min(coalesce(i, s)) FROM m`,
			`SELECT max(coalesce(i, s)) FROM m`,
		} {
			_, err := query(db, q)
			if err == nil || !strings.Contains(err.Error(), "cannot compare") {
				t.Fatalf("%s: err = %v, want mixed-type compare error", q, err)
			}
		}
	})
}

func TestHavingOverOutputAlias(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, query queryFunc) {
		db := newJobsDB(t)
		mustExec(t, db, `INSERT INTO jobs (owner, state) VALUES
			('alice', 'running'), ('alice', 'idle'), ('alice', 'idle'),
			('bob', 'running'), ('carol', 'idle')`)
		rows := mustRun(t, query, db, `SELECT owner, count(*) AS n FROM jobs GROUP BY owner HAVING n >= 2 ORDER BY owner`)
		if rows.Len() != 1 || rows.Data[0][0].Text() != "alice" || rows.Data[0][1].Int64() != 3 {
			t.Fatalf("HAVING over alias returned %v, want [alice 3]", rows.Data)
		}
		// A table column with the same name as an alias must win: state
		// aliased onto a column name resolves to the column, not the output.
		rows = mustRun(t, query, db, `SELECT owner, count(*) AS runtime FROM jobs GROUP BY owner HAVING runtime IS NULL ORDER BY owner`)
		if rows.Len() != 3 {
			t.Fatalf("column-vs-alias precedence: got %d rows, want 3 (runtime column is NULL everywhere): %v", rows.Len(), rows.Data)
		}
	})
}

func TestAggregateNullHandling(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, query queryFunc) {
		db := New()
		defer db.Close()
		mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, v INTEGER)`)
		mustExec(t, db, `INSERT INTO t VALUES (1, 1, 10), (2, 1, NULL), (3, NULL, 7), (4, NULL, NULL), (5, 2, NULL)`)

		// NULL grouping keys form their own group.
		rows := mustRun(t, query, db, `SELECT g, count(*) FROM t GROUP BY g ORDER BY g`)
		if rows.Len() != 3 {
			t.Fatalf("got %d groups, want 3 (NULL, 1, 2): %v", rows.Len(), rows.Data)
		}
		if !rows.Data[0][0].IsNull() || rows.Data[0][1].Int64() != 2 {
			t.Fatalf("NULL group = %v, want [NULL 2]", rows.Data[0])
		}

		// Aggregates ignore NULL inputs: count(v) counts non-NULLs, sum
		// skips them, and an all-NULL group sums to NULL.
		rows = mustRun(t, query, db, `SELECT g, count(v), sum(v), min(v) FROM t GROUP BY g ORDER BY g`)
		null := rows.Data[0] // g IS NULL: v values 7, NULL
		if null[1].Int64() != 1 || null[2].Int64() != 7 || null[3].Int64() != 7 {
			t.Fatalf("NULL group aggs = %v, want count 1 sum 7 min 7", null)
		}
		g2 := rows.Data[2] // g = 2: only NULL v
		if g2[1].Int64() != 0 || !g2[2].IsNull() || !g2[3].IsNull() {
			t.Fatalf("all-NULL group aggs = %v, want count 0 sum NULL min NULL", g2)
		}
	})
}

func TestEmptyInputAggregates(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, query queryFunc) {
		db := New()
		defer db.Close()
		mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)

		// Global aggregate over zero rows: exactly one row, count 0,
		// SUM/AVG/MIN/MAX NULL.
		rows := mustRun(t, query, db, `SELECT count(*), sum(v), avg(v), min(v), max(v) FROM t`)
		if rows.Len() != 1 {
			t.Fatalf("global aggregate over empty table returned %d rows, want 1", rows.Len())
		}
		r := rows.Data[0]
		if r[0].Int64() != 0 || !r[1].IsNull() || !r[2].IsNull() || !r[3].IsNull() || !r[4].IsNull() {
			t.Fatalf("empty-input aggs = %v, want [0 NULL NULL NULL NULL]", r)
		}

		// GROUP BY over zero rows: zero groups.
		rows = mustRun(t, query, db, `SELECT v, count(*) FROM t GROUP BY v`)
		if rows.Len() != 0 {
			t.Fatalf("GROUP BY over empty table returned %d rows, want 0", rows.Len())
		}
	})
}

// TestAggModesDifferential cross-checks the aggregation stage against the
// oracle on fixed query shapes over a deterministic dataset (multisets
// compare canonically; ORDER BY is deliberately absent so neither path's
// iteration order leaks in).
func TestAggModesDifferential(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE d (id INTEGER PRIMARY KEY, g INTEGER, h TEXT, i INTEGER, f FLOAT)`)
	for start := 0; start < 400; start += 100 {
		var sb strings.Builder
		for r := start; r < start+100; r++ {
			if sb.Len() > 0 {
				sb.WriteByte(',')
			}
			g, h, i, f := r%7, r%3, r%11, r%5
			vals := []string{"NULL", "NULL"}
			if r%13 != 0 {
				vals[0] = itoa(i)
			}
			if r%17 != 0 {
				vals[1] = itoa(f) + ".0"
			}
			sb.WriteString("(" + itoa(r) + ", " + itoa(g) + ", 'h" + itoa(h) + "', " + vals[0] + ", " + vals[1] + ")")
		}
		mustExec(t, db, `INSERT INTO d VALUES `+sb.String())
	}
	queries := []string{
		`SELECT g, count(*) FROM d GROUP BY g`,
		`SELECT g, h, count(*), sum(i), avg(i), min(f), max(f) FROM d GROUP BY g, h`,
		`SELECT h, count(DISTINCT i), count(DISTINCT f) FROM d GROUP BY h`,
		`SELECT coalesce(i, f), count(*) FROM d GROUP BY coalesce(i, f)`,
		`SELECT g, count(*) AS n FROM d GROUP BY g HAVING n > 50`,
		`SELECT count(*), sum(i), min(h), max(h) FROM d`,
		`SELECT g + 1, count(*) FROM d WHERE f IS NOT NULL GROUP BY g + 1`,
		`SELECT DISTINCT coalesce(i, f) FROM d`,
	}
	for _, q := range queries {
		if d := diffRows(mustQuery(t, db, q), mustRun(t, refQuery, db, q), false); d != "" {
			t.Fatalf("%s: %s", q, d)
		}
	}
}

func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

// TestExecStatsCounters checks the aggregation observability counters:
// every aggregated statement counts as an AggQueries, one whose every
// group key part is a cell (one TEXT column, two, or none — a global
// aggregate) counts as an AggFastPaths and an expression key does not,
// and input rows / groups accumulate.
func TestExecStatsCounters(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner, state) VALUES
		('alice', 'running'), ('alice', 'idle'), ('bob', 'running')`)

	base := db.ExecStats()
	mustQuery(t, db, `SELECT state, count(*) FROM jobs GROUP BY state`)
	s := db.ExecStats()
	if s.AggQueries != base.AggQueries+1 {
		t.Fatalf("AggQueries = %d, want %d", s.AggQueries, base.AggQueries+1)
	}
	if s.AggFastPaths != base.AggFastPaths+1 {
		t.Fatalf("AggFastPaths = %d, want %d (single TEXT column key)", s.AggFastPaths, base.AggFastPaths+1)
	}
	if s.AggInputRows != base.AggInputRows+3 || s.AggGroups != base.AggGroups+2 {
		t.Fatalf("input/groups = %d/%d, want +3/+2 over %d/%d", s.AggInputRows, s.AggGroups, base.AggInputRows, base.AggGroups)
	}

	// A global aggregate and a two-column key are cell-keyed too; an
	// expression key is not.
	mustQuery(t, db, `SELECT count(*) FROM jobs`)
	if s2 := db.ExecStats(); s2.AggFastPaths != s.AggFastPaths+1 {
		t.Fatalf("global AggFastPaths = %d, want %d", s2.AggFastPaths, s.AggFastPaths+1)
	}
	mustQuery(t, db, `SELECT owner, state, count(*) FROM jobs GROUP BY owner, state`)
	if s3 := db.ExecStats(); s3.AggFastPaths != s.AggFastPaths+2 {
		t.Fatalf("two-column key: AggFastPaths = %d, want %d", s3.AggFastPaths, s.AggFastPaths+2)
	}
	mustQuery(t, db, `SELECT coalesce(owner, state), count(*) FROM jobs GROUP BY coalesce(owner, state)`)
	if s4 := db.ExecStats(); s4.AggFastPaths != s.AggFastPaths+2 || s4.AggQueries != s.AggQueries+3 {
		t.Fatalf("expression key: AggFastPaths = %d, want %d (AggQueries %d, want %d)",
			s4.AggFastPaths, s.AggFastPaths+2, s4.AggQueries, s.AggQueries+3)
	}
}

// TestExplainHashAggregate pins the EXPLAIN rendering of the aggregation
// step for the monitoring-tier query shapes.
func TestExplainHashAggregate(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner, state) VALUES ('alice', 'running'), ('bob', 'idle')`)

	rows := mustQuery(t, db, `EXPLAIN SELECT state, count(*) FROM jobs GROUP BY state`)
	last := rows.Data[rows.Len()-1]
	if got := last[1].Text(); got != "HASH AGGREGATE (state)" {
		t.Fatalf("EXPLAIN agg step = %q, want HASH AGGREGATE (state)", got)
	}
	if last[0].Text() != "-" || last[3].Text() != "-" {
		t.Fatalf("agg step table/join = %q/%q, want -/-", last[0].Text(), last[3].Text())
	}

	rows = mustQuery(t, db, `EXPLAIN SELECT count(*) FROM jobs`)
	last = rows.Data[rows.Len()-1]
	if got := last[1].Text(); got != "HASH AGGREGATE" {
		t.Fatalf("global agg step = %q, want HASH AGGREGATE", got)
	}
	if est := last[4].Int64(); est != 1 {
		t.Fatalf("global agg estimate = %d, want 1", est)
	}

	// Non-aggregated SELECTs keep their plan unchanged.
	rows = mustQuery(t, db, `EXPLAIN SELECT owner FROM jobs WHERE state = 'idle'`)
	for _, r := range rows.Data {
		if strings.Contains(r[1].Text(), "AGGREGATE") {
			t.Fatalf("non-aggregated EXPLAIN grew an aggregate step: %v", rows.Data)
		}
	}
}

// TestEqualKeyEdgeCases holds the one equality key — hash join, GROUP BY,
// DISTINCT — to `=` where its encoding could drift: FLOAT 0 and -0 (one
// group, one join key), an INTEGER column hash-joined to a FLOAT one
// (1 = 1.0), a key read on the padded side of a LEFT JOIN (one NULL group),
// more groups than the linear list keeps, and a key of two cells with a
// NULL in some. Each result must be the expected one, through the engine
// and through the oracle alike.
func TestEqualKeyEdgeCases(t *testing.T) {
	fixture := func(t *testing.T) *DB {
		db := New()
		t.Cleanup(func() { db.Close() })
		mustExec(t, db, `CREATE TABLE fk (id INTEGER PRIMARY KEY, f FLOAT, owner TEXT, state TEXT)`)
		mustExec(t, db, `INSERT INTO fk VALUES (?, ?, ?, ?)`, 1, 0.0, "alice", "idle")
		mustExec(t, db, `INSERT INTO fk VALUES (?, ?, ?, ?)`, 2, math.Copysign(0, -1), "alice", "running")
		mustExec(t, db, `INSERT INTO fk VALUES
			(3, 1.0, 'bob', 'idle'), (4, 2.5, 'bob', 'idle'), (5, NULL, 'alice', 'idle'),
			(6, 3.0, NULL, 'idle'), (7, 4.0, NULL, 'idle')`)
		// it.i is INTEGER 0..59; fl.f is FLOAT, three integral values (0,
		// -0, 1) then halves that match nothing. No index on either join
		// column, and both sides big enough that a hash join wins.
		mustExec(t, db, `CREATE TABLE it (id INTEGER PRIMARY KEY, i INTEGER, g INTEGER, tag TEXT)`)
		mustExec(t, db, `CREATE TABLE fl (id INTEGER PRIMARY KEY, f FLOAT)`)
		for id := 1; id <= 60; id++ {
			mustExec(t, db, `INSERT INTO it VALUES (?, ?, ?, ?)`, id, id-1, id%40, "t"+itoa(id))
			f := float64(id) + 0.5
			switch id {
			case 1:
				f = 0
			case 2:
				f = math.Copysign(0, -1)
			case 3:
				f = 1
			}
			mustExec(t, db, `INSERT INTO fl VALUES (?, ?)`, id, f)
		}
		return db
	}
	var wide []string // GROUP BY g over it: g = id % 40, twice for 1..20
	for g := 0; g < 40; g++ {
		n := 1
		if g >= 1 && g <= 20 {
			n = 2
		}
		wide = append(wide, "INTEGER:"+itoa(g)+"|INTEGER:"+itoa(n)+"|")
	}
	cases := []struct {
		name, sql string
		want      []string // canonRows
		hashJoin  bool     // EXPLAIN must show a HASH JOIN
	}{
		{"zero and minus zero group", `SELECT count(*) FROM fk GROUP BY f`,
			[]string{"INTEGER:1|", "INTEGER:1|", "INTEGER:1|", "INTEGER:1|", "INTEGER:1|", "INTEGER:2|"}, false},
		{"zero and minus zero distinct", `SELECT count(DISTINCT f) FROM fk`, []string{"INTEGER:5|"}, false},
		{"zero and minus zero and 1 = 1.0 join", `SELECT fl.id, it.i FROM fl JOIN it ON it.i = fl.f`,
			[]string{"INTEGER:1|INTEGER:0|", "INTEGER:2|INTEGER:0|", "INTEGER:3|INTEGER:1|"}, true},
		{"padded side groups as one NULL", `SELECT it.tag, count(*) FROM fl LEFT JOIN it ON it.i = fl.f GROUP BY it.tag`,
			[]string{"NULL:NULL|INTEGER:57|", "TEXT:'t1'|INTEGER:2|", "TEXT:'t2'|INTEGER:1|"}, true},
		{"past the linear list", `SELECT g, count(*) FROM it GROUP BY g`, wide, false},
		{"two cells", `SELECT owner, state, count(*) FROM fk GROUP BY owner, state`,
			[]string{"NULL:NULL|TEXT:'idle'|INTEGER:2|", "TEXT:'alice'|TEXT:'idle'|INTEGER:2|",
				"TEXT:'alice'|TEXT:'running'|INTEGER:1|", "TEXT:'bob'|TEXT:'idle'|INTEGER:2|"}, false},
	}
	sort.Strings(wide)
	forEachEvaluator(t, func(t *testing.T, query queryFunc) {
		db := fixture(t)
		for _, c := range cases {
			got := mustRun(t, query, db, c.sql)
			if g := canonRows(got); !reflect.DeepEqual(g, c.want) {
				t.Errorf("%s: %s\n got %v\nwant %v", c.name, c.sql, g, c.want)
			}
			if d := diffRows(got, mustRun(t, refQuery, db, c.sql), false); d != "" {
				t.Errorf("%s: %s: %s", c.name, c.sql, d)
			}
			if c.hashJoin && !strings.Contains(canonList(mustQuery(t, db, "EXPLAIN "+c.sql))[1], "HASH JOIN") {
				t.Errorf("%s: no HASH JOIN in %v", c.name, canonList(mustQuery(t, db, "EXPLAIN "+c.sql)))
			}
		}
	})
}
