package sqldb

// Tests for the cost-based join layer: LEFT JOIN edge semantics through
// hash joins (NULL padding, ON-vs-WHERE placement, duplicate build keys,
// empty build/probe inputs), row-count-driven reordering, and the
// extended EXPLAIN output. Everything result-shaped is cross-checked
// against the oracle, refQuery.

import (
	"fmt"
	"strings"
	"testing"
)

// crossCheck runs sql through the engine and the oracle and fails on any
// difference, returning the engine's result.
func crossCheck(t *testing.T, db *DB, sql string, args ...any) *Rows {
	t.Helper()
	planned, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	ref, err := refQuery(db, sql, args...)
	if err != nil {
		t.Fatalf("refQuery(%q): %v", sql, err)
	}
	if d := diffRows(planned, ref, false); d != "" {
		t.Fatalf("%q: %s", sql, d)
	}
	return planned
}

// explainPlan returns the EXPLAIN rows for sql as (table, access, join)
// triples in execution order.
func explainPlan(t *testing.T, db *DB, sql string, args ...any) [][3]string {
	t.Helper()
	rows := mustQuery(t, db, "EXPLAIN "+sql, args...)
	out := make([][3]string, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, [3]string{r[0].Text(), r[1].Text(), r[3].Text()})
	}
	return out
}

// hashJoinFixture builds two tables sized so the planner picks a hash
// join for the k-equi-join (no index on k, both sides too big for nested
// loops).
func hashJoinFixture(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE outer_t (id INTEGER PRIMARY KEY, k INTEGER, tag TEXT)`)
	mustExec(t, db, `CREATE TABLE inner_t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)`)
	for i := 1; i <= 120; i++ {
		mustExec(t, db, `INSERT INTO outer_t VALUES (?, ?, ?)`, i, i%40, fmt.Sprintf("o%d", i))
	}
	// Inner covers only k < 30: outer rows with k in [30,40) stay
	// unmatched. Duplicate keys on both sides.
	for i := 1; i <= 90; i++ {
		mustExec(t, db, `INSERT INTO inner_t VALUES (?, ?, ?)`, i, i%30, fmt.Sprintf("v%d", i))
	}
	return db
}

func TestHashJoinChosenAndCorrect(t *testing.T) {
	db := hashJoinFixture(t)
	plan := explainPlan(t, db, `SELECT o.id, i.v FROM outer_t o JOIN inner_t i ON i.k = o.k`)
	found := false
	for _, p := range plan {
		if strings.Contains(p[2], "HASH JOIN") {
			found = true
		}
	}
	if !found {
		t.Fatalf("equi-join over unindexed keys should hash, plan = %v", plan)
	}
	rows := crossCheck(t, db, `SELECT o.id, i.v FROM outer_t o JOIN inner_t i ON i.k = o.k`)
	// Every outer row with k < 30 matches 3 inner rows (90 rows, k = i%30).
	want := 0
	for i := 1; i <= 120; i++ {
		if i%40 < 30 {
			want += 3
		}
	}
	if rows.Len() != want {
		t.Fatalf("hash join returned %d rows, want %d", rows.Len(), want)
	}
	if s := db.PlannerStats(); s.HashJoins == 0 || s.HashBuildRows == 0 || s.HashProbeRows == 0 {
		t.Fatalf("planner stats did not record the hash join: %+v", s)
	}
}

func TestHashJoinLeftPaddingNulls(t *testing.T) {
	db := hashJoinFixture(t)
	plan := explainPlan(t, db, `SELECT o.id, i.v FROM outer_t o LEFT JOIN inner_t i ON i.k = o.k`)
	if !strings.Contains(plan[1][2], "HASH JOIN") {
		t.Fatalf("LEFT equi-join should hash, plan = %v", plan)
	}
	rows := crossCheck(t, db, `SELECT o.id, o.k, i.v FROM outer_t o LEFT JOIN inner_t i ON i.k = o.k`)
	padded := 0
	for _, r := range rows.Data {
		if r[2].IsNull() {
			padded++
			if k := r[1].Int64(); k < 30 {
				t.Fatalf("outer row with k=%d should have matched, got NULL padding", k)
			}
		}
	}
	// Outer ks cycle 1..40 over 120 rows: 30 rows carry k in [30,40).
	if padded != 30 {
		t.Fatalf("padded rows = %d, want 30", padded)
	}
}

func TestLeftJoinOnVsWherePlacement(t *testing.T) {
	db := hashJoinFixture(t)
	// Filter in ON: unmatched-by-filter outer rows remain, padded.
	onRows := crossCheck(t, db,
		`SELECT o.id, i.id FROM outer_t o LEFT JOIN inner_t i ON i.k = o.k AND i.v = 'v5'`)
	if onRows.Len() != 120 {
		t.Fatalf("ON-clause filter must keep all 120 outer rows, got %d", onRows.Len())
	}
	matched := 0
	for _, r := range onRows.Data {
		if !r[1].IsNull() {
			matched++
		}
	}
	// v5 is inner id 5 (k=5); outer has 3 rows with k=5.
	if matched != 3 {
		t.Fatalf("ON-filtered matches = %d, want 3", matched)
	}
	// The same predicate in WHERE drops the padded rows after the join.
	whereRows := crossCheck(t, db,
		`SELECT o.id, i.id FROM outer_t o LEFT JOIN inner_t i ON i.k = o.k WHERE i.v = 'v5'`)
	if whereRows.Len() != 3 {
		t.Fatalf("WHERE filter after LEFT JOIN should leave 3 rows, got %d", whereRows.Len())
	}
	// WHERE IS NULL keeps exactly the padded rows (anti-join idiom).
	antiRows := crossCheck(t, db,
		`SELECT o.id FROM outer_t o LEFT JOIN inner_t i ON i.k = o.k WHERE i.id IS NULL`)
	if antiRows.Len() != 30 {
		t.Fatalf("anti-join rows = %d, want 30", antiRows.Len())
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE l (k INTEGER, n INTEGER)`)
	mustExec(t, db, `CREATE TABLE r (k INTEGER, m INTEGER)`)
	// 60 rows per side over only 3 distinct keys: heavy duplication in the
	// build table, quadratic match fan-out.
	for i := 0; i < 60; i++ {
		mustExec(t, db, `INSERT INTO l VALUES (?, ?)`, i%3, i)
		mustExec(t, db, `INSERT INTO r VALUES (?, ?)`, i%3, i)
	}
	rows := crossCheck(t, db, `SELECT l.n, r.m FROM l JOIN r ON l.k = r.k`)
	if rows.Len() != 3*20*20 {
		t.Fatalf("duplicate-key join rows = %d, want %d", rows.Len(), 3*20*20)
	}
}

func TestHashJoinEmptyBuildInput(t *testing.T) {
	db := hashJoinFixture(t)
	// The build-side local filter rejects every inner row: the hash table
	// is empty, and a LEFT JOIN must pad all 120 outer rows.
	rows := crossCheck(t, db,
		`SELECT o.id, i.id FROM outer_t o LEFT JOIN inner_t i ON i.k = o.k AND i.v = 'nope'`)
	if rows.Len() != 120 {
		t.Fatalf("rows = %d, want 120 padded", rows.Len())
	}
	for _, r := range rows.Data {
		if !r[1].IsNull() {
			t.Fatalf("expected NULL padding, got %v", r)
		}
	}
	// Inner join over the empty build yields nothing.
	rows = crossCheck(t, db,
		`SELECT o.id FROM outer_t o JOIN inner_t i ON i.k = o.k AND i.v = 'nope'`)
	if rows.Len() != 0 {
		t.Fatalf("inner join over empty build returned %d rows", rows.Len())
	}
}

func TestHashJoinEmptyProbeInput(t *testing.T) {
	db := hashJoinFixture(t)
	// The driver-side filter rejects every outer row at runtime while the
	// estimates still favor a hash join: zero probes, zero results.
	rows := crossCheck(t, db,
		`SELECT o.id, i.id FROM outer_t o JOIN inner_t i ON i.k = o.k WHERE o.tag = 'absent'`)
	if rows.Len() != 0 {
		t.Fatalf("empty probe side returned %d rows", rows.Len())
	}
	rows = crossCheck(t, db,
		`SELECT o.id, i.id FROM outer_t o LEFT JOIN inner_t i ON i.k = o.k WHERE o.tag = 'absent'`)
	if rows.Len() != 0 {
		t.Fatalf("LEFT JOIN with empty preserved side returned %d rows", rows.Len())
	}
}

func TestHashJoinBuildOuterSide(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE small (k INTEGER, t TEXT)`)
	mustExec(t, db, `CREATE TABLE big (k INTEGER, v INTEGER)`)
	for i := 0; i < 8; i++ {
		mustExec(t, db, `INSERT INTO small VALUES (?, ?)`, i, fmt.Sprintf("s%d", i))
	}
	for i := 0; i < 400; i++ {
		mustExec(t, db, `INSERT INTO big VALUES (?, ?)`, i%16, i)
	}
	plan := explainPlan(t, db, `SELECT s.t, b.v FROM small s JOIN big b ON b.k = s.k`)
	if !strings.Contains(plan[1][2], "BUILD OUTER") {
		t.Logf("plan = %v (build side is an estimate; correctness checked below)", plan)
	}
	rows := crossCheck(t, db, `SELECT s.t, b.v FROM small s JOIN big b ON b.k = s.k`)
	if rows.Len() != 8*25 {
		t.Fatalf("rows = %d, want %d", rows.Len(), 8*25)
	}
	// LEFT variant with an unmatchable extra key range: the outer build's
	// match bits decide the padding.
	mustExec(t, db, `INSERT INTO small VALUES (99, 'lonely')`)
	rows = crossCheck(t, db, `SELECT s.t, b.v FROM small s LEFT JOIN big b ON b.k = s.k`)
	lonely := 0
	for _, r := range rows.Data {
		if r[1].IsNull() {
			if r[0].Text() != "lonely" {
				t.Fatalf("unexpected padded row %v", r)
			}
			lonely++
		}
	}
	if lonely != 1 {
		t.Fatalf("padded rows = %d, want 1", lonely)
	}
}

func TestJoinReorderUsesStatistics(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE huge (id INTEGER PRIMARY KEY, ref INTEGER)`)
	mustExec(t, db, `CREATE TABLE tiny (id INTEGER PRIMARY KEY, name TEXT)`)
	for i := 1; i <= 500; i++ {
		mustExec(t, db, `INSERT INTO huge VALUES (?, ?)`, i, i%5+1)
	}
	for i := 1; i <= 5; i++ {
		mustExec(t, db, `INSERT INTO tiny VALUES (?, ?)`, i, fmt.Sprintf("t%d", i))
	}
	// Syntactically huge comes first; the planner should drive from tiny
	// (filtered to one row by pk) and probe huge.
	sql := `SELECT h.id, t.name FROM huge h JOIN tiny t ON t.id = h.ref WHERE t.id = 3`
	before := db.PlannerStats().Reordered
	plan := explainPlan(t, db, sql)
	if plan[0][0] != "tiny" {
		t.Fatalf("driver should be tiny, plan = %v", plan)
	}
	if after := db.PlannerStats().Reordered; after == before {
		t.Fatal("reorder counter did not move")
	}
	rows := crossCheck(t, db, sql)
	if rows.Len() != 100 {
		t.Fatalf("rows = %d, want 100", rows.Len())
	}
}

func TestSnapshotReadsFlowThroughHashJoinsLockFree(t *testing.T) {
	db := hashJoinFixture(t)
	before := db.LockStats()
	rows := mustQuery(t, db, `SELECT o.id, i.v FROM outer_t o JOIN inner_t i ON i.k = o.k`)
	if rows.Len() == 0 {
		t.Fatal("join returned nothing")
	}
	after := db.LockStats()
	if after.Acquired != before.Acquired || after.Waited != before.Waited {
		t.Fatalf("snapshot hash join touched the lock manager: before=%+v after=%+v", before, after)
	}
	plan := mustQuery(t, db, `EXPLAIN SELECT o.id, i.v FROM outer_t o JOIN inner_t i ON i.k = o.k`)
	for _, r := range plan.Data {
		if r[2].Text() != "SNAPSHOT READ" {
			t.Fatalf("autocommit join should read from snapshot, got %v", plan.Data)
		}
	}
}

func TestHashJoinInReadWriteTransaction(t *testing.T) {
	db := hashJoinFixture(t)
	// Inside a read-write transaction the join reads locked (2PL): the
	// build scan takes the table locks its access path calls for, and the
	// result matches the snapshot run.
	snap := mustQuery(t, db, `SELECT o.id, i.v FROM outer_t o JOIN inner_t i ON i.k = o.k`)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tx.Query(`SELECT o.id, i.v FROM outer_t o JOIN inner_t i ON i.k = o.k`)
	if err != nil {
		t.Fatalf("join in read-write tx: %v", err)
	}
	if rows.Len() != snap.Len() {
		t.Fatalf("locked join rows = %d, snapshot rows = %d", rows.Len(), snap.Len())
	}
	if held := db.LockStats().HeldTable; held == 0 {
		t.Fatal("read-write join should hold table locks")
	}
	// The same transaction can update rows it joined over.
	if _, err := tx.Exec(`UPDATE outer_t SET tag = 'seen' WHERE id = 1`); err != nil {
		t.Fatalf("update after join: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinWithAggregateAndGroupBy(t *testing.T) {
	db := hashJoinFixture(t)
	rows := crossCheck(t, db,
		`SELECT o.k, count(*) FROM outer_t o JOIN inner_t i ON i.k = o.k GROUP BY o.k ORDER BY o.k`)
	if rows.Len() != 30 {
		t.Fatalf("groups = %d, want 30", rows.Len())
	}
	for _, r := range rows.Data {
		if r[1].Int64() != 9 {
			t.Fatalf("group %v: count %d, want 9 (3 outer x 3 inner per key)", r[0], r[1].Int64())
		}
	}
}

func TestThreeWaySegmentReorderWithLeftBarrier(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER)`)
	mustExec(t, db, `CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER)`)
	mustExec(t, db, `CREATE TABLE c (id INTEGER PRIMARY KEY, bid INTEGER)`)
	for i := 1; i <= 50; i++ {
		mustExec(t, db, `INSERT INTO a VALUES (?, ?)`, i, i%7)
		mustExec(t, db, `INSERT INTO b VALUES (?, ?)`, i, i)
		if i <= 25 {
			mustExec(t, db, `INSERT INTO c VALUES (?, ?)`, i, i)
		}
	}
	// LEFT JOIN is a reorder barrier: a/b may swap, c stays last.
	sql := `SELECT a.id, c.id FROM a JOIN b ON b.aid = a.id LEFT JOIN c ON c.bid = b.id WHERE a.x = 3`
	plan := explainPlan(t, db, sql)
	if plan[2][0] != "c" {
		t.Fatalf("LEFT-joined table must stay last, plan = %v", plan)
	}
	rows := crossCheck(t, db, sql)
	if rows.Len() != 7 { // a.x = 3 → ids 3,10,17,24,31,38,45
		t.Fatalf("rows = %d, want 7", rows.Len())
	}
	padded := 0
	for _, r := range rows.Data {
		if r[1].IsNull() {
			padded++
		}
	}
	if padded != 3 { // c covers b.id ≤ 25: ids 31, 38, 45 come back padded
		t.Fatalf("padded = %d, want 3", padded)
	}
}
