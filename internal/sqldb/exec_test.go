package sqldb

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func mustExec(t *testing.T, db *DB, sql string, args ...any) Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, db *DB, sql string, args ...any) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows
}

func newJobsDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE jobs (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		owner TEXT NOT NULL,
		state TEXT NOT NULL DEFAULT 'idle',
		runtime INTEGER,
		priority FLOAT DEFAULT 0.5
	)`)
	mustExec(t, db, `CREATE INDEX jobs_state ON jobs (state)`)
	return db
}

func TestInsertSelectBasic(t *testing.T) {
	db := newJobsDB(t)
	res := mustExec(t, db, `INSERT INTO jobs (owner, runtime) VALUES ('alice', 60), ('bob', 120)`)
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	if res.LastInsertID != 2 {
		t.Fatalf("LastInsertID = %d", res.LastInsertID)
	}
	rows := mustQuery(t, db, `SELECT id, owner, state, runtime, priority FROM jobs ORDER BY id`)
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}
	r0 := rows.Data[0]
	if r0[0].Int64() != 1 || r0[1].Text() != "alice" || r0[2].Text() != "idle" ||
		r0[3].Int64() != 60 || r0[4].Float64() != 0.5 {
		t.Fatalf("row0 = %v", r0)
	}
}

func TestSelectStar(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('a')`)
	rows := mustQuery(t, db, `SELECT * FROM jobs`)
	want := []string{"id", "owner", "state", "runtime", "priority"}
	if strings.Join(rows.Columns, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v", rows.Columns)
	}
}

func TestWhereWithParamsAndIndex(t *testing.T) {
	db := newJobsDB(t)
	for i := 0; i < 50; i++ {
		state := "idle"
		if i%2 == 0 {
			state = "running"
		}
		mustExec(t, db, `INSERT INTO jobs (owner, state) VALUES (?, ?)`, "u", state)
	}
	var got StmtStats
	db.SetStatsHook(func(s StmtStats) {
		if s.Kind == "SELECT" {
			got = s
		}
	})
	rows := mustQuery(t, db, `SELECT id FROM jobs WHERE state = ?`, "idle")
	if rows.Len() != 25 {
		t.Fatalf("rows = %d", rows.Len())
	}
	if !got.UsedIndex {
		t.Fatal("expected index scan on jobs_state")
	}
	if got.RowsScanned != 25 {
		t.Fatalf("RowsScanned = %d, want 25 (index selectivity)", got.RowsScanned)
	}
}

func TestUpdateWithIndexAndWhere(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner, state) VALUES ('a','idle'),('b','idle'),('c','running')`)
	res := mustExec(t, db, `UPDATE jobs SET state = 'matched', runtime = 5 WHERE state = 'idle'`)
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	rows := mustQuery(t, db, `SELECT count(*) FROM jobs WHERE state = 'matched'`)
	if rows.Data[0][0].Int64() != 2 {
		t.Fatalf("matched = %v", rows.Data[0][0])
	}
	// The index must track the update: old key gone, new key present.
	rows = mustQuery(t, db, `SELECT count(*) FROM jobs WHERE state = 'idle'`)
	if rows.Data[0][0].Int64() != 0 {
		t.Fatalf("idle = %v", rows.Data[0][0])
	}
}

func TestDelete(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner, state) VALUES ('a','done'),('b','idle'),('c','done')`)
	res := mustExec(t, db, `DELETE FROM jobs WHERE state = 'done'`)
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	rows := mustQuery(t, db, `SELECT owner FROM jobs`)
	if rows.Len() != 1 || rows.Data[0][0].Text() != "b" {
		t.Fatalf("remaining = %v", rows.Data)
	}
}

func TestRowSlotReuseAfterDelete(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('a'),('b'),('c')`)
	mustExec(t, db, `DELETE FROM jobs WHERE owner = 'b'`)
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('d')`)
	rows := mustQuery(t, db, `SELECT count(*) FROM jobs`)
	if rows.Data[0][0].Int64() != 3 {
		t.Fatalf("count = %v", rows.Data[0][0])
	}
	rows = mustQuery(t, db, `SELECT owner FROM jobs WHERE owner = 'd'`)
	if rows.Len() != 1 {
		t.Fatal("reinserted row not found")
	}
}

func TestUniquePrimaryKeyViolation(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE machines (name TEXT PRIMARY KEY, state TEXT)`)
	mustExec(t, db, `INSERT INTO machines VALUES ('node1', 'up')`)
	_, err := db.Exec(`INSERT INTO machines VALUES ('node1', 'down')`)
	if err == nil {
		t.Fatal("duplicate PK accepted")
	}
	var uv *UniqueViolationError
	if !asUniqueViolation(err, &uv) {
		t.Fatalf("error %T %v, want UniqueViolationError", err, err)
	}
	// The failed autocommit statement must leave no trace.
	rows := mustQuery(t, db, `SELECT state FROM machines WHERE name = 'node1'`)
	if rows.Data[0][0].Text() != "up" {
		t.Fatalf("state = %v after failed insert", rows.Data[0][0])
	}
}

func asUniqueViolation(err error, target **UniqueViolationError) bool {
	for err != nil {
		if uv, ok := err.(*UniqueViolationError); ok {
			*target = uv
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestUniqueConstraintMultiColumn(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE vms (host TEXT, slot INTEGER, UNIQUE (host, slot))`)
	mustExec(t, db, `INSERT INTO vms VALUES ('h1', 1), ('h1', 2), ('h2', 1)`)
	if _, err := db.Exec(`INSERT INTO vms VALUES ('h1', 1)`); err == nil {
		t.Fatal("duplicate (host,slot) accepted")
	}
}

func TestUniqueAllowsMultipleNulls(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a INTEGER, UNIQUE (a))`)
	mustExec(t, db, `INSERT INTO t VALUES (NULL), (NULL)`)
	rows := mustQuery(t, db, `SELECT count(*) FROM t`)
	if rows.Data[0][0].Int64() != 2 {
		t.Fatal("two NULLs should coexist under UNIQUE")
	}
}

func TestNotNullEnforced(t *testing.T) {
	db := newJobsDB(t)
	if _, err := db.Exec(`INSERT INTO jobs (runtime) VALUES (5)`); err == nil {
		t.Fatal("NOT NULL owner accepted NULL")
	}
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('x')`)
	if _, err := db.Exec(`UPDATE jobs SET owner = NULL`); err == nil {
		t.Fatal("UPDATE to NULL accepted on NOT NULL column")
	}
}

// TestDMLNamesFailWithoutRows: an UPDATE or DELETE resolves every name it
// holds when it is planned, so a bad one fails whether or not a row
// matches its WHERE — here none does, and nothing is evaluated.
func TestDMLNamesFailWithoutRows(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
	for _, sql := range []string{
		`UPDATE t SET a = nosuch WHERE id = 5`,
		`UPDATE t SET a = 1 WHERE id = 5 AND nosuch = 1`,
		`DELETE FROM t WHERE id = 5 AND nosuch = 1`,
	} {
		_, err := db.Exec(sql)
		if err == nil || !strings.Contains(err.Error(), `unknown column "nosuch"`) {
			t.Errorf("%s: err = %v, want unknown column \"nosuch\"", sql, err)
		}
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (2, id)`); err == nil {
		t.Error("INSERT VALUES naming a column succeeded")
	}
	if rows := mustQuery(t, db, `SELECT a FROM t`); rows.Len() != 1 || rows.Data[0][0].Int64() != 10 {
		t.Fatalf("table changed: %v", rows.Data)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := newJobsDB(t)
	for _, o := range []string{"c", "a", "d", "b", "e"} {
		mustExec(t, db, `INSERT INTO jobs (owner) VALUES (?)`, o)
	}
	rows := mustQuery(t, db, `SELECT owner FROM jobs ORDER BY owner DESC LIMIT 2 OFFSET 1`)
	if rows.Len() != 2 || rows.Data[0][0].Text() != "d" || rows.Data[1][0].Text() != "c" {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestOrderByPositionAndAlias(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner, runtime) VALUES ('a', 30), ('b', 10), ('c', 20)`)
	rows := mustQuery(t, db, `SELECT owner, runtime AS rt FROM jobs ORDER BY rt`)
	if rows.Data[0][0].Text() != "b" || rows.Data[2][0].Text() != "a" {
		t.Fatalf("alias order: %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT owner, runtime FROM jobs ORDER BY 2 DESC`)
	if rows.Data[0][0].Text() != "a" {
		t.Fatalf("positional order: %v", rows.Data)
	}
}

func TestAggregates(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner, state, runtime) VALUES
		('alice','idle',60),('alice','running',120),('bob','idle',30),('bob','idle',NULL)`)
	rows := mustQuery(t, db, `SELECT count(*), count(runtime), sum(runtime), avg(runtime), min(runtime), max(runtime) FROM jobs`)
	r := rows.Data[0]
	if r[0].Int64() != 4 || r[1].Int64() != 3 || r[2].Int64() != 210 ||
		r[3].Float64() != 70 || r[4].Int64() != 30 || r[5].Int64() != 120 {
		t.Fatalf("aggregates = %v", r)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner, runtime) VALUES
		('alice',10),('alice',20),('bob',30),('carol',5),('carol',5),('carol',5)`)
	rows := mustQuery(t, db, `SELECT owner, count(*) AS n, sum(runtime) FROM jobs
		GROUP BY owner HAVING count(*) >= 2 ORDER BY n DESC`)
	if rows.Len() != 2 {
		t.Fatalf("groups = %v", rows.Data)
	}
	if rows.Data[0][0].Text() != "carol" || rows.Data[0][1].Int64() != 3 || rows.Data[0][2].Int64() != 15 {
		t.Fatalf("carol group = %v", rows.Data[0])
	}
	if rows.Data[1][0].Text() != "alice" || rows.Data[1][2].Int64() != 30 {
		t.Fatalf("alice group = %v", rows.Data[1])
	}
}

func TestCountDistinct(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('a'),('a'),('b'),('c'),('c')`)
	rows := mustQuery(t, db, `SELECT count(DISTINCT owner) FROM jobs`)
	if rows.Data[0][0].Int64() != 3 {
		t.Fatalf("count distinct = %v", rows.Data[0][0])
	}
}

func TestGlobalAggregateOverEmptyTable(t *testing.T) {
	db := newJobsDB(t)
	rows := mustQuery(t, db, `SELECT count(*), sum(runtime), max(runtime) FROM jobs`)
	r := rows.Data[0]
	if r[0].Int64() != 0 || !r[1].IsNull() || !r[2].IsNull() {
		t.Fatalf("empty aggregates = %v", r)
	}
}

func TestSelectDistinct(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('a'),('a'),('b')`)
	rows := mustQuery(t, db, `SELECT DISTINCT owner FROM jobs ORDER BY owner`)
	if rows.Len() != 2 {
		t.Fatalf("distinct = %v", rows.Data)
	}
}

func TestInnerJoinWithIndexLookup(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE machines (name TEXT PRIMARY KEY, speed FLOAT)`)
	mustExec(t, db, `CREATE TABLE runs (job_id INTEGER PRIMARY KEY, machine TEXT)`)
	mustExec(t, db, `INSERT INTO machines VALUES ('m1', 1.0), ('m2', 2.0)`)
	// Enough machines that probing the pk index clearly beats scanning the
	// machines table (the cost-based planner picks plans by size).
	for i := 3; i <= 50; i++ {
		mustExec(t, db, `INSERT INTO machines VALUES (?, 1.0)`, fmt.Sprintf("m%d", i))
	}
	mustExec(t, db, `INSERT INTO runs VALUES (1, 'm1'), (2, 'm2'), (3, 'm1')`)
	var stats StmtStats
	db.SetStatsHook(func(s StmtStats) {
		if s.Kind == "SELECT" {
			stats = s
		}
	})
	rows := mustQuery(t, db, `
		SELECT r.job_id, m.speed FROM runs r
		JOIN machines m ON m.name = r.machine
		WHERE m.speed > 1.5`)
	if rows.Len() != 1 || rows.Data[0][0].Int64() != 2 {
		t.Fatalf("join result = %v", rows.Data)
	}
	if !stats.UsedIndex {
		t.Fatal("join should use the machines primary key index")
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY, name TEXT)`)
	mustExec(t, db, `CREATE TABLE runs (job_id INTEGER, node TEXT)`)
	mustExec(t, db, `INSERT INTO jobs VALUES (1,'j1'), (2,'j2')`)
	mustExec(t, db, `INSERT INTO runs VALUES (1, 'n1')`)
	rows := mustQuery(t, db, `
		SELECT j.id, r.node FROM jobs j
		LEFT JOIN runs r ON r.job_id = j.id
		ORDER BY j.id`)
	if rows.Len() != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
	if rows.Data[0][1].Text() != "n1" {
		t.Fatalf("row0 = %v", rows.Data[0])
	}
	if !rows.Data[1][1].IsNull() {
		t.Fatalf("row1 should have NULL node, got %v", rows.Data[1])
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT)`)
	mustExec(t, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY, user_id INTEGER)`)
	mustExec(t, db, `CREATE TABLE runs (job_id INTEGER, node TEXT)`)
	mustExec(t, db, `INSERT INTO users VALUES (1,'alice'), (2,'bob')`)
	mustExec(t, db, `INSERT INTO jobs VALUES (10, 1), (11, 2), (12, 1)`)
	mustExec(t, db, `INSERT INTO runs VALUES (10,'n1'), (12,'n2')`)
	rows := mustQuery(t, db, `
		SELECT u.name, r.node FROM users u
		JOIN jobs j ON j.user_id = u.id
		JOIN runs r ON r.job_id = j.id
		WHERE u.name = 'alice' ORDER BY r.node`)
	if rows.Len() != 2 || rows.Data[0][1].Text() != "n1" || rows.Data[1][1].Text() != "n2" {
		t.Fatalf("3-way join = %v", rows.Data)
	}
}

func TestExpressionsAndFunctions(t *testing.T) {
	db := New()
	rows := mustQuery(t, db, `SELECT 1+2*3, 10/4, 10.0/4, 7 % 3, abs(-5), length('hello'), upper('ab'), lower('AB'), coalesce(NULL, NULL, 3)`)
	r := rows.Data[0]
	checks := []struct {
		i    int
		want any
	}{
		{0, int64(7)}, {1, int64(2)}, {2, 2.5}, {3, int64(1)},
		{4, int64(5)}, {5, int64(5)}, {6, "AB"}, {7, "ab"}, {8, int64(3)},
	}
	for _, c := range checks {
		if r[c.i].Go() != c.want {
			t.Fatalf("expr %d = %v, want %v", c.i, r[c.i].Go(), c.want)
		}
	}

	// Unary minus over a column, which the parser cannot fold: an INTEGER,
	// a FLOAT and a NULL.
	jobs := newJobsDB(t)
	mustExec(t, jobs, `INSERT INTO jobs (owner, runtime, priority) VALUES ('a', 7, 2.5), ('b', NULL, 0.5)`)
	rows = mustQuery(t, jobs, `SELECT -runtime, -priority FROM jobs ORDER BY owner`)
	if got := fmt.Sprint(rows.Data[0][0].Go(), rows.Data[0][1].Go()); got != "-7 -2.5" {
		t.Fatalf("-runtime, -priority of a = %s, want -7 -2.5", got)
	}
	if !rows.Data[1][0].IsNull() {
		t.Fatalf("-runtime of NULL = %v, want NULL", rows.Data[1][0].Go())
	}
	for sql, want := range map[string]string{
		`SELECT -'a'`:  "cannot negate",
		`SELECT NOT 1`: "NOT requires BOOLEAN",
	} {
		if _, err := db.Query(sql); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", sql, err, want)
		}
	}
}

func TestNowUsesInjectedClock(t *testing.T) {
	db := New()
	fixed := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	db.SetNow(func() time.Time { return fixed })
	rows := mustQuery(t, db, `SELECT now()`)
	if !rows.Data[0][0].TimeValue().Equal(fixed) {
		t.Fatalf("NOW() = %v", rows.Data[0][0].TimeValue())
	}
}

func TestNullThreeValuedLogic(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner, runtime) VALUES ('a', NULL), ('b', 10)`)
	// NULL comparisons are not TRUE: row 'a' must not match either branch.
	rows := mustQuery(t, db, `SELECT owner FROM jobs WHERE runtime > 5 OR runtime <= 5`)
	if rows.Len() != 1 || rows.Data[0][0].Text() != "b" {
		t.Fatalf("3VL filter = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT owner FROM jobs WHERE runtime IS NULL`)
	if rows.Len() != 1 || rows.Data[0][0].Text() != "a" {
		t.Fatalf("IS NULL = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT owner FROM jobs WHERE runtime IS NOT NULL`)
	if rows.Len() != 1 || rows.Data[0][0].Text() != "b" {
		t.Fatalf("IS NOT NULL = %v", rows.Data)
	}
	// NOT of NULL is NULL: the NULL row matches neither the comparison nor
	// its negation.
	rows = mustQuery(t, db, `SELECT owner, NOT (runtime > 5) FROM jobs ORDER BY owner`)
	if !rows.Data[0][1].IsNull() || rows.Data[1][1].Go() != false {
		t.Fatalf("NOT (runtime > 5) = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT owner FROM jobs WHERE NOT (runtime > 5)`)
	if rows.Len() != 0 {
		t.Fatalf("WHERE NOT (runtime > 5) = %v, want no row", rows.Data)
	}
}

func TestInBetweenLike(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner, runtime) VALUES
		('alice', 10), ('bob', 20), ('carol', 30), ('alfred', 40)`)
	rows := mustQuery(t, db, `SELECT owner FROM jobs WHERE owner IN ('alice', 'bob') ORDER BY owner`)
	if rows.Len() != 2 {
		t.Fatalf("IN = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT owner FROM jobs WHERE runtime BETWEEN 15 AND 35 ORDER BY runtime`)
	if rows.Len() != 2 || rows.Data[0][0].Text() != "bob" {
		t.Fatalf("BETWEEN = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT owner FROM jobs WHERE owner LIKE 'al%' ORDER BY owner`)
	if rows.Len() != 2 || rows.Data[0][0].Text() != "alfred" {
		t.Fatalf("LIKE = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT owner FROM jobs WHERE owner NOT LIKE '%o%' ORDER BY owner`)
	if rows.Len() != 2 {
		t.Fatalf("NOT LIKE = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT owner FROM jobs WHERE owner LIKE '_ob'`)
	if rows.Len() != 1 || rows.Data[0][0].Text() != "bob" {
		t.Fatalf("LIKE _ = %v", rows.Data)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := New()
	rows := mustQuery(t, db, `SELECT 2+2 AS four, 'x'`)
	if rows.Data[0][0].Int64() != 4 || rows.Data[0][1].Text() != "x" {
		t.Fatalf("no-FROM select = %v", rows.Data)
	}
	if rows.Columns[0] != "four" {
		t.Fatalf("columns = %v", rows.Columns)
	}
}

func TestStatsHookCounts(t *testing.T) {
	db := newJobsDB(t)
	var stats []StmtStats
	db.SetStatsHook(func(s StmtStats) { stats = append(stats, s) })
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('a'), ('b')`)
	mustQuery(t, db, `SELECT * FROM jobs`)
	if len(stats) != 2 {
		t.Fatalf("hook fired %d times", len(stats))
	}
	if stats[0].Kind != "INSERT" || stats[0].RowsAffected != 2 {
		t.Fatalf("insert stats = %+v", stats[0])
	}
	if stats[1].Kind != "SELECT" || stats[1].RowsReturned != 2 || stats[1].RowsScanned != 2 {
		t.Fatalf("select stats = %+v", stats[1])
	}
}

func TestLimitEarlyExitScansLess(t *testing.T) {
	db := newJobsDB(t)
	for i := 0; i < 100; i++ {
		mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('u')`)
	}
	var stats StmtStats
	db.SetStatsHook(func(s StmtStats) {
		if s.Kind == "SELECT" {
			stats = s
		}
	})
	rows := mustQuery(t, db, `SELECT id FROM jobs LIMIT 5`)
	if rows.Len() != 5 {
		t.Fatalf("rows = %d", rows.Len())
	}
	if stats.RowsScanned > 5 {
		t.Fatalf("RowsScanned = %d, want early exit at 5", stats.RowsScanned)
	}
}

func TestDDLRoundTrip(t *testing.T) {
	db := newJobsDB(t)
	schema, ok := db.Schema("jobs")
	if !ok {
		t.Fatal("schema missing")
	}
	ddl := schema.DDL()
	db2 := New()
	mustExec(t, db2, ddl)
	schema2, _ := db2.Schema("jobs")
	if schema2.DDL() != ddl {
		t.Fatalf("DDL round trip:\n%s\n%s", ddl, schema2.DDL())
	}
}

func TestDropTable(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `DROP TABLE jobs`)
	if _, err := db.Query(`SELECT * FROM jobs`); err == nil {
		t.Fatal("query after drop succeeded")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS jobs`)
	if _, err := db.Exec(`DROP TABLE jobs`); err == nil {
		t.Fatal("double drop without IF EXISTS succeeded")
	}
}

func TestCreateTableIfNotExists(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `CREATE TABLE IF NOT EXISTS jobs (id INTEGER)`)
	if _, err := db.Exec(`CREATE TABLE jobs (id INTEGER)`); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestParameterCountMismatch(t *testing.T) {
	db := newJobsDB(t)
	if _, err := db.Exec(`INSERT INTO jobs (owner) VALUES (?)`); err == nil {
		t.Fatal("missing parameter accepted")
	}
}

func TestTextConcatenation(t *testing.T) {
	db := New()
	rows := mustQuery(t, db, `SELECT 'a' + 'b'`)
	if rows.Data[0][0].Text() != "ab" {
		t.Fatalf("concat = %v", rows.Data[0][0])
	}
}

func TestDivisionByZero(t *testing.T) {
	db := New()
	if _, err := db.Query(`SELECT 1/0`); err == nil {
		t.Fatal("1/0 succeeded")
	}
	if _, err := db.Query(`SELECT 1.0/0.0`); err == nil {
		t.Fatal("1.0/0.0 succeeded")
	}
}

func TestTimestampColumn(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE events (at TIMESTAMP, what TEXT)`)
	ts := time.Date(2006, 10, 2, 15, 4, 5, 0, time.UTC)
	mustExec(t, db, `INSERT INTO events VALUES (?, 'boot')`, ts)
	mustExec(t, db, `INSERT INTO events VALUES ('2006-10-03 00:00:00', 'later')`)
	rows := mustQuery(t, db, `SELECT what FROM events WHERE at < ? ORDER BY at`, ts.Add(time.Hour))
	if rows.Len() != 1 || rows.Data[0][0].Text() != "boot" {
		t.Fatalf("time filter = %v", rows.Data)
	}
}

// TestRowsScannedByAccessPath pins StmtStats.RowsScanned and RowsReturned
// for every way a statement reads a table: a full scan (whole, and cut
// short by LIMIT), an index range, a hash join building on a full scan, a
// build-outer probe scan, an index nested-loop probe and the UPDATE and
// DELETE target scans. Every case reads more than one full-scan window
// (fullScanBatch slots), so the counts also hold across window boundaries.
// An index path counts each index entry it collects; a full scan counts
// each row it visits, so a LIMIT stop counts only what it examined.
func TestRowsScannedByAccessPath(t *testing.T) {
	const nBig, nMid = 1300, 700
	db := New()
	mustExec(t, db, `CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER, tag TEXT)`)
	mustExec(t, db, `CREATE TABLE mid (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)`)
	mustExec(t, db, `CREATE TABLE small (k INTEGER, t TEXT)`)
	for i := 1; i <= nBig; i++ {
		mustExec(t, db, `INSERT INTO big VALUES (?, ?, ?)`, i, i%50, fmt.Sprintf("t%d", i%7))
	}
	for i := 1; i <= nMid; i++ {
		mustExec(t, db, `INSERT INTO mid VALUES (?, ?, ?)`, i, i%60, i)
	}
	for i := 0; i < 8; i++ {
		mustExec(t, db, `INSERT INTO small VALUES (?, ?)`, i, fmt.Sprintf("s%d", i))
	}
	var got StmtStats
	db.SetStatsHook(func(s StmtStats) {
		if s.Kind != "COMMIT" && s.Kind != "BEGIN" {
			got = s
		}
	})
	for _, c := range []struct {
		name, sql string
		plan      string // a fragment the statement's EXPLAIN must show
		locked    bool   // a SELECT run inside a transaction: a locked read
		scanned   int
		returned  int // RowsReturned, or RowsAffected for DML
	}{
		{"full scan", `SELECT id FROM big WHERE tag <> 't0'`, "SEQ SCAN", false, nBig, 1115},
		{"full scan LIMIT", `SELECT id FROM big WHERE tag = 't3' LIMIT 100`, "SEQ SCAN", false, 696, 100},
		{"locked full scan LIMIT", `SELECT id FROM big WHERE tag = 't3' LIMIT 100`, "SEQ SCAN", true, 696, 100},
		{"index range", `SELECT id FROM big WHERE id BETWEEN 100 AND 900`, "INDEX SCAN", false, 801, 801},
		{"locked index range", `SELECT id FROM big WHERE id BETWEEN 100 AND 900`, "INDEX SCAN", true, 801, 801},
		{"hash build on a full scan", `SELECT b.id, m.v FROM big b LEFT JOIN mid m ON m.k = b.k`, "HASH JOIN (", false, nBig + nMid, 15340},
		{"build-outer probe scan", `SELECT s.t, b.id FROM small s JOIN big b ON b.k = s.k`, "BUILD OUTER", false, 8 + nBig, 208},
		{"index-NL probe", `SELECT b.id, m.v FROM big b JOIN mid m ON m.id = b.id WHERE b.tag = 't1'`, "INDEX NL", false, nBig + 100, 100},
		{"UPDATE target", `UPDATE big SET tag = 'u' WHERE k = 7`, "SEQ SCAN", false, nBig, 26},
		{"DELETE target", `DELETE FROM big WHERE id > 600`, "INDEX SCAN", false, 700, 700},
	} {
		if plan := mustQuery(t, db, "EXPLAIN "+c.sql); !strings.Contains(fmt.Sprint(plan.Data), c.plan) {
			t.Fatalf("%s: plan %v, want %q in it", c.name, plan.Data, c.plan)
		}
		got = StmtStats{}
		n := 0
		switch {
		case !strings.HasPrefix(c.sql, "SELECT"):
			n = int(mustExec(t, db, c.sql).RowsAffected)
			got.RowsReturned = got.RowsAffected
		case c.locked:
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			rows, err := tx.Query(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			n = rows.Len()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		default:
			n = mustQuery(t, db, c.sql).Len()
		}
		if got.RowsScanned != c.scanned || got.RowsReturned != c.returned || n != c.returned {
			t.Errorf("%s: scanned %d, returned %d (%d rows), want %d and %d",
				c.name, got.RowsScanned, got.RowsReturned, n, c.scanned, c.returned)
		}
	}
}
