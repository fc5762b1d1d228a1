package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// cachedPlanOf returns the compiled plan hanging off the interned AST
// for sql, or nil when the statement has no cached plan. Tests reach
// into the statement cache because the slot rides on the interned AST.
func cachedPlanOf(t testing.TB, db *DB, sql string) *selectPlan {
	t.Helper()
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	c, ok := db.stmts[strings.TrimSpace(sql)]
	if !ok {
		return nil
	}
	switch s := c.stmt.(type) {
	case *SelectStmt:
		return s.plan.p.Load()
	case *UpdateStmt:
		return s.plan.p.Load()
	case *DeleteStmt:
		return s.plan.p.Load()
	}
	return nil
}

// drivingTable reports which table a cached multi-table plan scans
// first — the observable join order.
func drivingTable(t testing.TB, p *selectPlan) string {
	t.Helper()
	if p == nil || len(p.steps) == 0 {
		t.Fatal("no join steps on plan")
	}
	return p.bindings[p.steps[0].bind].tbl.schema.Name
}

func TestPlanCacheHitReusesPlan(t *testing.T) {
	db := newJobsDB(t)
	for i := 0; i < 4; i++ {
		mustExec(t, db, `INSERT INTO jobs (owner) VALUES (?)`, fmt.Sprintf("u%d", i))
	}
	const q = `SELECT id, owner FROM jobs WHERE owner = ?`

	before := db.PlanCacheStats()
	if rows := mustQuery(t, db, q, "u2"); rows.Len() != 1 {
		t.Fatalf("rows = %d, want 1", rows.Len())
	}
	p0 := cachedPlanOf(t, db, q)
	if p0 == nil {
		t.Fatal("first execution did not store a plan")
	}
	if rows := mustQuery(t, db, q, "u3"); rows.Len() != 1 {
		t.Fatalf("rows = %d, want 1", rows.Len())
	}
	if rows := mustQuery(t, db, q, "nobody"); rows.Len() != 0 {
		t.Fatalf("rows = %d, want 0", rows.Len())
	}
	if p := cachedPlanOf(t, db, q); p != p0 {
		t.Fatalf("plan pointer changed across parameter-only re-executions: %p -> %p", p0, p)
	}
	after := db.PlanCacheStats()
	if got := after.Hits - before.Hits; got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	if got := after.Misses - before.Misses; got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if got := after.Stores - before.Stores; got != 1 {
		t.Fatalf("stores = %d, want 1", got)
	}
}

// TestPlanCacheIndexDDLInvalidates covers the schema-epoch half of
// invalidation: CREATE INDEX must replan a cached full-scan plan onto
// the index, and DROP INDEX must replan it off again.
func TestPlanCacheIndexDDLInvalidates(t *testing.T) {
	db := newJobsDB(t)
	for i := 0; i < 20; i++ {
		mustExec(t, db, `INSERT INTO jobs (owner) VALUES (?)`, fmt.Sprintf("u%d", i%5))
	}
	const q = `SELECT id FROM jobs WHERE owner = ?`
	mustQuery(t, db, q, "u1")
	p0 := cachedPlanOf(t, db, q)
	if p0 == nil || p0.usedIndex {
		t.Fatalf("warm plan = %p usedIndex=%v, want cached seq scan", p0, p0 != nil && p0.usedIndex)
	}

	mustExec(t, db, `CREATE INDEX jobs_owner ON jobs (owner)`)
	before := db.PlanCacheStats()
	if rows := mustQuery(t, db, q, "u1"); rows.Len() != 4 {
		t.Fatalf("rows = %d, want 4", rows.Len())
	}
	after := db.PlanCacheStats()
	if after.Invalidations-before.Invalidations != 1 {
		t.Fatalf("CREATE INDEX invalidations = %d, want 1", after.Invalidations-before.Invalidations)
	}
	p1 := cachedPlanOf(t, db, q)
	if p1 == p0 || p1 == nil || !p1.usedIndex {
		t.Fatalf("plan after CREATE INDEX = %p (was %p), usedIndex=%v; want replanned onto index",
			p1, p0, p1 != nil && p1.usedIndex)
	}

	mustExec(t, db, `DROP INDEX jobs_owner`)
	if rows := mustQuery(t, db, q, "u1"); rows.Len() != 4 {
		t.Fatalf("rows = %d, want 4", rows.Len())
	}
	p2 := cachedPlanOf(t, db, q)
	if p2 == p1 || p2 == nil || p2.usedIndex {
		t.Fatal("DROP INDEX did not replan the statement off the index")
	}
}

// TestPlanCacheDropTableRecreate: recreating a table under the same name
// yields a new *table; a plan compiled against the old one must not
// survive, even though the statement text resolves again.
func TestPlanCacheDropTableRecreate(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, n INTEGER)`)
	mustExec(t, db, `INSERT INTO kv VALUES (1, 10)`)
	const q = `SELECT n FROM kv WHERE id = ?`
	mustQuery(t, db, q, 1)
	p0 := cachedPlanOf(t, db, q)
	if p0 == nil {
		t.Fatal("no warm plan")
	}

	mustExec(t, db, `DROP TABLE kv`)
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, n INTEGER)`)
	mustExec(t, db, `INSERT INTO kv VALUES (1, 99)`)
	rows := mustQuery(t, db, q, 1)
	if rows.Len() != 1 || rows.Data[0][0].Int64() != 99 {
		t.Fatalf("post-recreate rows = %v, want [[99]]", rows.Data)
	}
	p1 := cachedPlanOf(t, db, q)
	if p1 == p0 {
		t.Fatal("plan against the dropped table survived recreation")
	}
	if p1 != nil && p1.bindings[0].tbl == p0.bindings[0].tbl {
		t.Fatal("replanned statement still bound to the dropped *table")
	}
}

// TestPlanCacheDriftReplanFlipsJoinOrder is the satellite-3 regression:
// a table that grows far past what it was planned at must trip the
// drift threshold in validation and the replan must pick the other join
// order once the size relation inverts.
func TestPlanCacheDriftReplanFlipsJoinOrder(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE small (k INTEGER)`)
	mustExec(t, db, `CREATE TABLE big (k INTEGER)`)
	for i := 0; i < 30; i++ {
		mustExec(t, db, `INSERT INTO small VALUES (?)`, i%8)
	}
	for i := 0; i < 300; i++ {
		mustExec(t, db, `INSERT INTO big VALUES (?)`, i%8)
	}

	const q = `SELECT count(*) FROM small, big WHERE small.k = big.k AND small.k < ?`
	want := mustQuery(t, db, q, 100).Data[0][0].Int64()
	p0 := cachedPlanOf(t, db, q)
	if p0 == nil {
		t.Fatal("no warm join plan")
	}
	order0 := drivingTable(t, p0)

	// Grow "small" 100x past the cardinality it was planned at: only the
	// drift check can notice.
	for i := 0; i < 2970; i++ {
		mustExec(t, db, `INSERT INTO small VALUES (?)`, i%8)
	}
	before := db.PlanCacheStats()
	got := mustQuery(t, db, q, 100).Data[0][0].Int64()
	after := db.PlanCacheStats()

	if got <= want {
		t.Fatalf("grown join count = %d, want > %d", got, want)
	}
	if after.Invalidations-before.Invalidations != 1 {
		t.Fatalf("drift invalidations = %d, want 1", after.Invalidations-before.Invalidations)
	}
	p1 := cachedPlanOf(t, db, q)
	if p1 == nil || p1 == p0 {
		t.Fatalf("drift did not replan: %p -> %p", p0, p1)
	}
	if order1 := drivingTable(t, p1); order1 == order0 {
		t.Fatalf("join order did not flip after 100x growth: still driving from %q", order0)
	}
}

// TestPlanCacheTargetPlans: UPDATE and DELETE cache the plan for their
// synthesized target SELECT on the DML statement's own slot.
func TestPlanCacheTargetPlans(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, n INTEGER)`)
	for i := 0; i < 8; i++ {
		mustExec(t, db, `INSERT INTO kv VALUES (?, 0)`, i)
	}
	const upd = `UPDATE kv SET n = ? WHERE id = ?`
	const del = `DELETE FROM kv WHERE id = ?`

	before := db.PlanCacheStats()
	mustExec(t, db, upd, 1, 1)
	mustExec(t, db, upd, 2, 2)
	mustExec(t, db, del, 7)
	mustExec(t, db, del, 6)
	after := db.PlanCacheStats()
	if got := after.Hits - before.Hits; got != 2 {
		t.Fatalf("target-plan hits = %d, want 2 (one per repeated shape)", got)
	}
	if cachedPlanOf(t, db, upd) == nil || cachedPlanOf(t, db, del) == nil {
		t.Fatal("DML statements did not cache target plans")
	}

	// Schema churn invalidates target plans like SELECT plans.
	mustExec(t, db, `CREATE INDEX kv_n ON kv (n)`)
	p0 := cachedPlanOf(t, db, upd)
	mustExec(t, db, upd, 3, 3)
	if p := cachedPlanOf(t, db, upd); p == p0 {
		t.Fatal("UPDATE target plan survived CREATE INDEX")
	}
}

// TestExplainCachedMarker: EXPLAIN flags a validated cache hit with a
// [CACHED] suffix on the access column — first EXPLAIN of a shape plans
// fresh and stays unmarked.
func TestExplainCachedMarker(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('u')`)
	const q = `EXPLAIN SELECT id FROM jobs WHERE owner = ?`

	first := mustQuery(t, db, q, "u")
	if access := first.Data[0][1].String(); len(access) == 0 || containsCached(access) {
		t.Fatalf("first EXPLAIN access = %q, want unmarked plan", access)
	}
	second := mustQuery(t, db, q, "u")
	if access := second.Data[0][1].String(); !containsCached(access) {
		t.Fatalf("second EXPLAIN access = %q, want [CACHED] marker", access)
	}
}

func containsCached(s string) bool {
	return strings.Contains(s, " [CACHED]")
}

// TestPlanCacheFollowerApplyInvalidates: DDL arriving through WAL
// shipping must bump epochs on the follower exactly like local DDL, so
// read plans cached on the follower replan.
func TestPlanCacheFollowerApplyInvalidates(t *testing.T) {
	leader, err := Open(Options{VFS: NewMemVFS(), Path: "l.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := Open(Options{VFS: NewMemVFS(), Path: "f.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	mustExec(t, leader, `CREATE TABLE kv (id INTEGER, n INTEGER)`)
	for i := 0; i < 10; i++ {
		mustExec(t, leader, `INSERT INTO kv VALUES (?, ?)`, i, i)
	}
	pump(t, leader, follower)

	const q = `SELECT n FROM kv WHERE id = ?`
	mustQuery(t, follower, q, 3)
	p0 := cachedPlanOf(t, follower, q)
	if p0 == nil || p0.usedIndex {
		t.Fatal("follower warm plan should be a cached seq scan")
	}

	mustExec(t, leader, `CREATE INDEX kv_id ON kv (id)`)
	pump(t, leader, follower)

	before := follower.PlanCacheStats()
	mustQuery(t, follower, q, 3)
	after := follower.PlanCacheStats()
	if after.Invalidations-before.Invalidations != 1 {
		t.Fatalf("shipped CREATE INDEX invalidations = %d, want 1", after.Invalidations-before.Invalidations)
	}
	if p := cachedPlanOf(t, follower, q); p == p0 || p == nil || !p.usedIndex {
		t.Fatal("follower plan did not replan onto the shipped index")
	}
}

// TestPlanCacheConcurrentHammer is the satellite-2 race audit: many
// goroutines execute two cached parameterized statements concurrently, a
// point read and a GROUP BY … HAVING … ORDER BY … LIMIT aggregation;
// every execution must see the same immutable plan and correct results,
// and the run is meaningful under -race (execution state must live on
// the per-execution query, never on the shared plan).
func TestPlanCacheConcurrentHammer(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, n INTEGER)`)
	const rows = 64
	for i := 0; i < rows; i++ {
		mustExec(t, db, `INSERT INTO kv VALUES (?, ?)`, i, i*3)
	}
	const q = `SELECT n FROM kv WHERE id = ?`
	mustQuery(t, db, q, 0) // warm
	p0 := cachedPlanOf(t, db, q)
	if p0 == nil {
		t.Fatal("no warm plan")
	}
	// The aggregated statement shares its aggPlan — the group key's parts,
	// the aggregate program, the alias maps — across the goroutines.
	const agg = `SELECT n % 4 AS b, count(*) AS c, sum(n) FROM kv WHERE id < ? GROUP BY n % 4 HAVING c >= 2 ORDER BY b DESC LIMIT 3`
	mustQuery(t, db, agg, rows) // warm
	a0 := cachedPlanOf(t, db, agg)
	if a0 == nil {
		t.Fatal("no warm aggregated plan")
	}
	// aggWant is agg's result over ids below lim, rendered as "b:c:sum".
	aggWant := func(lim int) string {
		var c, sum [4]int64
		for i := 0; i < lim; i++ {
			c[i*3%4]++
			sum[i*3%4] += int64(i * 3)
		}
		var out []string
		for b := 3; b >= 0 && len(out) < 3; b-- {
			if c[b] >= 2 {
				out = append(out, fmt.Sprintf("%d:%d:%d", b, c[b], sum[b]))
			}
		}
		return strings.Join(out, " ")
	}

	const goroutines, iters = 8, 300
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (g*iters + i) % rows
				res, err := db.Query(q, id)
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != 1 || res.Data[0][0].Int64() != int64(id*3) {
					errs <- fmt.Errorf("id %d: got %v", id, res.Data)
					return
				}
				if res, err = db.Query(agg, id); err != nil {
					errs <- err
					return
				}
				var got []string
				for _, r := range res.Data {
					got = append(got, fmt.Sprintf("%d:%d:%d", r[0].Int64(), r[1].Int64(), r[2].Int64()))
				}
				if g, w := strings.Join(got, " "), aggWant(id); g != w {
					errs <- fmt.Errorf("aggregated, ids below %d: got %q, want %q", id, g, w)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if p := cachedPlanOf(t, db, q); p != p0 {
		t.Fatalf("plan pointer changed under concurrent hammer: %p -> %p", p0, p)
	}
	if p := cachedPlanOf(t, db, agg); p != a0 {
		t.Fatalf("aggregated plan pointer changed under concurrent hammer: %p -> %p", a0, p)
	}
	stats := db.PlanCacheStats()
	if stats.Hits < 2*goroutines*iters {
		t.Fatalf("hits = %d, want >= %d (every hammer execution should hit)", stats.Hits, 2*goroutines*iters)
	}
}
