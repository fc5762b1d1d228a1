package core

// EXPLAIN-pinned plans for the CAS's hot multi-way join queries (the
// paper's matchmaking/status/provenance reads). The plans pinned are the
// ones the daemon runs: costed from the schema's indexes and live row
// counts alone, the cost-based planner drives each join from the
// selective side and probes the rest through indexes — and the whole
// thing runs as a lock-free snapshot read. A schema or planner
// regression that degrades one of these to a seq-scan nested loop fails
// here long before it shows up as a throughput cliff.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"condorj2/internal/beans"
	"condorj2/internal/sqldb"
)

// statusPlanFixture loads a realistically-shaped cluster (machines with
// VMs, jobs, matches, provenance records).
func statusPlanFixture(t *testing.T) *CAS {
	t.Helper()
	cas, _ := newTestCAS(t)
	eng := cas.Engine
	exec := func(sql string, args ...any) {
		t.Helper()
		if _, err := eng.Exec(sql, args...); err != nil {
			t.Fatalf("fixture %q: %v", sql, err)
		}
	}
	for m := 0; m < 25; m++ {
		name := fmt.Sprintf("mach%02d", m)
		exec(`INSERT INTO machines (name, state, total_memory_mb) VALUES (?, 'up', 4096)`, name)
		for s := 0; s < 4; s++ {
			exec(`INSERT INTO vms (machine, seq, state, memory_mb) VALUES (?, ?, 'idle', 1024)`, name, s)
		}
	}
	for j := 1; j <= 300; j++ {
		exec(`INSERT INTO jobs (owner, state, length_sec) VALUES (?, 'idle', 60)`, fmt.Sprintf("user%d", j%7))
	}
	for i := 1; i <= 80; i++ {
		exec(`INSERT INTO matches (job_id, vm_id, created_at) VALUES (?, ?, NULL)`, i, i)
	}
	exec(`INSERT INTO executables (name, version) VALUES ('sim', 'v1')`)
	for j := 1; j <= 50; j++ {
		exec(`INSERT INTO job_executables (job_id, executable_id) VALUES (?, 1)`, j)
	}
	return cas
}

// planRows returns EXPLAIN output as (table, access, read, join) rows in
// execution order.
func planRows(t *testing.T, cas *CAS, sql string, args ...any) [][4]string {
	t.Helper()
	rows, err := cas.Engine.Query("EXPLAIN "+sql, args...)
	if err != nil {
		t.Fatalf("EXPLAIN: %v", err)
	}
	out := make([][4]string, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, [4]string{r[0].Text(), r[1].Text(), r[2].Text(), r[3].Text()})
	}
	return out
}

// TestPairingJoinPlan pins the plan of the heartbeat's pairing join
// (pairingSQL) at every size a pool passes through: 4 VMs per machine
// over 25 and then 1,000 machines, and matches and runs each filling from
// 0 to 5,000 rows and emptying again, as lifecycle waves do. At each size
// the statement is executed, then explained: the plan is driven from the
// machine's VMs and every later step probes a unique index by the outer
// row. The executed statement's replans pick nothing but index probes
// (the planner's strategy counters), it builds no hash table, and it
// visits tens of rows — the 4 VMs, their 3 probes each and the deleted
// pairings' versions until GC takes them — never the 500 or 5,000 a scan
// of matches or runs would.
func TestPairingJoinPlan(t *testing.T) {
	cas, _ := newTestCAS(t)
	eng := cas.Engine
	exec := func(sql string) {
		t.Helper()
		if _, err := eng.Exec(sql); err != nil {
			t.Fatalf("fixture %.60q: %v", sql, err)
		}
	}
	// insertRows inserts rows lo..hi-1 of one table, 500 to a statement.
	insertRows := func(head string, lo, hi int, row func(i int) string) {
		t.Helper()
		for lo < hi {
			var b strings.Builder
			b.WriteString(head)
			for n := 0; n < 500 && lo < hi; n, lo = n+1, lo+1 {
				if n > 0 {
					b.WriteByte(',')
				}
				b.WriteString(row(lo))
			}
			exec(b.String())
		}
	}
	insertRows(`INSERT INTO jobs (owner, state, length_sec) VALUES `, 0, 300, func(int) string {
		return `('alice', 'matched', 60)`
	})
	machines, pairs := 0, 0
	addMachines := func(n int) {
		insertRows(`INSERT INTO machines (name, state) VALUES `, machines, n, func(i int) string {
			return fmt.Sprintf(`('m%04d', 'up')`, i)
		})
		insertRows(`INSERT INTO vms (machine, seq, state) VALUES `, 4*machines, 4*n, func(i int) string {
			return fmt.Sprintf(`('m%04d', %d, 'claimed')`, i/4, i%4)
		})
		machines = n
	}
	// setPairs leaves n matches and n runs, on VMs and jobs 1..n.
	setPairs := func(n int) {
		pair := func(i int) string { return fmt.Sprintf(`(%d, %d)`, i+1, i+1) }
		insertRows(`INSERT INTO matches (job_id, vm_id) VALUES `, pairs, n, pair)
		insertRows(`INSERT INTO runs (job_id, vm_id) VALUES `, pairs, n, pair)
		if n < pairs {
			exec(fmt.Sprintf(`DELETE FROM matches WHERE vm_id > %d`, n))
			exec(fmt.Sprintf(`DELETE FROM runs WHERE vm_id > %d`, n))
		}
		pairs = n
	}
	want := [][4]string{
		{"vms", "INDEX SCAN USING uq_vms_0 (machine = ?1)", "SNAPSHOT READ", "DRIVER"},
		{"matches", "INDEX SCAN USING uq_matches_1 (vm_id = v.id)", "SNAPSHOT READ", "INDEX NL"},
		{"jobs", "INDEX SCAN USING pk_jobs (id = m.job_id)", "SNAPSHOT READ", "INDEX NL"},
		{"runs", "INDEX SCAN USING uq_runs_1 (vm_id = v.id)", "SNAPSHOT READ", "INDEX NL"},
	}
	scanned := -1
	eng.SetStatsHook(func(s sqldb.StmtStats) {
		if s.Kind == "SELECT" && s.Table == "vms" {
			scanned = s.RowsScanned
		}
	})
	defer eng.SetStatsHook(nil)
	before := eng.PlannerStats()
	for _, nm := range []int{25, 1000} {
		addMachines(nm)
		for _, n := range []int{0, 1, 8, 500, 5000, 500, 8, 1, 0} {
			setPairs(n)
			rows, err := eng.Query(pairingSQL, "m0000")
			if err != nil {
				t.Fatal(err)
			}
			if rows.Len() != 4 || scanned > 64 {
				t.Errorf("%d machines, %d pairs: %d rows, %d scanned; want 4 rows, at most 64 scanned", nm, n, rows.Len(), scanned)
			}
			var got [][4]string
			for _, p := range planRows(t, cas, pairingSQL, "m0000") {
				p[1] = strings.TrimSuffix(p[1], " [CACHED]")
				got = append(got, p)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%d machines, %d pairs: plan\n  %v\nwant\n  %v", nm, n, got, want)
			}
		}
	}
	after := eng.PlannerStats()
	if after.HashJoins != before.HashJoins || after.NestedLoops != before.NestedLoops || after.HashBuilds != before.HashBuilds {
		t.Errorf("planner stats moved from %+v to %+v: a plan picked a hash join or a nested loop, or a run built a table", before, after)
	}
	if after.IndexNLJoins == before.IndexNLJoins {
		t.Error("no join plan was built: the sizes never reached the planner")
	}
}

func TestProvenanceJoinPlan(t *testing.T) {
	cas := statusPlanFixture(t)
	// Service.Provenance: job→executable resolution.
	plan := planRows(t, cas, `
		SELECT e.name, e.version FROM job_executables je
		JOIN executables e ON e.id = je.executable_id
		WHERE je.job_id = ?`, int64(7))
	if len(plan) != 2 {
		t.Fatalf("plan rows = %d: %v", len(plan), plan)
	}
	// Either side may drive (the planner sees executables as a 1-row
	// table); the invariant is that the multi-row job_executables table is
	// never probed by a seq-scan nested loop — its pk must carry the join.
	var je [4]string
	for _, p := range plan {
		if p[0] == "job_executables" {
			je = p
		}
	}
	if je[0] == "" {
		t.Fatalf("job_executables missing from plan %v", plan)
	}
	if !strings.Contains(je[1], "INDEX SCAN USING pk_job_executables") {
		t.Fatalf("job_executables access = %v, want pk index scan", je)
	}
	if je[3] != "DRIVER" && je[3] != "INDEX NL" {
		t.Fatalf("job_executables strategy = %q, want DRIVER or INDEX NL", je[3])
	}
}

// TestExplainShowsTheExecutedPlan: EXPLAIN of a statement that has run
// plans through that statement's own plan-cache slot, so it shows the
// plan that ran, every step marked [CACHED], and builds no plan of its
// own: the planner's counters hold still.
func TestExplainShowsTheExecutedPlan(t *testing.T) {
	cas := statusPlanFixture(t)
	if _, err := cas.Engine.Query(pairingSQL, "mach07"); err != nil {
		t.Fatal(err)
	}
	before := cas.Engine.PlannerStats()
	got := planRows(t, cas, pairingSQL, "mach07")
	if after := cas.Engine.PlannerStats(); after != before {
		t.Errorf("EXPLAIN moved the planner stats from %+v to %+v: it planned afresh", before, after)
	}
	want := [][4]string{
		{"vms", "INDEX SCAN USING uq_vms_0 (machine = ?1) [CACHED]", "SNAPSHOT READ", "DRIVER"},
		{"matches", "INDEX SCAN USING uq_matches_1 (vm_id = v.id) [CACHED]", "SNAPSHOT READ", "INDEX NL"},
		{"jobs", "INDEX SCAN USING pk_jobs (id = m.job_id) [CACHED]", "SNAPSHOT READ", "INDEX NL"},
		{"runs", "INDEX SCAN USING uq_runs_1 (vm_id = v.id) [CACHED]", "SNAPSHOT READ", "INDEX NL"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("EXPLAIN after the statement ran:\n  %v\nwant\n  %v", got, want)
	}
}

func TestPoolStatusAggregatePlan(t *testing.T) {
	cas := statusPlanFixture(t)
	// Service.PoolStatus: the monitoring tier's hot rollup. The plan must
	// stay a lock-free snapshot scan feeding the aggregation stage.
	plan := planRows(t, cas, machineStatesSQL)
	if len(plan) != 2 {
		t.Fatalf("plan rows = %d: %v", len(plan), plan)
	}
	if plan[0][0] != "machines" || plan[0][2] != "SNAPSHOT READ" {
		t.Fatalf("scan step = %v, want machines snapshot read", plan[0])
	}
	if plan[1][1] != "HASH AGGREGATE (state)" {
		t.Fatalf("aggregation step = %v, want HASH AGGREGATE (state)", plan[1])
	}

	// The executed statement is keyed by a cell (one TEXT grouping column,
	// read in place), visible through the CAS stats bridge.
	base := cas.Engine.ExecStats()
	if _, err := cas.Engine.Query(machineStatesSQL); err != nil {
		t.Fatal(err)
	}
	s := cas.Engine.ExecStats()
	if s.AggQueries != base.AggQueries+1 || s.AggFastPaths != base.AggFastPaths+1 {
		t.Fatalf("exec stats after pool-status query = %+v (base %+v), want +1 query on the fast path", s, base)
	}

	// The per-owner accounting rollup likewise ends in hash aggregation.
	plan = planRows(t, cas, `SELECT owner, count(*), sum(length_sec) FROM jobs GROUP BY owner`)
	last := plan[len(plan)-1]
	if last[1] != "HASH AGGREGATE (owner)" {
		t.Fatalf("accounting aggregation step = %v, want HASH AGGREGATE (owner)", last)
	}
}

// TestStatusJoinResultsMatchReference checks the heartbeat path's pairing
// join row for row against an expectation built with no join at all:
// single-table reads of the machine's VMs, the matches, the jobs and the
// runs, stitched together here. mach07's four VMs are given a match only,
// a match whose job is gone, a match and a run, and a run only.
func TestStatusJoinResultsMatchReference(t *testing.T) {
	cas := statusPlanFixture(t)
	for _, sql := range []string{
		`DELETE FROM jobs WHERE id = 30`,
		`DELETE FROM matches WHERE vm_id = 32`,
		`INSERT INTO runs (job_id, vm_id) VALUES (131, 31)`,
		`INSERT INTO runs (job_id, vm_id) VALUES (132, 32)`,
	} {
		if _, err := cas.Engine.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	planned, err := cas.Engine.Query(pairingSQL, "mach07")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range planned.Data {
		got = append(got, fmt.Sprint(r))
	}

	vms, err := beans.Select[VM](cas.Pool, "WHERE machine = ?", "mach07")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := beans.Select[Match](cas.Pool, "")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := beans.Select[Job](cas.Pool, "")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := beans.Select[Run](cas.Pool, "")
	if err != nil {
		t.Fatal(err)
	}
	jobByID := make(map[int64]Job, len(jobs))
	for _, j := range jobs {
		jobByID[j.ID] = j
	}
	null := sqldb.Value{}
	var want []string
	for _, v := range vms {
		row := []sqldb.Value{sqldb.NewInt(v.ID), null, null, null, null, null, null}
		for _, m := range matches {
			if m.VMID == v.ID {
				row[1], row[2] = sqldb.NewInt(m.ID), sqldb.NewInt(m.JobID)
				if j, ok := jobByID[m.JobID]; ok {
					row[3], row[4] = sqldb.NewText(j.Owner), sqldb.NewInt(j.LengthSec)
				}
			}
		}
		for _, r := range runs {
			if r.VMID == v.ID {
				row[5], row[6] = sqldb.NewInt(r.ID), sqldb.NewInt(r.JobID)
			}
		}
		want = append(want, fmt.Sprint(row))
	}
	if len(want) != 4 {
		t.Fatalf("fixture gives mach07 %d VMs, want 4", len(want))
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("pairing join rows:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
