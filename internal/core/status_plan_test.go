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

func TestPendingMatchesJoinPlan(t *testing.T) {
	cas := statusPlanFixture(t)
	// Service.pendingMatches: the heartbeat-path vm→matches→jobs join.
	plan := planRows(t, cas, `
		SELECT m.id, m.job_id, v.id, j.owner, j.length_sec
		FROM vms v
		JOIN matches m ON m.vm_id = v.id
		JOIN jobs j ON j.id = m.job_id
		WHERE v.machine = ?`, "mach07")
	if len(plan) != 3 {
		t.Fatalf("plan rows = %d: %v", len(plan), plan)
	}
	// Statistics drive from the machine-filtered vms table (4 of 100
	// rows), not from FROM order luck: the machine filter rides the
	// UNIQUE (machine, seq) index.
	if plan[0][0] != "vms" || !strings.Contains(plan[0][1], "INDEX SCAN USING uq_vms") {
		t.Fatalf("driver = %v, want vms via uq_vms index", plan[0])
	}
	// Both probes must be index nested-loops over the unique indexes.
	if plan[1][0] != "matches" || plan[1][3] != "INDEX NL" || !strings.Contains(plan[1][1], "INDEX SCAN USING uq_matches") {
		t.Fatalf("matches edge = %v, want INDEX NL via uq_matches", plan[1])
	}
	if plan[2][0] != "jobs" || plan[2][3] != "INDEX NL" || !strings.Contains(plan[2][1], "INDEX SCAN USING pk_jobs") {
		t.Fatalf("jobs edge = %v, want INDEX NL via pk_jobs", plan[2])
	}
	// Monitoring joins stay lock-free snapshot reads end to end.
	for _, p := range plan {
		if p[2] != "SNAPSHOT READ" {
			t.Fatalf("step %v not a snapshot read", p)
		}
	}
	if s := cas.Engine.PlannerStats(); s.JoinQueries == 0 {
		t.Fatal("planner stats not wired through CAS")
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

func TestPoolStatusAggregatePlan(t *testing.T) {
	cas := statusPlanFixture(t)
	// Service.PoolStatus: the monitoring tier's hot rollup. The plan must
	// stay a lock-free snapshot scan feeding the aggregation stage.
	plan := planRows(t, cas, `SELECT state, count(*) FROM machines GROUP BY state ORDER BY state`)
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
	if _, err := cas.Engine.Query(`SELECT state, count(*) FROM machines GROUP BY state ORDER BY state`); err != nil {
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

// TestStatusJoinResultsMatchReference checks the heartbeat path's status
// join row for row against an expectation built with no join at all:
// single-table reads of the machine's VMs, the matches and the jobs,
// stitched together here.
func TestStatusJoinResultsMatchReference(t *testing.T) {
	cas := statusPlanFixture(t)
	planned, err := cas.Engine.Query(`
		SELECT m.id, m.job_id, v.id, j.owner, j.length_sec
		FROM vms v
		JOIN matches m ON m.vm_id = v.id
		JOIN jobs j ON j.id = m.job_id
		WHERE v.machine = ?`, "mach07")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range planned.Data {
		got = append(got, fmt.Sprint(r[0].Int64(), r[1].Int64(), r[2].Int64(), r[3].Text(), r[4].Int64()))
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
	jobByID := make(map[int64]Job, len(jobs))
	for _, j := range jobs {
		jobByID[j.ID] = j
	}
	var want []string
	for _, v := range vms {
		for _, m := range matches {
			if j, ok := jobByID[m.JobID]; ok && m.VMID == v.ID {
				want = append(want, fmt.Sprint(m.ID, m.JobID, v.ID, j.Owner, j.LengthSec))
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture gives mach07 no matched job")
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("status join rows:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
