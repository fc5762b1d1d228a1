package core

import (
	"context"
	"strings"
	"testing"

	"condorj2/internal/sqldb"
)

// TestScheduleCycleAccessPaths locks in the access paths of the
// scheduler's hot selections: both the job pick (WHERE state = ? ORDER BY
// priority DESC, id LIMIT ?) and the VM pick (WHERE state = ? ORDER BY id
// LIMIT ?) must run as index scans that order the statement in full —
// the job pick across its direction change, priorities downward and ids
// upward under each — never seq-scan-plus-sort over the whole table, nor
// a walk through every job tied on priority. A schema or planner
// regression that loses the path fails here long before it shows up as a
// throughput cliff.
func TestScheduleCycleAccessPaths(t *testing.T) {
	cas, _ := newTestCAS(t)

	explain := func(sql string, args ...any) string {
		t.Helper()
		rows, err := cas.Engine.Query(sql, args...)
		if err != nil {
			t.Fatalf("EXPLAIN: %v", err)
		}
		if rows.Len() != 1 {
			t.Fatalf("EXPLAIN returned %d rows", rows.Len())
		}
		return rows.Data[0][1].Text()
	}

	// The scheduler's job selection (Service.ScheduleCycle).
	access := explain(`EXPLAIN SELECT id, owner, state, priority FROM jobs WHERE state = ? ORDER BY priority DESC, id LIMIT ?`,
		"idle", 500)
	if !strings.Contains(access, "INDEX SCAN USING jobs_state_priority") {
		t.Fatalf("job selection access path = %q, want jobs_state_priority index scan", access)
	}
	if !strings.HasSuffix(access, "ORDER REVERSE BY priority") {
		t.Fatalf("job selection access path = %q, want the full-order walk: priority groups in reverse, ids forward", access)
	}

	// The scheduler's VM selection.
	access = explain(`EXPLAIN SELECT id, machine, state FROM vms WHERE state = ? ORDER BY id LIMIT ?`, "idle", 500)
	if !strings.Contains(access, "INDEX SCAN USING vms_state") {
		t.Fatalf("vm selection access path = %q, want vms_state index scan", access)
	}
	if !strings.Contains(access, "ORDER") || strings.Contains(access, "REVERSE") {
		t.Fatalf("vm selection access path = %q, want forward ordered scan", access)
	}
}

// TestScheduleCycleReadsItsBatch: with 20,000 idle jobs tied on one
// priority and 50 idle VMs, the cycle's job pick reads the 50 jobs it
// matches and the one that proves the stop — not the queue — and, in its
// read-write transaction, locks no more than it read and wrote; the jobs
// matched are the 50 oldest, each VM to a job, FIFO.
func TestScheduleCycleReadsItsBatch(t *testing.T) {
	cas, _ := newTestCAS(t)
	ctx := context.Background()
	for m := 0; m < 25; m++ {
		beat(t, cas.Service, "node"+string(rune('a'+m)), true, idleVMs(2)...)
	}
	sub, err := cas.Service.Submit(ctx, &SubmitRequest{Owner: "u", Count: 20000, LengthSec: 60})
	if err != nil {
		t.Fatal(err)
	}

	pickScanned, maxLocks := -1, int64(0)
	cas.Engine.SetStatsHook(func(s sqldb.StmtStats) {
		// Every statement reports while its transaction is still open:
		// the high-water mark of row locks is the cycle's.
		maxLocks = max(maxLocks, cas.Engine.LockStats().HeldRow)
		if s.Kind == "SELECT" && s.Table == "jobs" {
			pickScanned = s.RowsScanned
		}
	})
	stats, err := cas.Service.ScheduleCycle(ctx)
	cas.Engine.SetStatsHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IdleVMs != 50 || stats.IdleJobs != 50 || stats.Matched != 50 {
		t.Fatalf("cycle stats = %+v, want 50 VMs, 50 jobs, 50 matches", stats)
	}
	if pickScanned < 50 || pickScanned > 52 {
		t.Errorf("the job pick scanned %d index entries, want the 50 it returns and at most 2 more", pickScanned)
	}
	// 401 when written: the two picks' 51 rows each, and per match the job,
	// the VM, the match row and its key locks.
	if maxLocks > 500 {
		t.Errorf("the cycle held %d row and key locks, want under ten per match, not the queue", maxLocks)
	}
	rows, err := cas.Engine.Query(`SELECT job_id FROM matches ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 50 {
		t.Fatalf("%d matches", rows.Len())
	}
	for i, r := range rows.Data {
		if want := sub.FirstJobID + int64(i); r[0].Int64() != want {
			t.Fatalf("match %d is job %d, want %d: FIFO within the priority", i, r[0].Int64(), want)
		}
	}
}
