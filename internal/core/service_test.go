package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"condorj2/internal/beans"
	"condorj2/internal/vtime"
)

// fakeClock is a manually advanced clock for deterministic tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) Now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTestCAS(t *testing.T) (*CAS, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: vtime.Epoch}
	cas, err := New(Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cas.Close() })
	return cas, clk
}

// beat sends a heartbeat for a 2-VM machine with the given VM statuses.
func beat(t *testing.T, s *Service, machine string, boot bool, vms ...VMStatus) *HeartbeatResponse {
	t.Helper()
	resp, err := s.Heartbeat(context.Background(), &HeartbeatRequest{
		Machine: machine, Boot: boot,
		Arch: "x86", OpSys: "linux", TotalMemoryMB: 2048,
		VMs: vms,
	})
	if err != nil {
		t.Fatalf("Heartbeat(%s): %v", machine, err)
	}
	return resp
}

func idleVMs(n int) []VMStatus {
	out := make([]VMStatus, n)
	for i := range out {
		out[i] = VMStatus{Seq: int64(i), State: "idle"}
	}
	return out
}

func TestSubmitInsertsJobTuples(t *testing.T) {
	cas, _ := newTestCAS(t)
	resp, err := cas.Service.Submit(context.Background(), &SubmitRequest{Owner: "alice", Count: 3, LengthSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FirstJobID != 1 || resp.LastJobID != 3 {
		t.Fatalf("ids = %d..%d", resp.FirstJobID, resp.LastJobID)
	}
	var n int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs WHERE state = 'idle'`).Scan(&n)
	if n != 3 {
		t.Fatalf("idle jobs = %d", n)
	}
	// Submitting auto-creates the user.
	var users int
	cas.Pool.QueryRow(`SELECT count(*) FROM users WHERE name = 'alice'`).Scan(&users)
	if users != 1 {
		t.Fatal("user not created")
	}
}

func TestSubmitValidation(t *testing.T) {
	cas, _ := newTestCAS(t)
	if _, err := cas.Service.Submit(context.Background(), &SubmitRequest{Owner: "", Count: 1, LengthSec: 60}); err == nil {
		t.Fatal("empty owner accepted")
	}
	if _, err := cas.Service.Submit(context.Background(), &SubmitRequest{Owner: "a", Count: 0, LengthSec: 60}); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := cas.Service.Submit(context.Background(), &SubmitRequest{Owner: "a", Count: 1, LengthSec: 0}); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestHeartbeatRegistersMachineAndVMs(t *testing.T) {
	cas, _ := newTestCAS(t)
	beat(t, cas.Service, "node1", true, idleVMs(4)...)
	var machines, vms int
	cas.Pool.QueryRow(`SELECT count(*) FROM machines`).Scan(&machines)
	cas.Pool.QueryRow(`SELECT count(*) FROM vms WHERE machine = 'node1'`).Scan(&vms)
	if machines != 1 || vms != 4 {
		t.Fatalf("machines = %d, vms = %d", machines, vms)
	}
	// Boot heartbeat records machine history attributes (§5.2.2).
	var hist int
	cas.Pool.QueryRow(`SELECT count(*) FROM machine_history WHERE machine = 'node1'`).Scan(&hist)
	if hist != 4 {
		t.Fatalf("machine history rows = %d, want 4 attrs", hist)
	}
	// A re-boot records them again.
	beat(t, cas.Service, "node1", true, idleVMs(4)...)
	cas.Pool.QueryRow(`SELECT count(*) FROM machine_history WHERE machine = 'node1'`).Scan(&hist)
	if hist != 8 {
		t.Fatalf("machine history rows after reboot = %d, want 8", hist)
	}
}

func TestFullJobLifecycle(t *testing.T) {
	cas, clk := newTestCAS(t)
	s := cas.Service

	// Table 2 steps 1-2: submit inserts a job tuple.
	sub, err := s.Submit(context.Background(), &SubmitRequest{Owner: "alice", Count: 1, LengthSec: 300})
	if err != nil {
		t.Fatal(err)
	}
	jobID := sub.FirstJobID

	// Step 3-4: startd heartbeat registers the machine; response is OK.
	resp := beat(t, s, "node1", true, idleVMs(1)...)
	if resp.Commands[0].Command != CmdOK {
		t.Fatalf("pre-match command = %+v", resp.Commands[0])
	}

	// Steps 5-6: scheduling cycle inserts a match tuple.
	stats, err := s.ScheduleCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != 1 {
		t.Fatalf("matched = %d", stats.Matched)
	}
	var jobState string
	cas.Pool.QueryRow(`SELECT state FROM jobs WHERE id = ?`, jobID).Scan(&jobState)
	if jobState != JobMatched {
		t.Fatalf("job state = %s", jobState)
	}

	// Steps 7-8: next heartbeat gets MATCHINFO.
	clk.advance(time.Minute)
	resp = beat(t, s, "node1", false, idleVMs(1)...)
	cmd := resp.Commands[0]
	if cmd.Command != CmdMatchInfo || cmd.JobID != jobID || cmd.LengthSec != 300 || cmd.Owner != "alice" {
		t.Fatalf("matchinfo = %+v", cmd)
	}

	// Steps 9-10: acceptMatch deletes the match, inserts a run, job→running.
	acc, err := s.AcceptMatch(context.Background(), &AcceptMatchRequest{
		Machine: "node1", Seq: 0, MatchID: cmd.MatchID, JobID: cmd.JobID,
	})
	if err != nil || !acc.OK {
		t.Fatalf("accept = %+v, %v", acc, err)
	}
	var matches, runs int
	cas.Pool.QueryRow(`SELECT count(*) FROM matches`).Scan(&matches)
	cas.Pool.QueryRow(`SELECT count(*) FROM runs`).Scan(&runs)
	if matches != 0 || runs != 1 {
		t.Fatalf("matches = %d, runs = %d", matches, runs)
	}
	cas.Pool.QueryRow(`SELECT state FROM jobs WHERE id = ?`, jobID).Scan(&jobState)
	if jobState != JobRunning {
		t.Fatalf("job state = %s", jobState)
	}

	// Steps 12-13: progress heartbeat is acknowledged.
	clk.advance(time.Minute)
	resp = beat(t, s, "node1", false, VMStatus{Seq: 0, State: "claimed", JobID: jobID, Phase: "running"})
	if resp.Commands[0].Command != CmdOK {
		t.Fatalf("progress command = %+v", resp.Commands[0])
	}

	// Steps 14-15: completion heartbeat triggers post-execution processing.
	clk.advance(5 * time.Minute)
	resp = beat(t, s, "node1", false, VMStatus{Seq: 0, State: "claimed", JobID: jobID, Phase: "completed"})
	if resp.Commands[0].Command != CmdOK {
		t.Fatalf("completion command = %+v", resp.Commands[0])
	}
	var jobs int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&jobs)
	cas.Pool.QueryRow(`SELECT count(*) FROM runs`).Scan(&runs)
	if jobs != 0 || runs != 0 {
		t.Fatalf("after completion: jobs = %d, runs = %d (tuples must be deleted)", jobs, runs)
	}
	var hist int
	cas.Pool.QueryRow(`SELECT count(*) FROM job_history WHERE job_id = ? AND outcome = 'completed'`, jobID).Scan(&hist)
	if hist != 1 {
		t.Fatal("job history not recorded")
	}
	st, err := s.UserStats(context.Background(), &UserStatsRequest{Owner: "alice"})
	if err != nil || st.CompletedJobs != 1 || st.TotalRuntimeSec != 300 {
		t.Fatalf("accounting = %+v, %v", st, err)
	}
	// The VM is idle again.
	var vmState string
	cas.Pool.QueryRow(`SELECT state FROM vms WHERE machine = 'node1' AND seq = 0`).Scan(&vmState)
	if vmState != VMIdle {
		t.Fatalf("vm state = %s", vmState)
	}
}

func TestScheduleCycleBatch(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	s.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 10, LengthSec: 60})
	for i := 0; i < 3; i++ {
		beat(t, s, "node"+strings.Repeat("x", i+1), true, idleVMs(2)...)
	}
	stats, err := s.ScheduleCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != 6 {
		t.Fatalf("matched = %d, want 6 (limited by VMs)", stats.Matched)
	}
	// Second cycle matches nothing (no idle VMs left).
	stats, _ = s.ScheduleCycle(context.Background())
	if stats.Matched != 0 {
		t.Fatalf("second cycle matched = %d", stats.Matched)
	}
}

func TestSchedulerRespectsMemoryConstraint(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	// One machine with 2 VMs × 1024 MB each.
	beat(t, s, "small", true, idleVMs(2)...)
	s.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 1, LengthSec: 60, MinMemoryMB: 4096})
	stats, err := s.ScheduleCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != 0 {
		t.Fatal("oversized job matched to small VM")
	}
	s.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 1, LengthSec: 60, MinMemoryMB: 512})
	stats, _ = s.ScheduleCycle(context.Background())
	if stats.Matched != 1 {
		t.Fatalf("fitting job not matched: %+v", stats)
	}
}

func TestSchedulerPriorityOrder(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	s.Submit(context.Background(), &SubmitRequest{Owner: "low", Count: 1, LengthSec: 60, Priority: 0.1})
	s.Submit(context.Background(), &SubmitRequest{Owner: "high", Count: 1, LengthSec: 60, Priority: 0.9})
	beat(t, s, "node1", true, idleVMs(1)...)
	s.ScheduleCycle(context.Background())
	var owner string
	cas.Pool.QueryRow(`SELECT owner FROM jobs WHERE state = 'matched'`).Scan(&owner)
	if owner != "high" {
		t.Fatalf("matched owner = %s, want high", owner)
	}
}

func TestDroppedJobReturnsToQueue(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	sub, _ := s.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 1, LengthSec: 6})
	beat(t, s, "node1", true, idleVMs(1)...)
	s.ScheduleCycle(context.Background())
	resp := beat(t, s, "node1", false, idleVMs(1)...)
	cmd := resp.Commands[0]
	s.AcceptMatch(context.Background(), &AcceptMatchRequest{Machine: "node1", Seq: 0, MatchID: cmd.MatchID, JobID: cmd.JobID})

	// The node times out setting up the job and drops it.
	beat(t, s, "node1", false, VMStatus{Seq: 0, State: "claimed", JobID: sub.FirstJobID, Phase: "dropped"})

	var state string
	cas.Pool.QueryRow(`SELECT state FROM jobs WHERE id = ?`, sub.FirstJobID).Scan(&state)
	if state != JobIdle {
		t.Fatalf("dropped job state = %s, want idle (requeued)", state)
	}
	var drops int
	cas.Pool.QueryRow(`SELECT count(*) FROM drops WHERE machine = 'node1'`).Scan(&drops)
	if drops != 1 {
		t.Fatalf("drops recorded = %d", drops)
	}
	var runs int
	cas.Pool.QueryRow(`SELECT count(*) FROM runs`).Scan(&runs)
	if runs != 0 {
		t.Fatal("run tuple survived drop")
	}
	// The VM must be schedulable again.
	stats, _ := s.ScheduleCycle(context.Background())
	if stats.Matched != 1 {
		t.Fatalf("requeued job not rematched: %+v", stats)
	}
}

func TestDependencyUnblocksOnCompletion(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	first, _ := s.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 1, LengthSec: 60})
	dep, _ := s.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 2, LengthSec: 360, DependsOn: first.FirstJobID})

	var state string
	cas.Pool.QueryRow(`SELECT state FROM jobs WHERE id = ?`, dep.FirstJobID).Scan(&state)
	if state != JobBlocked {
		t.Fatalf("dependent state = %s", state)
	}

	// Blocked jobs are not schedulable.
	beat(t, s, "node1", true, idleVMs(3)...)
	stats, _ := s.ScheduleCycle(context.Background())
	if stats.Matched != 1 {
		t.Fatalf("matched = %d, want only the independent job", stats.Matched)
	}

	// Run the first job to completion.
	resp := beat(t, s, "node1", false, idleVMs(3)...)
	for _, cmd := range resp.Commands {
		if cmd.Command == CmdMatchInfo {
			s.AcceptMatch(context.Background(), &AcceptMatchRequest{Machine: "node1", Seq: cmd.Seq, MatchID: cmd.MatchID, JobID: cmd.JobID})
			beat(t, s, "node1", false, VMStatus{Seq: cmd.Seq, State: "claimed", JobID: cmd.JobID, Phase: "completed"})
		}
	}
	// Dependents unblocked.
	var blocked int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs WHERE state = 'blocked'`).Scan(&blocked)
	if blocked != 0 {
		t.Fatalf("blocked jobs after completion = %d", blocked)
	}
	stats, _ = s.ScheduleCycle(context.Background())
	if stats.Matched != 2 {
		t.Fatalf("unblocked jobs matched = %d", stats.Matched)
	}
}

func TestAcceptMatchStaleRejected(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	resp, err := s.AcceptMatch(context.Background(), &AcceptMatchRequest{Machine: "nodeX", Seq: 0, MatchID: 999, JobID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("stale match accepted")
	}
}

func TestReleaseJob(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	sub, _ := s.Submit(context.Background(), &SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60})
	if _, err := s.ReleaseJob(context.Background(), &ReleaseJobRequest{JobID: sub.FirstJobID, Owner: "mallory"}); err == nil {
		t.Fatal("foreign release accepted")
	}
	resp, err := s.ReleaseJob(context.Background(), &ReleaseJobRequest{JobID: sub.FirstJobID, Owner: "alice"})
	if err != nil || !resp.OK {
		t.Fatalf("release = %+v, %v", resp, err)
	}
	var n int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&n)
	if n != 0 {
		t.Fatal("released job still queued")
	}
	var hist int
	cas.Pool.QueryRow(`SELECT count(*) FROM job_history WHERE outcome = 'removed'`).Scan(&hist)
	if hist != 1 {
		t.Fatal("removal not historized")
	}
}

func TestPoolStatusCounts(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	s.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 4, LengthSec: 60})
	beat(t, s, "node1", true, idleVMs(2)...)
	s.ScheduleCycle(context.Background())
	st, err := s.PoolStatus(context.Background(), &PoolStatusRequest{})
	if err != nil {
		t.Fatal(err)
	}
	jobCounts := map[string]int64{}
	for _, sc := range st.Jobs {
		jobCounts[sc.State] = sc.Count
	}
	if jobCounts[JobIdle] != 2 || jobCounts[JobMatched] != 2 {
		t.Fatalf("job counts = %v", jobCounts)
	}
}

func TestConfigRoundTripAndHistory(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	got, err := s.ConfigGet(context.Background(), &ConfigGetRequest{Name: "schedule_batch"})
	if err != nil || got.Value != "500" {
		t.Fatalf("default = %+v, %v", got, err)
	}
	if _, err := s.ConfigSet(context.Background(), &ConfigSetRequest{Name: "schedule_batch", Value: "64"}); err != nil {
		t.Fatal(err)
	}
	got, _ = s.ConfigGet(context.Background(), &ConfigGetRequest{Name: "schedule_batch"})
	if got.Value != "64" {
		t.Fatalf("updated = %+v", got)
	}
	var hist int
	cas.Pool.QueryRow(`SELECT count(*) FROM config_history WHERE name = 'schedule_batch'`).Scan(&hist)
	if hist != 1 {
		t.Fatalf("config history rows = %d", hist)
	}
	if _, err := s.ConfigGet(context.Background(), &ConfigGetRequest{Name: "no_such_key"}); err == nil {
		t.Fatal("missing config read succeeded")
	}
	// The published settings follow each ConfigSet, and a value that is no
	// integer falls back on the key's DefaultConfig value.
	if v := s.conf.Load().batch; v != 64 {
		t.Fatalf("published batch after set = %d, want 64", v)
	}
	s.ConfigSet(context.Background(), &ConfigSetRequest{Name: "schedule_batch", Value: "not-a-number"})
	if v := s.conf.Load().batch; v != 500 {
		t.Fatalf("published batch for a bad value = %d, want the default 500", v)
	}
}

func TestStateMachineRejectsInvalidTransitions(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	sub, _ := s.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 1, LengthSec: 60})
	// Directly exercising the fine-grained bean service: MarkRunning on an
	// idle job must fail validation (the paper's "verify that the object is
	// in a state in which the particular service call is valid").
	tx, err := cas.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	job := &Job{ID: sub.FirstJobID}
	if err := beans.Find(tx, job); err != nil {
		t.Fatal(err)
	}
	var stateErr *StateError
	if err := job.MarkRunning(tx, time.Now()); !errors.As(err, &stateErr) {
		t.Fatalf("MarkRunning on idle job = %v, want StateError", err)
	}
	if stateErr.From != JobIdle || stateErr.Op != "MarkRunning" {
		t.Fatalf("StateError = %+v", stateErr)
	}
	vm := &VM{ID: 1}
	if err := vm.MarkClaimed(tx); !errors.As(err, &stateErr) {
		// VM 1 does not exist / is not matched; either NotFound via Update
		// or StateError is acceptable — but an idle VM must reject claims.
		var vm2 VM
		vm2.State = VMIdle
		if err2 := (&vm2).MarkClaimed(tx); !errors.As(err2, &stateErr) {
			t.Fatalf("MarkClaimed on idle VM = %v, want StateError", err2)
		}
	}
}

func TestQueueStatusHonorsLimit(t *testing.T) {
	cas, _ := newTestCAS(t)
	cas.Service.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 1200, LengthSec: 60})
	for _, c := range []struct {
		name        string
		limit, want int
	}{
		{"a limit is honored", 10, 10},
		{"unset: the default", 0, queueStatusDefault},
		{"negative: the default", -5, queueStatusDefault},
		{"above the default", 1100, 1100},
		{"over the cap: clamped to it, not reset to the default", queueStatusMax + 10000, 1200},
	} {
		resp, err := cas.Service.QueueStatus(context.Background(), &QueueStatusRequest{Owner: "u", Limit: c.limit})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Jobs) != c.want {
			t.Errorf("%s: Limit %d returned %d jobs, want %d", c.name, c.limit, len(resp.Jobs), c.want)
		}
		// Jobs come back in id order.
		for i := 1; i < len(resp.Jobs); i++ {
			if resp.Jobs[i].ID <= resp.Jobs[i-1].ID {
				t.Fatalf("%s: queue listing out of id order", c.name)
			}
		}
	}
}

func TestHeartbeatUnknownVMRejected(t *testing.T) {
	cas, _ := newTestCAS(t)
	beat(t, cas.Service, "node1", true, idleVMs(2)...)
	// Report a VM the machine never registered.
	_, err := cas.Service.Heartbeat(context.Background(), &HeartbeatRequest{
		Machine: "node1",
		VMs:     []VMStatus{{Seq: 7, State: "idle"}},
	})
	if err == nil {
		t.Fatal("heartbeat from unregistered VM accepted")
	}
}
