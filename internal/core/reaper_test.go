package core

import (
	"context"
	"testing"
	"time"
)

func TestReapDeadMachineReleasesWork(t *testing.T) {
	cas, clk := newTestCAS(t)
	s := cas.Service

	s.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 2, LengthSec: 600})
	beat(t, s, "doomed", true, idleVMs(2)...)
	s.ScheduleCycle(context.Background())

	// Accept one match so one job runs and one stays matched.
	resp := beat(t, s, "doomed", false, idleVMs(2)...)
	for _, cmd := range resp.Commands {
		if cmd.Command == CmdMatchInfo {
			if _, err := s.AcceptMatch(context.Background(), &AcceptMatchRequest{
				Machine: "doomed", Seq: cmd.Seq, MatchID: cmd.MatchID, JobID: cmd.JobID,
			}); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	// The machine goes silent; before the timeout nothing is reaped.
	clk.advance(2 * time.Minute)
	stats, err := s.ReapDeadMachines(context.Background(), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MachinesReaped != 0 {
		t.Fatalf("reaped %d machines before timeout", stats.MachinesReaped)
	}

	// Past the timeout the machine is declared dead and its work freed.
	clk.advance(10 * time.Minute)
	stats, err = s.ReapDeadMachines(context.Background(), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MachinesReaped != 1 {
		t.Fatalf("MachinesReaped = %d", stats.MachinesReaped)
	}
	if stats.JobsReleased != 2 || stats.VMsReset != 2 {
		t.Fatalf("stats = %+v, want both jobs released", stats)
	}
	var idle int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs WHERE state = 'idle'`).Scan(&idle)
	if idle != 2 {
		t.Fatalf("idle jobs = %d, want 2 (no job lost)", idle)
	}
	var machineState string
	cas.Pool.QueryRow(`SELECT state FROM machines WHERE name = 'doomed'`).Scan(&machineState)
	if machineState != MachineOffline {
		t.Fatalf("machine state = %s", machineState)
	}
	var pairs int
	cas.Pool.QueryRow(`SELECT count(*) FROM matches`).Scan(&pairs)
	if pairs != 0 {
		t.Fatal("orphan match tuples remain")
	}
	cas.Pool.QueryRow(`SELECT count(*) FROM runs`).Scan(&pairs)
	if pairs != 0 {
		t.Fatal("orphan run tuples remain")
	}

	// A later heartbeat brings the machine back up.
	beat(t, s, "doomed", false, idleVMs(2)...)
	cas.Pool.QueryRow(`SELECT state FROM machines WHERE name = 'doomed'`).Scan(&machineState)
	if machineState != MachineUp {
		t.Fatalf("machine state after return = %s", machineState)
	}
}

func TestReapSparesHealthyMachines(t *testing.T) {
	cas, clk := newTestCAS(t)
	s := cas.Service
	beat(t, s, "alive", true, idleVMs(1)...)
	clk.advance(time.Minute)
	beat(t, s, "alive", false, idleVMs(1)...) // fresh heartbeat
	stats, err := s.ReapDeadMachines(context.Background(), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MachinesReaped != 0 {
		t.Fatal("healthy machine reaped")
	}
}

// TestReturningNodeReconciles: a machine is reaped while its node keeps
// running a job, then the node beats again reporting the slot claimed by
// that job. If the job is idle again, the execution is re-adopted: the
// reply is OK, the run row is rebuilt, the job runs and the VM is claimed.
// If the job was rematched elsewhere or is gone, the reply is RELEASE with
// the job's id and the VM is idle.
func TestReturningNodeReconciles(t *testing.T) {
	ctx := context.Background()
	// reaped returns a CAS whose machine n1 ran job 1 until it was reaped.
	reaped := func(t *testing.T) (*CAS, *Service) {
		cas, clk := newTestCAS(t)
		s := cas.Service
		if _, err := s.Submit(ctx, &SubmitRequest{Owner: "u", Count: 1, LengthSec: 600}); err != nil {
			t.Fatal(err)
		}
		beat(t, s, "n1", true, idleVMs(1)...)
		if _, err := s.ScheduleCycle(ctx); err != nil {
			t.Fatal(err)
		}
		cmd := beat(t, s, "n1", false, idleVMs(1)...).Commands[0]
		if cmd.Command != CmdMatchInfo || cmd.JobID != 1 {
			t.Fatalf("n1 was told %+v, want MATCHINFO for job 1", cmd)
		}
		if _, err := s.AcceptMatch(ctx, &AcceptMatchRequest{Machine: "n1", Seq: 0, MatchID: cmd.MatchID, JobID: 1}); err != nil {
			t.Fatal(err)
		}
		clk.advance(10 * time.Minute)
		if st, err := s.ReapDeadMachines(ctx, 5*time.Minute); err != nil || st.MachinesReaped != 1 || st.JobsReleased != 1 {
			t.Fatalf("reap: %+v, %v", st, err)
		}
		return cas, s
	}
	state := func(cas *CAS, query string) string {
		var v string
		if err := cas.Pool.QueryRow(query).Scan(&v); err != nil {
			return "none: " + err.Error()
		}
		return v
	}
	running := VMStatus{Seq: 0, State: "claimed", JobID: 1}

	t.Run("readopted", func(t *testing.T) {
		cas, s := reaped(t)
		if got := state(cas, `SELECT state FROM jobs WHERE id = 1`); got != JobIdle {
			t.Fatalf("job after the reap: %s, want idle", got)
		}
		cmd := beat(t, s, "n1", false, running).Commands[0]
		if cmd.Command != CmdOK {
			t.Fatalf("returning node told %+v, want OK", cmd)
		}
		if got := state(cas, `SELECT state FROM jobs WHERE id = 1`); got != JobRunning {
			t.Fatalf("job: %s, want running", got)
		}
		if got := state(cas, `SELECT vms.state FROM runs JOIN vms ON vms.id = runs.vm_id WHERE runs.job_id = 1 AND vms.machine = 'n1'`); got != VMClaimed {
			t.Fatalf("n1's VM under the rebuilt run: %s, want claimed", got)
		}
	})
	t.Run("rematched", func(t *testing.T) {
		cas, s := reaped(t)
		beat(t, s, "n2", true, idleVMs(1)...)
		if _, err := s.ScheduleCycle(ctx); err != nil {
			t.Fatal(err)
		}
		if got := state(cas, `SELECT state FROM jobs WHERE id = 1`); got != JobMatched {
			t.Fatalf("job after the cycle: %s, want matched to n2", got)
		}
		cmd := beat(t, s, "n1", false, running).Commands[0]
		if cmd.Command != CmdRelease || cmd.JobID != 1 {
			t.Fatalf("returning node told %+v, want RELEASE of job 1", cmd)
		}
		if got := state(cas, `SELECT state FROM vms WHERE machine = 'n1'`); got != VMIdle {
			t.Fatalf("n1's VM: %s, want idle", got)
		}
		if got := state(cas, `SELECT state FROM jobs WHERE id = 1`); got != JobMatched {
			t.Fatalf("job: %s, want still matched to n2", got)
		}
	})
	t.Run("gone", func(t *testing.T) {
		cas, s := reaped(t)
		if _, err := cas.Pool.Exec(`DELETE FROM jobs WHERE id = 1`); err != nil {
			t.Fatal(err)
		}
		cmd := beat(t, s, "n1", false, running).Commands[0]
		if cmd.Command != CmdRelease || cmd.JobID != 1 {
			t.Fatalf("returning node told %+v, want RELEASE of job 1", cmd)
		}
		if got := state(cas, `SELECT state FROM vms WHERE machine = 'n1'`); got != VMIdle {
			t.Fatalf("n1's VM: %s, want idle", got)
		}
	})
}
