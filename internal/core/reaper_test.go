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
