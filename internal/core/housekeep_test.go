package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// These tests call CAS.housekeep — the body of StartScheduler's goroutine —
// with a tick number, under a stepped clock: nothing here waits for a
// ticker.

// poolSnapshot renders everything a housekeeping tick may change.
func poolSnapshot(t *testing.T, cas *CAS) string {
	t.Helper()
	var b strings.Builder
	for _, q := range []string{
		`SELECT name, state FROM machines ORDER BY name`,
		`SELECT machine, seq, state FROM vms ORDER BY machine, seq`,
		`SELECT id, state FROM jobs ORDER BY id`,
		`SELECT job_id, vm_id FROM matches ORDER BY job_id`,
		`SELECT job_id, vm_id FROM runs ORDER BY job_id`,
	} {
		rows, err := cas.Engine.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s\n%v\n", q, rows.Data)
	}
	return b.String()
}

func count(t *testing.T, cas *CAS, q string, args ...any) int64 {
	t.Helper()
	row, err := cas.Engine.QueryRow(q, args...)
	if err != nil {
		t.Fatal(err)
	}
	return row[0].Int64()
}

// acceptAll accepts every match a heartbeat reply offers machine.
func acceptAll(t *testing.T, s *Service, machine string, resp *HeartbeatResponse) {
	t.Helper()
	for _, cmd := range resp.Commands {
		if cmd.Command != CmdMatchInfo {
			continue
		}
		if _, err := s.AcceptMatch(context.Background(), &AcceptMatchRequest{
			Machine: machine, Seq: cmd.Seq, MatchID: cmd.MatchID, JobID: cmd.JobID,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHousekeepReapsSilentMachines: heartbeat_interval_sec is 60 and the
// tick period 1 s, so every 60th tick sweeps for machines silent longer than
// three intervals. The silent machine's matched and running jobs go back to
// idle and its VMs offline; the machine that beat inside the window keeps
// its job; the next sweep finds nothing left to do.
func TestHousekeepReapsSilentMachines(t *testing.T) {
	cas, clk := newTestCAS(t)
	s, ctx := cas.Service, context.Background()

	s.Submit(ctx, &SubmitRequest{Owner: "u", Count: 3, LengthSec: 3600})
	beat(t, s, "doomed", true, idleVMs(2)...)
	beat(t, s, "alive", true, idleVMs(1)...)
	cas.housekeep(ctx, 1) // the cycle: three jobs onto three VMs
	if n := count(t, cas, `SELECT count(*) FROM matches`); n != 3 {
		t.Fatalf("tick 1 matched %d jobs, want 3", n)
	}
	// doomed starts one of its two jobs (the other stays matched); alive
	// starts its one.
	resp := beat(t, s, "doomed", false, idleVMs(2)...)
	resp.Commands = resp.Commands[:1]
	acceptAll(t, s, "doomed", resp)
	acceptAll(t, s, "alive", beat(t, s, "alive", false, idleVMs(1)...))
	aliveJob := count(t, cas, `SELECT r.job_id FROM runs r, vms v WHERE r.vm_id = v.id AND v.machine = 'alive'`)
	if m, r := count(t, cas, `SELECT count(*) FROM matches`), count(t, cas, `SELECT count(*) FROM runs`); m != 1 || r != 2 {
		t.Fatalf("%d matches and %d runs before the outage, want 1 and 2", m, r)
	}
	aliveBeat := func() {
		beat(t, s, "alive", false, VMStatus{Seq: 0, State: "claimed", JobID: aliveJob, Phase: "running"})
	}

	clk.advance(150 * time.Second)
	aliveBeat()
	clk.advance(40 * time.Second) // doomed silent 190 s > 3×60 s; alive 40 s
	before := poolSnapshot(t, cas)
	cas.housekeep(ctx, 59)
	if got := poolSnapshot(t, cas); got != before {
		t.Fatalf("tick 59 is not a sweep, yet the pool changed:\n%s\n→\n%s", before, got)
	}
	cas.housekeep(ctx, 60)
	if n := count(t, cas, `SELECT count(*) FROM jobs WHERE state = ? AND id <> ?`, JobIdle, aliveJob); n != 2 {
		t.Errorf("%d of doomed's jobs back in idle, want 2", n)
	}
	if n := count(t, cas, `SELECT count(*) FROM vms WHERE machine = 'doomed' AND state = ?`, VMOffline); n != 2 {
		t.Errorf("%d of doomed's VMs offline, want 2", n)
	}
	if n := count(t, cas, `SELECT count(*) FROM machines WHERE name = 'doomed' AND state = ?`, MachineOffline); n != 1 {
		t.Error("doomed not marked offline")
	}
	if n := count(t, cas, `SELECT count(*) FROM matches`) + count(t, cas, `SELECT count(*) FROM runs`); n != 1 {
		t.Errorf("%d pairings left, want alive's run alone", n)
	}
	if n := count(t, cas, `SELECT count(*) FROM machines m, vms v, runs r WHERE m.name = 'alive' AND m.state = ? AND v.machine = m.name AND v.state = ? AND r.vm_id = v.id AND r.job_id = ?`,
		MachineUp, VMClaimed, aliveJob); n != 1 {
		t.Error("the machine that beat inside the window was touched")
	}

	after := poolSnapshot(t, cas)
	clk.advance(30 * time.Second)
	aliveBeat()
	cas.housekeep(ctx, 61)
	cas.housekeep(ctx, 120)
	if got := poolSnapshot(t, cas); got != after {
		t.Errorf("a second sweep changed the pool:\n%s\n→\n%s", after, got)
	}
}

// pagedCAS assembles a CAS on a paged MemVFS engine under a stepped clock.
func pagedCAS(t *testing.T) (*CAS, *sqldb.MemVFS, *fakeClock) {
	t.Helper()
	vfs := sqldb.NewMemVFS()
	engine, err := sqldb.Open(sqldb.Options{VFS: vfs, Path: "cas.wal", PoolPages: 64, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	cas, err := New(Options{Engine: engine, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cas.Close()
		engine.Close()
	})
	return cas, vfs, clk
}

func walSize(t *testing.T, vfs *sqldb.MemVFS) int {
	t.Helper()
	data, err := vfs.ReadFile("cas.wal")
	if err != nil {
		t.Fatal(err)
	}
	return len(data)
}

// TestHousekeepCheckpointsPagedEngine: every 30th tick a paged engine takes
// a fuzzy checkpoint — the count advances and the WAL file shrinks — and an
// engine without pages is left alone.
func TestHousekeepCheckpointsPagedEngine(t *testing.T) {
	cas, vfs, _ := pagedCAS(t)
	ctx := context.Background()
	cas.Service.Submit(ctx, &SubmitRequest{Owner: "u", Count: 50, LengthSec: 60})
	grown := walSize(t, vfs)
	cas.housekeep(ctx, 29)
	if bs := cas.Engine.BufferPoolStats(); bs.Checkpoints != 0 {
		t.Fatalf("tick 29 checkpointed (%d)", bs.Checkpoints)
	}
	cas.housekeep(ctx, 30)
	bs := cas.Engine.BufferPoolStats()
	if bs.Checkpoints != 1 || bs.CheckpointErrors != 0 || bs.CheckpointLSN == 0 {
		t.Fatalf("after tick 30: %d checkpoints, %d errors, LSN %d; want one clean checkpoint", bs.Checkpoints, bs.CheckpointErrors, bs.CheckpointLSN)
	}
	if got := walSize(t, vfs); got >= grown {
		t.Errorf("WAL is %d bytes after the checkpoint tick, was %d before", got, grown)
	}

	plain, _ := newTestCAS(t)
	plain.housekeep(ctx, 30) // log-less, page-less: nothing to checkpoint, nothing to fail
}

// TestHousekeepOnGatedNode: while the write gate is down the tick runs no
// cycle, reaps nothing and collects no replies — a follower's tables are the
// leader's to change — but still checkpoints its own files.
func TestHousekeepOnGatedNode(t *testing.T) {
	cas, vfs, clk := pagedCAS(t)
	s, ctx := cas.Service, context.Background()
	s.Submit(ctx, &SubmitRequest{Owner: "u", Count: 1, LengthSec: 60})
	beat(t, s, "node", true, idleVMs(1)...) // an idle job, an idle VM: a cycle would match them
	clk.advance(time.Hour)                  // and a sweep would reap the node
	s.SetNotLeader("http://leader/services")

	before, grown := poolSnapshot(t, cas), walSize(t, vfs)
	cas.housekeep(ctx, 60) // a cycle, a sweep, a reply GC and a checkpoint are all due
	if got := poolSnapshot(t, cas); got != before {
		t.Errorf("gated tick changed cluster state:\n%s\n→\n%s", before, got)
	}
	if bs := cas.Engine.BufferPoolStats(); bs.Checkpoints != 1 {
		t.Errorf("gated tick took %d checkpoints, want 1", bs.Checkpoints)
	}
	if got := walSize(t, vfs); got >= grown {
		t.Errorf("WAL is %d bytes after the gated checkpoint tick, was %d", got, grown)
	}

	s.ClearNotLeader()
	cas.housekeep(ctx, 120)
	if got := poolSnapshot(t, cas); got == before {
		t.Error("the same tick with the gate open changed nothing")
	}
}

// TestHousekeepAfterDemotion: the tick's first step is replication, so a
// leader whose renewal finds another term holding the lease is parked and
// gated before the tick's cycle — a deposed leader never schedules — and
// demotion leaves the tick running: it goes on checkpointing the node's own
// files.
func TestHousekeepAfterDemotion(t *testing.T) {
	cas, vfs, _ := pagedCAS(t)
	s, ctx := cas.Service, context.Background()
	r, err := NewReplicator(cas, ReplConfig{Self: "a", Dial: func(string) wire.Caller { return &wire.Local{Mux: cas.Mux} }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.StartLeader(ctx); err != nil {
		t.Fatal(err)
	}
	cas.StartScheduler()
	s.Submit(ctx, &SubmitRequest{Owner: "u", Count: 1, LengthSec: 60})
	beat(t, s, "node", true, idleVMs(1)...) // an idle job, an idle VM: a cycle would match them
	if _, err := cas.Engine.Exec(`UPDATE repl_lease SET term = term + 1, holder = 'b' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}

	before, grown := poolSnapshot(t, cas), walSize(t, vfs)
	cas.housekeep(ctx, 1)
	if got := r.Stats().Role; got != "parked" {
		t.Fatalf("deposed leader's role after its tick: %s, want parked", got)
	}
	if got := poolSnapshot(t, cas); got != before {
		t.Fatalf("the tick that deposed the leader changed cluster state:\n%s\n→\n%s", before, got)
	}
	cas.schedMu.Lock()
	running := cas.schedCancel != nil
	cas.schedMu.Unlock()
	if !running {
		t.Fatal("demotion stopped the housekeeping tick")
	}
	cas.housekeep(ctx, 30)
	if got := poolSnapshot(t, cas); got != before {
		t.Errorf("a parked node's tick changed cluster state:\n%s\n→\n%s", before, got)
	}
	if bs := cas.Engine.BufferPoolStats(); bs.Checkpoints != 1 {
		t.Errorf("parked node's tick 30 took %d checkpoints, want 1", bs.Checkpoints)
	}
	if got := walSize(t, vfs); got >= grown {
		t.Errorf("WAL is %d bytes after the parked node's checkpoint tick, was %d", got, grown)
	}
}

// TestTapFollowsTheLead: the shipper's replication tap is the leading
// role's, opened by StartLeader and closed by Demote before either returns.
// So a checkpoint right after StartLeader keeps the log's recent tail in
// the file, and one right after Demote keeps none of it, round after round
// on one paged engine.
func TestTapFollowsTheLead(t *testing.T) {
	cas, vfs, _ := pagedCAS(t)
	ctx := context.Background()
	r, err := NewReplicator(cas, ReplConfig{Self: "a", Dial: func(string) wire.Caller { return &wire.Local{Mux: cas.Mux} }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkpoint := func() int {
		t.Helper()
		if err := cas.Engine.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return walSize(t, vfs)
	}
	for round := range 50 {
		if err := r.StartLeader(ctx); err != nil { // its lease write is in the log
			t.Fatal(err)
		}
		if n := checkpoint(); n == 0 {
			t.Fatalf("round %d: a checkpoint right after StartLeader emptied the WAL: no tap kept its tail", round)
		}
		r.Demote("")
		if n := checkpoint(); n != 0 {
			t.Fatalf("round %d: the WAL holds %d bytes after a checkpoint right after Demote: a tap kept its tail", round, n)
		}
	}
}

// TestBootstrapIsDeterministic: two fresh CASes under the same clock that
// bootstrap and take the same boot heartbeat write byte-identical logs — no
// map iteration decides a row's rid or a record's position.
func TestBootstrapIsDeterministic(t *testing.T) {
	logOf := func() []byte {
		vfs := sqldb.NewMemVFS()
		engine, err := sqldb.Open(sqldb.Options{VFS: vfs, Path: "cas.wal"})
		if err != nil {
			t.Fatal(err)
		}
		defer engine.Close()
		cas, err := New(Options{Engine: engine, Clock: &fakeClock{t: time.Unix(1_000_000, 0)}})
		if err != nil {
			t.Fatal(err)
		}
		defer cas.Close()
		beat(t, cas.Service, "node", true, idleVMs(4)...)
		data, err := vfs.ReadFile("cas.wal")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := logOf()
	for i := 0; i < 4; i++ {
		if again := logOf(); !bytes.Equal(first, again) {
			t.Fatalf("run %d wrote a different log (%d vs %d bytes)", i+2, len(again), len(first))
		}
	}
}
