package core

import (
	"context"
	"database/sql"
	"fmt"
	mrand "math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// Chaos-injection torture test: a small pool of simulated execute nodes
// drives jobs to completion through a FaultTransport that drops, delays,
// duplicates and 5xx-faults 20%+ of the wire traffic, while the CAS is
// killed and restarted mid-run from its WAL. The invariant under all of
// it: every submitted job completes EXACTLY once — never lost, never
// double-run — because retries carry idempotency keys, the reply store
// survives the restart, and recovery preserves in-flight runs.
//
// CHAOS_SEED picks the fault schedule (default 1); CHAOS_CASES the job
// count (default 40). A failure message includes the seed for replay.

func chaosEnvInt(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// swapCaller routes calls to the current server's in-process transport;
// nil while the server is "down" (crashed, restarting). Agents keep
// retrying through the outage exactly as they would a network partition.
type swapCaller struct {
	mu    sync.RWMutex
	local *wire.Local
}

func (s *swapCaller) set(l *wire.Local) {
	s.mu.Lock()
	s.local = l
	s.mu.Unlock()
}

func (s *swapCaller) Call(ctx context.Context, action string, req, resp any) error {
	s.mu.RLock()
	l := s.local
	s.mu.RUnlock()
	if l == nil {
		return fmt.Errorf("chaos: server down")
	}
	return l.Call(ctx, action, req, resp)
}

// chaosVM is one simulated scheduling slot's node-side state.
type chaosVM struct {
	seq       int64
	state     string // "idle" | "claimed"
	jobID     int64
	phase     string // "" | "running" | "completed"
	beatsLeft int
}

// acceptIntent is a durable client-side intent: the accept is retried
// with ONE idempotency key until the server answers definitively, so a
// lost reply can never strand a claim half-made.
type acceptIntent struct {
	key string
	req AcceptMatchRequest
}

// frozenBeat is a keyed heartbeat held until acknowledged. The request
// is captured WITH the key: an idempotency key promises "same request",
// so a retried beat must not fold in state that changed since — later
// completions wait for the next beat.
type frozenBeat struct {
	key string
	req HeartbeatRequest
}

// chaosAgent simulates one execute node (cj2node's loop, condensed).
type chaosAgent struct {
	name    string
	caller  wire.Caller
	vms     []*chaosVM
	booted  bool
	pending *acceptIntent
	hb      *frozenBeat // keyed beat (boot/completions), resent verbatim until acked
}

func (a *chaosAgent) step() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	if a.pending != nil {
		var ar AcceptMatchResponse
		err := a.caller.Call(wire.WithIdempotencyKey(ctx, a.pending.key),
			ActionAcceptMatch, &a.pending.req, &ar)
		if err != nil {
			return // keep the intent and its key; retry next step
		}
		if ar.OK {
			for _, vm := range a.vms {
				if vm.seq == a.pending.req.Seq {
					vm.state, vm.jobID, vm.phase, vm.beatsLeft = "claimed", a.pending.req.JobID, "running", 2
				}
			}
		}
		a.pending = nil
	}

	var req *HeartbeatRequest
	hbCtx := ctx
	if a.hb != nil {
		req = &a.hb.req
		hbCtx = wire.WithIdempotencyKey(ctx, a.hb.key)
	} else {
		req = &HeartbeatRequest{
			Machine: a.name, Boot: !a.booted,
			Arch: "x86", OpSys: "linux", TotalMemoryMB: 2048,
		}
		delta := !a.booted
		for _, vm := range a.vms {
			st := VMStatus{Seq: vm.seq, State: vm.state, JobID: vm.jobID, Phase: vm.phase}
			if vm.phase == "completed" {
				delta = true
			}
			req.VMs = append(req.VMs, st)
		}
		if delta {
			a.hb = &frozenBeat{key: wire.NewIdempotencyKey(), req: *req}
			hbCtx = wire.WithIdempotencyKey(ctx, a.hb.key)
		}
	}
	var resp HeartbeatResponse
	if err := a.caller.Call(hbCtx, ActionHeartbeat, req, &resp); err != nil {
		return // the frozen beat (completion flags, key) survives; retry next step
	}
	a.booted = true
	a.hb = nil

	// Interpret the reply against the request it answers: an OK only
	// acknowledges a completion if THIS request reported it.
	sent := make(map[int64]VMStatus, len(req.VMs))
	for _, st := range req.VMs {
		sent[st.Seq] = st
	}
	byseq := make(map[int64]*chaosVM, len(a.vms))
	for _, vm := range a.vms {
		byseq[vm.seq] = vm
	}
	for _, cmd := range resp.Commands {
		vm := byseq[cmd.Seq]
		if vm == nil {
			continue
		}
		switch cmd.Command {
		case CmdMatchInfo:
			if vm.state == "idle" && a.pending == nil {
				a.pending = &acceptIntent{
					key: wire.NewIdempotencyKey(),
					req: AcceptMatchRequest{Machine: a.name, Seq: cmd.Seq, MatchID: cmd.MatchID, JobID: cmd.JobID},
				}
			}
		case CmdRelease:
			if vm.state == "claimed" && vm.jobID == sent[cmd.Seq].JobID {
				vm.state, vm.jobID, vm.phase, vm.beatsLeft = "idle", 0, "", 0
			}
		case CmdOK:
			if vm.state != "claimed" {
				continue
			}
			if st := sent[cmd.Seq]; st.Phase == "completed" && st.JobID == vm.jobID {
				// Server acknowledged this completion report; free the slot.
				vm.state, vm.jobID, vm.phase, vm.beatsLeft = "idle", 0, "", 0
			} else if vm.phase == "running" {
				if vm.beatsLeft--; vm.beatsLeft <= 0 {
					vm.phase = "completed"
				}
			}
		}
	}
}

func TestChaosTortureExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos torture is a long test")
	}
	seed := chaosEnvInt("CHAOS_SEED", 1)
	jobs := int(chaosEnvInt("CHAOS_CASES", 40))

	vfs := sqldb.NewMemVFS()
	boot := func() (*sqldb.DB, *CAS) {
		eng, err := sqldb.Open(sqldb.Options{VFS: vfs, Path: "chaos.wal", Sync: sqldb.SyncGroup})
		if err != nil {
			t.Fatalf("seed=%d: open engine: %v", seed, err)
		}
		cas, err := New(Options{Engine: eng, PoolSize: 8})
		if err != nil {
			t.Fatalf("seed=%d: assemble CAS: %v", seed, err)
		}
		cas.SetAdmission(wire.AdmissionConfig{
			MaxInFlight: 8, MaxQueued: 32,
			QueueWait: 200 * time.Millisecond, FreshFor: 5 * time.Second,
		})
		return eng, cas
	}
	eng, cas := boot()

	server := &swapCaller{}
	server.set(&wire.Local{Mux: cas.Mux})
	ft := wire.NewFaultTransport(server, seed)
	ft.DropRequest = 0.10
	ft.DropReply = 0.10
	ft.Duplicate = 0.05
	ft.Inject5xx = 0.05
	retryer := &wire.Retryer{
		Caller: ft,
		Policy: wire.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Rand:        mrand.New(mrand.NewSource(seed)),
		},
		Keyed: func(action string) bool { return action == ActionSubmitJob },
	}

	// Submit through the lossy wire too: the driver-level loop reuses one
	// explicit key, so a lost reply cannot double the workload.
	submitCtx := wire.WithIdempotencyKey(context.Background(), "chaos-submit")
	for {
		ctx, cancel := context.WithTimeout(submitCtx, 2*time.Second)
		var sr SubmitResponse
		err := retryer.Call(ctx, ActionSubmitJob,
			&SubmitRequest{Owner: "chaos", Count: jobs, LengthSec: 60}, &sr)
		cancel()
		if err == nil {
			break
		}
	}

	// Three nodes, two VMs each, stepping concurrently.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for n := 0; n < 3; n++ {
		agent := &chaosAgent{
			name:   fmt.Sprintf("node%d", n),
			caller: retryer,
			vms:    []*chaosVM{{seq: 0, state: "idle"}, {seq: 1, state: "idle"}},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				agent.step()
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	completedCount := func() int {
		var n int
		cas.Pool.QueryRow(`SELECT count(*) FROM job_history WHERE outcome = 'completed'`).Scan(&n)
		return n
	}

	// Drive scheduling; kill and restart the CAS mid-run. Replays are
	// accumulated across the restart (the counter dies with the process;
	// the reply rows do not).
	var replays uint64
	restarted := false
	deadline := time.Now().Add(90 * time.Second)
	for {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			dump := func(q string) string {
				rows, err := cas.Pool.Query(q)
				if err != nil {
					return err.Error()
				}
				defer rows.Close()
				cols, _ := rows.Columns()
				var out string
				vals := make([]any, len(cols))
				for i := range vals {
					vals[i] = new(string)
				}
				for rows.Next() {
					rows.Scan(vals...)
					for _, v := range vals {
						out += *(v.(*string)) + " "
					}
					out += "| "
				}
				return out
			}
			t.Logf("jobs: %s", dump(`SELECT id, state FROM jobs`))
			t.Logf("vms: %s", dump(`SELECT machine, seq, state FROM vms`))
			t.Logf("matches: %s", dump(`SELECT id, job_id, vm_id FROM matches`))
			t.Logf("runs: %s", dump(`SELECT id, job_id, vm_id FROM runs`))
			t.Fatalf("seed=%d: torture did not converge: %d/%d completed (retry stats %+v, faults %+v)",
				seed, completedCount(), jobs, retryer.Stats(), ft.Stats())
		}
		cas.Service.ScheduleCycle(context.Background())
		done := completedCount()
		if !restarted && done >= jobs/3 {
			// Crash: the server vanishes mid-conversation. Committed state
			// (including the reply store) is in the WAL; nothing else
			// survives.
			server.set(nil)
			replays += cas.Service.DedupStats().Replays
			cas.Close()
			eng.Close()
			eng, cas = boot()
			if _, err := cas.Service.RecoverInFlight(context.Background()); err != nil {
				t.Fatalf("seed=%d: recovery: %v", seed, err)
			}
			server.set(&wire.Local{Mux: cas.Mux})
			restarted = true
			t.Logf("seed=%d: killed and restarted CAS at %d/%d completed", seed, done, jobs)
		}
		if done >= jobs {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Exactly once: every job has one completed history row, no job was
	// double-completed, the queue drained, and accounting agrees.
	if doubled := doubledCompletions(t, cas.Pool); doubled != 0 {
		t.Fatalf("seed=%d: %d jobs completed more than once", seed, doubled)
	}
	if got := completedCount(); got != jobs {
		t.Fatalf("seed=%d: %d completed history rows, want %d", seed, got, jobs)
	}
	var left, runs, matches int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&left)
	cas.Pool.QueryRow(`SELECT count(*) FROM runs`).Scan(&runs)
	cas.Pool.QueryRow(`SELECT count(*) FROM matches`).Scan(&matches)
	if left != 0 || runs != 0 {
		t.Fatalf("seed=%d: residue after convergence: %d jobs, %d runs, %d matches", seed, left, runs, matches)
	}
	us, err := cas.Service.UserStats(context.Background(), &UserStatsRequest{Owner: "chaos"})
	if err != nil {
		t.Fatalf("seed=%d: %v", seed, err)
	}
	if us.CompletedJobs != int64(jobs) {
		t.Fatalf("seed=%d: accounting CompletedJobs = %d, want %d", seed, us.CompletedJobs, jobs)
	}

	// The fault injector really was in the path, and the resilient wire
	// machinery really did the saving.
	fs := ft.Stats()
	if fs.DroppedRequests == 0 || fs.DroppedReplies == 0 {
		t.Fatalf("seed=%d: fault injector idle: %+v", seed, fs)
	}
	rs := retryer.Stats()
	if rs.Retries == 0 {
		t.Fatalf("seed=%d: no retries recorded: %+v", seed, rs)
	}
	replays += cas.Service.DedupStats().Replays
	if replays == 0 {
		t.Fatalf("seed=%d: no idempotent replays recorded (drop-reply on keyed calls should force some)", seed)
	}
	t.Logf("seed=%d: %d jobs exactly-once through %d attempts (%d retries, %d replays); faults %+v",
		seed, jobs, rs.Attempts, rs.Retries, replays, fs)

	cas.Close()
	eng.Close()
}

// doubledCompletions counts the jobs with more than one 'completed'
// history row: the exactly-once violation the chaos suites exist to catch.
func doubledCompletions(t *testing.T, db *sql.DB) int {
	t.Helper()
	rows, err := db.Query(`SELECT job_id FROM job_history WHERE outcome = 'completed' GROUP BY job_id HAVING count(*) > 1`)
	if err != nil {
		t.Fatalf("counting doubled completions: %v", err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("counting doubled completions: %v", err)
	}
	return n
}
