package core_test

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

	"condorj2/internal/cluster"
	. "condorj2/internal/core"
	"condorj2/internal/sim"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// Chaos-injection torture test: a small pool of execute nodes — the
// shipped agent, cluster.Startd, which imports this package: hence the
// external test package — drives jobs to completion through a FaultTransport that drops,
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

// startAgents boots n two-VM execute nodes and returns the function that
// stops them and counts their failed exchanges. Each is a cluster.Startd —
// the agent cmd/cj2node runs — on its own virtual-time engine, stepped by
// its own goroutine: virtual, so a 60-second job costs no wall time; one
// engine each, so the nodes really are concurrent clients of the CAS. All
// of them call through caller directly, as cmd/cj2node calls its HTTP
// client: the agent's own chain is their only retry.
func startAgents(t *testing.T, n int, caller wire.Caller) (stop func() (failed int)) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	agents := make([]*cluster.Startd, n)
	for i := range agents {
		eng := sim.New(int64(i))
		kernel := cluster.NewKernel(eng, cluster.NodeConfig{Name: fmt.Sprintf("node%d", i), VMs: 2})
		agent := cluster.NewStartd(eng, kernel, caller, cluster.StartdConfig{CallTimeout: 2 * time.Second})
		agents[i] = agent
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := agent.Boot(); err != nil {
				t.Errorf("%s: registration refused: %v", kernel.Config().Name, err)
				return
			}
			for eng.Step() { // the heartbeat ticker keeps the queue from draining
				select {
				case <-done:
					return
				default:
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	return func() (failed int) {
		close(done)
		wg.Wait()
		for _, a := range agents {
			failed += a.HeartbeatFailures + a.AcceptFailures
		}
		return failed
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
			MaxInFlight: 8, QueueWait: 200 * time.Millisecond, FreshFor: 5 * time.Second,
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
	// Submit through the lossy wire too, behind a Retryer that does not
	// sleep out its backoff: the driver-level loop reuses one explicit key,
	// so a lost reply cannot double the workload.
	retryer := &wire.Retryer{
		Caller: ft,
		Policy: wire.RetryPolicy{
			Rand:  mrand.New(mrand.NewSource(seed)),
			Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
		},
		Keyed: func(action string) bool { return action == ActionSubmitJob },
	}
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
	stopAgents := startAgents(t, 3, ft)

	completedCount := func() int {
		return countOf(t, cas.Pool, `SELECT count(*) FROM job_history WHERE outcome = 'completed'`)
	}

	// Drive scheduling; kill and restart the CAS mid-run. Replays are
	// accumulated across the restart (the counter dies with the process;
	// the reply rows do not).
	var replays uint64
	restarted := false
	deadline := time.Now().Add(90 * time.Second)
	for {
		if time.Now().After(deadline) {
			stopAgents()
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
			t.Fatalf("seed=%d: torture did not converge: %d/%d completed (submit retry stats %+v, faults %+v)",
				seed, completedCount(), jobs, retryer.Stats(), ft.Stats())
		}
		cas.Service.ScheduleCycle(context.Background())
		done := completedCount()
		if !restarted && done >= jobs/3 {
			// Crash: the server vanishes mid-conversation. Committed state
			// (including the reply store) is in the WAL; nothing else
			// survives.
			server.set(nil)
			if n := strayPairings(t, cas.Pool); n != 0 {
				t.Fatalf("seed=%d: %d match or run rows on an idle or offline VM before the crash", seed, n)
			}
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
	failed := stopAgents()

	// Exactly once: every job has one completed history row, no job was
	// double-completed, the queue drained, and accounting agrees.
	if doubled := doubledCompletions(t, cas.Pool); doubled != 0 {
		t.Fatalf("seed=%d: %d jobs completed more than once", seed, doubled)
	}
	if got := completedCount(); got != jobs {
		t.Fatalf("seed=%d: %d completed history rows, want %d", seed, got, jobs)
	}
	left := countOf(t, cas.Pool, `SELECT count(*) FROM jobs`)
	runs := countOf(t, cas.Pool, `SELECT count(*) FROM runs`)
	matches := countOf(t, cas.Pool, `SELECT count(*) FROM matches`)
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
	if n := strayPairings(t, cas.Pool); n != 0 {
		t.Fatalf("seed=%d: %d match or run rows on an idle or offline VM", seed, n)
	}

	// The fault injector really was in the path, and the resilient wire
	// machinery really did the saving: the agents' chains retried failed
	// exchanges, and the reply store answered retried keys.
	fs := ft.Stats()
	if fs.DroppedRequests == 0 || fs.DroppedReplies == 0 {
		t.Fatalf("seed=%d: fault injector idle: %+v", seed, fs)
	}
	if failed == 0 {
		t.Fatalf("seed=%d: no agent exchange failed, so none was retried: faults %+v", seed, fs)
	}
	replays += cas.Service.DedupStats().Replays
	if replays == 0 {
		t.Fatalf("seed=%d: no idempotent replays recorded (drop-reply on keyed calls should force some)", seed)
	}
	t.Logf("seed=%d: %d jobs exactly-once through %d failed agent exchanges, retried on their chains (%d replays; submit retry stats %+v); faults %+v",
		seed, jobs, failed, replays, retryer.Stats(), fs)

	cas.Close()
	eng.Close()
}

// strayPairings counts the match and run rows on an idle or offline VM.
// There must be none: the cycle marks a VM matched with its match, every
// way back to idle or offline deletes the VM's pairings first, and a
// heartbeat relies on it to skip its pairing join when every VM is idle.
func strayPairings(t *testing.T, db *sql.DB) int {
	t.Helper()
	const stray = ` p, vms v WHERE p.vm_id = v.id AND (v.state = 'idle' OR v.state = 'offline')`
	return countOf(t, db, `SELECT count(*) FROM matches`+stray) + countOf(t, db, `SELECT count(*) FROM runs`+stray)
}

// countOf runs a count(*) query. A failed read fails the test: it must not
// pass as a count of zero.
func countOf(t *testing.T, db *sql.DB, q string) int {
	t.Helper()
	var n int
	if err := db.QueryRow(q).Scan(&n); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return n
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
