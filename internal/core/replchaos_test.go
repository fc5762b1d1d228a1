package core_test

// Replication chaos: a leader/follower pair under a lossy shipping
// link, with the leader killed mid-run. The follower must promote
// itself on lease expiry and finish the workload with exactly-once
// history on its own timeline.
//
// What "exactly once" means across an asynchronous failover: a write
// the old leader acknowledged but had not yet shipped is gone — the
// promoted follower never saw it. For completions that is safe by
// construction: the execute node freed its slot on the ack, the new
// leader still shows the job running, and heartbeat reconciliation
// re-runs it — the job completes once in the history the cluster now
// lives on. The test therefore requires the submit batch to be fully
// replicated before the kill (lag observed at zero), then asserts the
// promoted node's job_history: every job completed, none twice.
//
// CHAOS_SEED picks the fault schedule (default 1); CHAOS_CASES the job
// count (default 30). `make replchaos` sweeps the acceptance seeds.

import (
	"context"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	. "condorj2/internal/core"
	"condorj2/internal/wire"
)

func TestReplChaosLeaderKillPromote(t *testing.T) {
	if testing.Short() {
		t.Skip("replication chaos torture is a long test")
	}
	seed := chaosEnvInt("CHAOS_SEED", 1)
	jobs := int(chaosEnvInt("CHAOS_CASES", 30))

	// The shipping link (replShip + replJoin between the nodes) drops a
	// fifth of everything; the shipper's next wakeup re-ships from the
	// acked LSN, and that must hide it.
	// The agents and the links run in real time, and so does the lease.
	net := newReplNet()
	net.clock = nil
	shipFaults := make(map[string]*wire.FaultTransport)
	var shipMu sync.Mutex
	net.wrap = func(addr string, c wire.Caller) wire.Caller {
		shipMu.Lock()
		defer shipMu.Unlock()
		ft := shipFaults[addr]
		if ft == nil {
			ft = wire.NewFaultTransport(c, seed+int64(len(shipFaults)))
			ft.DropRequest = 0.20
			ft.DropReply = 0.20
			ft.Duplicate = 0.05
			shipFaults[addr] = ft
		}
		return ft
	}

	// The default lease, 3 s, is the shortest the 1 s tick period allows,
	// although the loop below ticks far more often.
	leader := newReplNode(t, net, "cas-a", false, ReplConfig{})
	follower := newReplNode(t, net, "cas-b", true, ReplConfig{})
	defer follower.close()
	for _, n := range []*replNode{leader, follower} {
		n.cas.SetAdmission(wire.AdmissionConfig{
			MaxInFlight: 8, QueueWait: 200 * time.Millisecond, FreshFor: 5 * time.Second,
		})
	}
	startPair(t, leader, follower)
	// This test's loops are both nodes' housekeeping tick: on the leader
	// the cycle, the lease renewal and the kick that retries a failed ship;
	// on the follower the join and the lease watch.
	ticking := []*replNode{leader, follower}
	tick := func() {
		for _, n := range ticking {
			n.tick()
		}
	}

	// Clients reach "the cluster" through a virtual address the test
	// repoints at the promoted node after the kill, the way a failover DNS
	// flip or load balancer would. Their link is lossy too.
	vip := &swapCaller{}
	vip.set(&wire.Local{Mux: leader.cas.Mux})
	ft := wire.NewFaultTransport(vip, seed)
	ft.DropRequest = 0.10
	ft.DropReply = 0.10
	ft.Duplicate = 0.05
	ft.Inject5xx = 0.05
	// The submit driver's Retryer does not sleep out its backoff.
	retryer := &wire.Retryer{
		Caller: ft,
		Policy: wire.RetryPolicy{
			Rand:  mrand.New(mrand.NewSource(seed)),
			Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
		},
		Keyed: func(action string) bool { return action == ActionSubmitJob },
	}

	submitCtx := wire.WithIdempotencyKey(context.Background(), "replchaos-submit")
	for {
		tick()
		ctx, cancel := context.WithTimeout(submitCtx, 2*time.Second)
		var sr SubmitResponse
		err := retryer.Call(ctx, ActionSubmitJob,
			&SubmitRequest{Owner: "chaos", Count: jobs, LengthSec: 60}, &sr)
		cancel()
		if err == nil {
			break
		}
	}
	// The workload must exist on the follower before the leader may die,
	// or "complete every job" is unsatisfiable. Real deployments express
	// the same requirement as a synchronous-ack or max-lag policy.
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		tick()
		if follower.eng.AppliedLSN() >= leader.eng.DurableLSN() {
			break
		}
		if time.Now().After(deadline) {
			shipMu.Lock()
			ships := make(map[string]wire.FaultTransportStats, len(shipFaults))
			for addr, sf := range shipFaults {
				ships[addr] = sf.Stats()
			}
			shipMu.Unlock()
			t.Fatalf("seed=%d: timed out waiting for submit batch to replicate: follower applied %d, leader durable %d (leader repl %+v, follower repl %+v, faults %+v, shipping faults %+v)",
				seed, follower.eng.AppliedLSN(), leader.eng.DurableLSN(), leader.repl.Stats(), follower.repl.Stats(), ft.Stats(), ships)
		}
	}

	stopAgents := startAgents(t, 3, ft)

	primary := leader
	completedCount := func() int {
		return countOf(t, primary.cas.Pool, `SELECT count(*) FROM job_history WHERE outcome = 'completed'`)
	}

	killed := false
	caughtUp := false
	deadline := time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			stopAgents()
			t.Fatalf("seed=%d: failover torture did not converge: %d/%d completed, killed=%v (leader repl %+v, follower repl %+v, faults %+v)",
				seed, completedCount(), jobs, killed, leader.repl.Stats(), follower.repl.Stats(), ft.Stats())
		}
		// Lag is read before the tick: every tick's renewal commits, and the
		// shipper has had the loop's sleep to ship the previous one.
		if !killed && follower.eng.AppliedLSN() >= leader.eng.DurableLSN() {
			caughtUp = true // lag drained to zero under the lossy link
		}
		tick()
		done := completedCount()
		if !killed && caughtUp && done >= jobs/3 {
			// The leader vanishes without ceremony: no demotion, no final
			// ship, clients and follower alike get dead air. Only the
			// replicated lease going stale tells the follower to take over.
			vip.set(nil)
			if n := strayPairings(t, leader.cas.Pool); n != 0 {
				t.Fatalf("seed=%d: %d match or run rows on an idle or offline VM of the leader", seed, n)
			}
			leader.kill()
			killed = true
			ticking = ticking[1:]
			waitFor(t, 30*time.Second, "lease-expiry promotion", func() bool {
				tick()
				return follower.repl.Stats().Role == "leader"
			})
			primary = follower
			if n := strayPairings(t, primary.cas.Pool); n != 0 {
				t.Fatalf("seed=%d: %d match or run rows on an idle or offline VM of the promoted node", seed, n)
			}
			vip.set(&wire.Local{Mux: follower.cas.Mux})
			t.Logf("seed=%d: killed leader at %d/%d completed; follower promoted at term %d",
				seed, done, jobs, follower.repl.Stats().Term)
		}
		if done >= jobs {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	failed := stopAgents()

	if !killed {
		t.Fatalf("seed=%d: converged before the kill point — raise CHAOS_CASES", seed)
	}

	// Exactly once on the surviving timeline: every job completed, none
	// twice, the queue drained, and accounting agrees.
	if doubled := doubledCompletions(t, primary.cas.Pool); doubled != 0 {
		t.Fatalf("seed=%d: %d jobs completed more than once after failover", seed, doubled)
	}
	if got := completedCount(); got != jobs {
		t.Fatalf("seed=%d: %d completed history rows, want %d", seed, got, jobs)
	}
	left := countOf(t, primary.cas.Pool, `SELECT count(*) FROM jobs`)
	runs := countOf(t, primary.cas.Pool, `SELECT count(*) FROM runs`)
	if left != 0 || runs != 0 {
		t.Fatalf("seed=%d: residue after convergence: %d jobs, %d runs", seed, left, runs)
	}
	us, err := primary.cas.Service.UserStats(context.Background(), &UserStatsRequest{Owner: "chaos"})
	if err != nil {
		t.Fatalf("seed=%d: %v", seed, err)
	}
	if us.CompletedJobs != int64(jobs) {
		t.Fatalf("seed=%d: accounting CompletedJobs = %d, want %d", seed, us.CompletedJobs, jobs)
	}
	if n := strayPairings(t, primary.cas.Pool); n != 0 {
		t.Fatalf("seed=%d: %d match or run rows on an idle or offline VM of the promoted node", seed, n)
	}

	// The machinery really was exercised: the shipping link dropped
	// traffic, batches still applied, exactly one promotion happened, and
	// the agents' chains retried failed exchanges.
	rs := follower.repl.Stats()
	if rs.Promotions != 1 {
		t.Fatalf("seed=%d: promotions = %d, want 1", seed, rs.Promotions)
	}
	if rs.Engine.BatchesApplied == 0 {
		t.Fatalf("seed=%d: follower applied no batches", seed)
	}
	shipMu.Lock()
	var dropped uint64
	for _, sft := range shipFaults {
		s := sft.Stats()
		dropped += s.DroppedRequests + s.DroppedReplies
	}
	shipMu.Unlock()
	if dropped == 0 {
		t.Fatalf("seed=%d: shipping-link fault injector idle", seed)
	}
	if fs := ft.Stats(); fs.DroppedRequests == 0 || fs.DroppedReplies == 0 {
		t.Fatalf("seed=%d: client fault injector idle: %+v", seed, fs)
	}
	if failed == 0 {
		t.Fatalf("seed=%d: no agent exchange failed, so none was retried", seed)
	}
}
