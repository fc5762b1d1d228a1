package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	. "condorj2/internal/core"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// replNet is an in-process "network" for replication tests: a registry
// of endpoints resolved at call time (so a killed node fails calls
// instead of freezing a stale transport), with an optional per-link
// wrapper for fault injection on the shipping path.
type replNet struct {
	mu    sync.Mutex
	nodes map[string]*swapCaller
	wrap  func(addr string, c wire.Caller) wire.Caller
}

func newReplNet() *replNet { return &replNet{nodes: make(map[string]*swapCaller)} }

func (n *replNet) register(addr string) *swapCaller {
	n.mu.Lock()
	defer n.mu.Unlock()
	sc := &swapCaller{}
	n.nodes[addr] = sc
	return sc
}

func (n *replNet) dial(addr string) wire.Caller {
	n.mu.Lock()
	sc := n.nodes[addr]
	wrap := n.wrap
	n.mu.Unlock()
	if sc == nil {
		sc = n.register(addr)
	}
	if wrap != nil {
		return wrap(addr, sc)
	}
	return sc
}

// replNode bundles one CAS with its replication endpoint.
type replNode struct {
	addr string
	vfs  *sqldb.MemVFS
	eng  *sqldb.DB
	cas  *CAS
	repl *Replicator
	sc   *swapCaller
}

func newReplNode(t *testing.T, net *replNet, addr string, follower bool, cfg ReplConfig) *replNode {
	t.Helper()
	vfs := sqldb.NewMemVFS()
	eng, err := sqldb.Open(sqldb.Options{VFS: vfs, Path: addr + ".wal", Sync: sqldb.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	cas, err := New(Options{Engine: eng, PoolSize: 8, Follower: follower})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Self = addr
	cfg.Dial = net.dial
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 500 * time.Millisecond
	}
	if cfg.Interval == 0 {
		cfg.Interval = 25 * time.Millisecond
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = time.Second
	}
	n := &replNode{
		addr: addr,
		vfs:  vfs,
		eng:  eng,
		cas:  cas,
		repl: NewReplicator(cas, cfg),
		sc:   net.register(addr),
	}
	n.sc.set(&wire.Local{Mux: cas.Mux})
	return n
}

func (n *replNode) close() {
	n.repl.Close()
	n.cas.Close()
	n.eng.Close()
}

// kill makes the node unreachable and tears it down, as a crash would.
func (n *replNode) kill() {
	n.sc.set(nil)
	n.repl.Close()
	n.cas.StopScheduler()
	n.cas.Close()
	n.eng.Close()
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplFollowerServesReadsRejectsWrites stands up a leader/follower
// pair: writes replicate to the follower's queue/status views, while
// mutating actions on the follower answer a typed NotLeader fault
// carrying the leader's address.
func TestReplFollowerServesReadsRejectsWrites(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "leader", false, ReplConfig{})
	defer leader.close()
	follower := newReplNode(t, net, "follower", true, ReplConfig{})
	defer follower.close()

	if err := leader.repl.StartLeader(context.Background()); err != nil {
		t.Fatal(err)
	}
	follower.repl.StartFollower(context.Background(), "leader")

	client := net.dial("leader")
	var sr SubmitResponse
	if err := client.Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "alice", Count: 5, LengthSec: 60}, &sr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replication to drain", func() bool {
		return follower.eng.AppliedLSN() >= leader.eng.DurableLSN()
	})

	// Reads on the follower see the replicated queue.
	fclient := net.dial("follower")
	var qs QueueStatusResponse
	if err := fclient.Call(context.Background(), ActionQueueStatus,
		&QueueStatusRequest{Owner: "alice"}, &qs); err != nil {
		t.Fatal(err)
	}
	if len(qs.Jobs) != 5 {
		t.Fatalf("follower queue shows %d jobs, want 5", len(qs.Jobs))
	}
	var ps PoolStatusResponse
	if err := fclient.Call(context.Background(), ActionPoolStatus, &PoolStatusRequest{}, &ps); err != nil {
		t.Fatal(err)
	}

	// Writes on the follower bounce with a redirect.
	err := fclient.Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60}, &SubmitResponse{})
	flt, ok := wire.AsFault(err)
	if !ok || flt.Code != wire.FaultNotLeader {
		t.Fatalf("follower accepted a write (err %v)", err)
	}
	if flt.Leader != "leader" {
		t.Fatalf("NotLeader fault carries leader %q, want \"leader\"", flt.Leader)
	}
	if err := fclient.Call(context.Background(), ActionConfigSet,
		&ConfigSetRequest{Name: "x", Value: "1"}, &ConfigSetResponse{}); err == nil {
		t.Fatal("configSet accepted on follower")
	}
	if wire.Retryable(err) {
		t.Fatal("NotLeader must be terminal for the retry policy")
	}

	rs := leader.repl.Stats()
	if rs.Role != "leader" || rs.Followers != 1 || rs.ShipBatches == 0 {
		t.Fatalf("leader stats %+v", rs)
	}
	fs := follower.repl.Stats()
	if fs.Role != "follower" || fs.LagLSN != 0 {
		t.Fatalf("follower stats %+v", fs)
	}
}

// TestReplStaleTermFencing promotes the follower while the old leader
// lives on, then lets the old leader commit and ship: the promoted
// node must reject the stale-term ship, and the old leader must demote
// itself to read-only rather than split the brain.
func TestReplStaleTermFencing(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "old", false, ReplConfig{})
	defer leader.close()
	follower := newReplNode(t, net, "new", true, ReplConfig{LeaseTTL: time.Hour})
	defer follower.close()

	if err := leader.repl.StartLeader(context.Background()); err != nil {
		t.Fatal(err)
	}
	follower.repl.StartFollower(context.Background(), "old")
	client := net.dial("old")
	if err := client.Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 3, LengthSec: 60}, &SubmitResponse{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "initial replication", func() bool {
		return follower.eng.AppliedLSN() >= leader.eng.DurableLSN()
	})

	// Simulated partition decision: promote the follower by hand.
	if err := follower.repl.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := follower.repl.Stats().Role; got != "leader" {
		t.Fatalf("promoted node role %q", got)
	}

	// The deposed leader keeps writing; its next ship must be fenced. (Its
	// lease renewals ship too, every 25 ms: one of those may have been
	// fenced first, and then this write is already refused.)
	if err := client.Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 1, LengthSec: 60}, &SubmitResponse{}); err != nil {
		if flt, ok := wire.AsFault(err); !ok || flt.Code != wire.FaultNotLeader {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "old leader to demote on StaleTerm", func() bool {
		return leader.repl.Stats().Role == "follower"
	})
	if leader.repl.Stats().Demotions != 1 {
		t.Fatalf("demotions = %d, want 1", leader.repl.Stats().Demotions)
	}
	if follower.repl.Stats().Fenced == 0 && leader.repl.Stats().Fenced == 0 {
		t.Fatal("no fencing recorded anywhere")
	}
	// The demoted node now refuses writes, redirecting at the new leader.
	err := client.Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 1, LengthSec: 60}, &SubmitResponse{})
	flt, ok := wire.AsFault(err)
	if !ok || flt.Code != wire.FaultNotLeader {
		t.Fatalf("deposed leader still accepts writes (err %v)", err)
	}
	if flt.Leader != "new" {
		t.Fatalf("deposed leader redirects to %q, want \"new\"", flt.Leader)
	}
	// And a hand-crafted stale ship is rejected outright.
	err = net.dial("new").Call(context.Background(), ActionReplShip,
		&ReplShipRequest{Term: 1, Leader: "old", LeaderLSN: 1}, &ReplShipResponse{})
	flt, ok = wire.AsFault(err)
	if !ok || flt.Code != wire.FaultStaleTerm {
		t.Fatalf("stale ship not fenced: %v", err)
	}
	if wire.Retryable(err) {
		t.Fatal("StaleTerm must be terminal for the retry policy")
	}
}

// TestReplKeyedSubmitAcrossPromotion retries one keyed submit against
// the promoted follower after the original leader died: the reply store
// replicated with everything else, so the retry replays the stored
// response instead of enqueuing a second batch — exactly-once across a
// failover.
func TestReplKeyedSubmitAcrossPromotion(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "a", false, ReplConfig{})
	follower := newReplNode(t, net, "b", true, ReplConfig{LeaseTTL: time.Hour})
	defer follower.close()

	if err := leader.repl.StartLeader(context.Background()); err != nil {
		t.Fatal(err)
	}
	follower.repl.StartFollower(context.Background(), "a")

	key := wire.NewIdempotencyKey()
	ctx := wire.WithIdempotencyKey(context.Background(), key)
	var first SubmitResponse
	if err := net.dial("a").Call(ctx, ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 4, LengthSec: 60}, &first); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replication", func() bool {
		return follower.eng.AppliedLSN() >= leader.eng.DurableLSN()
	})
	leader.kill()
	if err := follower.repl.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The client never saw the first reply land; it retries the same key
	// against the new leader.
	var second SubmitResponse
	if err := net.dial("b").Call(ctx, ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 4, LengthSec: 60}, &second); err != nil {
		t.Fatal(err)
	}
	if second.FirstJobID != first.FirstJobID || second.LastJobID != first.LastJobID {
		t.Fatalf("retry re-executed: first %+v, second %+v", first, second)
	}
	var jobs int
	follower.cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&jobs)
	if jobs != 4 {
		t.Fatalf("%d jobs after keyed retry across promotion, want 4", jobs)
	}
	if follower.cas.Service.DedupStats().Replays == 0 {
		t.Fatal("no replay recorded on the promoted node")
	}
}

// TestReplPromotionRunsReplyGC sets a zero reply retention, then
// promotes: the promotion itself must age out the replicated dedup rows
// (the scheduler's GC cadence used to be the only trigger, which a
// freshly promoted follower had never run).
func TestReplPromotionRunsReplyGC(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "a", false, ReplConfig{})
	follower := newReplNode(t, net, "b", true, ReplConfig{LeaseTTL: time.Hour})
	defer follower.close()

	if err := leader.repl.StartLeader(context.Background()); err != nil {
		t.Fatal(err)
	}
	follower.repl.StartFollower(context.Background(), "a")
	ctx := wire.WithIdempotencyKey(context.Background(), wire.NewIdempotencyKey())
	if err := net.dial("a").Call(ctx, ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 1, LengthSec: 60}, &SubmitResponse{}); err != nil {
		t.Fatal(err)
	}
	if err := net.dial("a").Call(context.Background(), ActionConfigSet,
		&ConfigSetRequest{Name: "reply_retention_sec", Value: "0"}, &ConfigSetResponse{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replication", func() bool {
		return follower.eng.AppliedLSN() >= leader.eng.DurableLSN()
	})
	var replicated int
	follower.cas.Pool.QueryRow(`SELECT count(*) FROM wire_replies`).Scan(&replicated)
	if replicated == 0 {
		t.Fatal("reply row did not replicate")
	}
	leader.kill()
	time.Sleep(10 * time.Millisecond) // let created_at fall behind now()
	if err := follower.repl.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	var left int
	follower.cas.Pool.QueryRow(`SELECT count(*) FROM wire_replies`).Scan(&left)
	if left != 0 {
		t.Fatalf("%d reply rows survived promotion GC with zero retention", left)
	}
	if follower.cas.Service.DedupStats().RepliesDeleted == 0 {
		t.Fatal("promotion GC not counted")
	}
}

// TestReplPromotionAppliesReplicatedEngineConfig: the config table is the
// one setter of the engine's timeouts, and a follower has it only as shipped
// rows — no ConfigSet ever ran here — so promotion is where they take hold.
func TestReplPromotionAppliesReplicatedEngineConfig(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "a", false, ReplConfig{})
	follower := newReplNode(t, net, "b", true, ReplConfig{LeaseTTL: time.Hour})
	defer follower.close()

	if err := leader.repl.StartLeader(context.Background()); err != nil {
		t.Fatal(err)
	}
	follower.repl.StartFollower(context.Background(), "a")
	for name, value := range map[string]string{ConfigStmtTimeoutMs: "1500", ConfigLockTimeoutMs: "250"} {
		if err := net.dial("a").Call(context.Background(), ActionConfigSet,
			&ConfigSetRequest{Name: name, Value: value}, &ConfigSetResponse{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "replication", func() bool {
		return follower.eng.AppliedLSN() >= leader.eng.DurableLSN()
	})
	if got := follower.eng.StmtTimeout(); got != 0 {
		t.Fatalf("follower's statement timeout before promotion = %s, want unset", got)
	}
	leader.kill()
	if err := follower.repl.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stmt, lock := follower.eng.StmtTimeout(), follower.eng.LockTimeout(); stmt != 1500*time.Millisecond || lock != 250*time.Millisecond {
		t.Fatalf("promoted node's timeouts = %s / %s, want the replicated 1.5s / 250ms", stmt, lock)
	}
}

// TestReplLeasePromotionOnLeaderDeath runs the full detector: a live
// pair with a short lease; the leader dies silently; the follower's
// local copy of the lease goes stale past its TTL and the follower
// promotes itself, opening the write path.
func TestReplLeasePromotionOnLeaderDeath(t *testing.T) {
	net := newReplNet()
	cfg := ReplConfig{LeaseTTL: 300 * time.Millisecond, Interval: 30 * time.Millisecond}
	leader := newReplNode(t, net, "a", false, cfg)
	follower := newReplNode(t, net, "b", true, cfg)
	defer follower.close()

	if err := leader.repl.StartLeader(context.Background()); err != nil {
		t.Fatal(err)
	}
	follower.repl.StartFollower(context.Background(), "a")
	if err := net.dial("a").Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 2, LengthSec: 60}, &SubmitResponse{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replication", func() bool {
		return follower.eng.AppliedLSN() >= leader.eng.DurableLSN()
	})
	// While the leader renews, the follower must not promote.
	time.Sleep(2 * cfg.LeaseTTL)
	if follower.repl.Stats().Role != "follower" {
		t.Fatal("follower promoted under a live lease")
	}
	leader.kill()
	waitFor(t, 10*time.Second, "lease-expiry promotion", func() bool {
		return follower.repl.Stats().Role == "leader"
	})
	if follower.repl.Stats().Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", follower.repl.Stats().Promotions)
	}
	// The promoted node accepts writes and kept the replicated queue.
	var sr SubmitResponse
	if err := net.dial("b").Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 1, LengthSec: 60}, &sr); err != nil {
		t.Fatalf("promoted node refuses writes: %v", err)
	}
	var jobs int
	follower.cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&jobs)
	if jobs != 3 {
		t.Fatalf("%d jobs on promoted node, want 3", jobs)
	}
}
