package core_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	. "condorj2/internal/core"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// The replication suite runs its nodes' housekeeping ticks itself
// (CAS.Tick) under one stepped clock: no test waits for a ticker, and a
// lease goes stale exactly when a test steps the clock past it. What a
// test does wait for is the leader's shipper, which a commit or a join
// wakes.

// stepClock stands still until the test steps it.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) step(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// replNet is an in-process "network" for replication tests: a registry
// of endpoints resolved at call time (so a killed node fails calls
// instead of freezing a stale transport), with an optional per-link
// wrapper for fault injection on the shipping path, and the clock every
// node reads (nil: the wall clock).
type replNet struct {
	mu    sync.Mutex
	nodes map[string]*swapCaller
	wrap  func(addr string, c wire.Caller) wire.Caller
	clock *stepClock
}

func newReplNet() *replNet {
	return &replNet{nodes: make(map[string]*swapCaller), clock: &stepClock{t: time.Unix(1_000_000, 0)}}
}

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
	addr  string
	vfs   *sqldb.MemVFS
	eng   *sqldb.DB
	cas   *CAS
	repl  *Replicator
	sc    *swapCaller
	ticks int
}

func newReplNode(t *testing.T, net *replNet, addr string, follower bool, cfg ReplConfig) *replNode {
	t.Helper()
	return openReplNode(t, net, addr, sqldb.NewMemVFS(), 0, follower, cfg)
}

// openReplNode assembles a node on the store in vfs, paged with a pool of
// poolPages frames when that is positive.
func openReplNode(t *testing.T, net *replNet, addr string, vfs *sqldb.MemVFS, poolPages int, follower bool, cfg ReplConfig) *replNode {
	t.Helper()
	eng, err := sqldb.Open(sqldb.Options{VFS: vfs, Path: addr + ".wal", Sync: sqldb.SyncGroup, PoolPages: poolPages})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Engine: eng, PoolSize: 8, Follower: follower}
	if net.clock != nil {
		opts.Clock = net.clock
	}
	cas, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Self = addr
	cfg.Dial = net.dial
	repl, err := NewReplicator(cas, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := &replNode{addr: addr, vfs: vfs, eng: eng, cas: cas, repl: repl, sc: net.register(addr)}
	n.sc.set(&wire.Local{Mux: cas.Mux})
	return n
}

// tick runs the node's next housekeeping tick.
func (n *replNode) tick() {
	n.ticks++
	n.cas.Tick(context.Background(), n.ticks)
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

// startPair makes leader lead and follower follow it, and ticks the
// follower once: its join is what tells the leader to ship to it.
func startPair(t *testing.T, leader, follower *replNode) {
	t.Helper()
	if err := leader.repl.StartLeader(context.Background()); err != nil {
		t.Fatal(err)
	}
	follower.repl.StartFollower(leader.addr)
	follower.tick()
}

// drain waits for the leader's shipper to bring the follower level with
// the leader's log. A leader with this one follower must also have counted
// the catch-up: the follower applies a run before the leader adds its
// bytes to ShipBytes and then advances the follower's acknowledged LSN, so
// a leader showing its one follower at no lag has done both.
func drain(t *testing.T, leader, follower *replNode) {
	t.Helper()
	waitFor(t, 5*time.Second, follower.addr+" to catch up with "+leader.addr, func() bool {
		if follower.eng.AppliedLSN() < leader.eng.DurableLSN() {
			return false
		}
		rs := leader.repl.Stats()
		return rs.Followers != 1 || rs.LagLSN == 0
	})
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
	startPair(t, leader, follower)

	client := net.dial("leader")
	var sr SubmitResponse
	if err := client.Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "alice", Count: 5, LengthSec: 60}, &sr); err != nil {
		t.Fatal(err)
	}
	drain(t, leader, follower)

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
	if rs.Role != "leader" || rs.Followers != 1 || rs.ShipBytes == 0 {
		t.Fatalf("leader stats %+v", rs)
	}
	fs := follower.repl.Stats()
	if fs.Role != "follower" || fs.LagLSN != 0 {
		t.Fatalf("follower stats %+v", fs)
	}
}

// TestReplStaleTermFencing promotes the follower while the old leader
// lives on, then lets the old leader commit and ship: the promoted
// node must reject the stale-term ship, and the old leader must park
// itself read-only rather than split the brain.
func TestReplStaleTermFencing(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "old", false, ReplConfig{})
	defer leader.close()
	follower := newReplNode(t, net, "new", true, ReplConfig{})
	defer follower.close()
	startPair(t, leader, follower)
	client := net.dial("old")
	if err := client.Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 3, LengthSec: 60}, &SubmitResponse{}); err != nil {
		t.Fatal(err)
	}
	drain(t, leader, follower)

	// Simulated partition decision: promote the follower by hand.
	if err := follower.repl.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := follower.repl.Stats().Role; got != "leader" {
		t.Fatalf("promoted node role %q", got)
	}

	// The deposed leader does not know yet and takes a write; shipping it
	// is what gets fenced.
	if err := client.Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 1, LengthSec: 60}, &SubmitResponse{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "old leader to park on StaleTerm", func() bool {
		return leader.repl.Stats().Role == "parked"
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
	follower := newReplNode(t, net, "b", true, ReplConfig{})
	defer follower.close()
	startPair(t, leader, follower)

	key := wire.NewIdempotencyKey()
	ctx := wire.WithIdempotencyKey(context.Background(), key)
	var first SubmitResponse
	if err := net.dial("a").Call(ctx, ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 4, LengthSec: 60}, &first); err != nil {
		t.Fatal(err)
	}
	drain(t, leader, follower)
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
	if jobs := countOf(t, follower.cas.Pool, `SELECT count(*) FROM jobs`); jobs != 4 {
		t.Fatalf("%d jobs after keyed retry across promotion, want 4", jobs)
	}
	if follower.cas.Service.DedupStats().Replays == 0 {
		t.Fatal("no replay recorded on the promoted node")
	}
}

// TestReplPromotionRunsReplyGC sets a zero reply retention, then
// promotes: the promotion itself must age out the replicated dedup rows
// (the tick's GC cadence used to be the only trigger, which a freshly
// promoted follower had never run).
func TestReplPromotionRunsReplyGC(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "a", false, ReplConfig{})
	follower := newReplNode(t, net, "b", true, ReplConfig{})
	defer follower.close()
	startPair(t, leader, follower)
	ctx := wire.WithIdempotencyKey(context.Background(), wire.NewIdempotencyKey())
	if err := net.dial("a").Call(ctx, ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 1, LengthSec: 60}, &SubmitResponse{}); err != nil {
		t.Fatal(err)
	}
	if err := net.dial("a").Call(context.Background(), ActionConfigSet,
		&ConfigSetRequest{Name: "reply_retention_sec", Value: "0"}, &ConfigSetResponse{}); err != nil {
		t.Fatal(err)
	}
	drain(t, leader, follower)
	if replicated := countOf(t, follower.cas.Pool, `SELECT count(*) FROM wire_replies`); replicated == 0 {
		t.Fatal("reply row did not replicate")
	}
	leader.kill()
	net.clock.step(time.Second) // let created_at fall behind now()
	if err := follower.repl.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	if left := countOf(t, follower.cas.Pool, `SELECT count(*) FROM wire_replies`); left != 0 {
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
	follower := newReplNode(t, net, "b", true, ReplConfig{})
	defer follower.close()
	startPair(t, leader, follower)
	for name, value := range map[string]string{ConfigStmtTimeoutMs: "1500", ConfigLockTimeoutMs: "250"} {
		if err := net.dial("a").Call(context.Background(), ActionConfigSet,
			&ConfigSetRequest{Name: name, Value: value}, &ConfigSetResponse{}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, leader, follower)
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

// TestReplLeasePromotionOnLeaderDeath runs the full detector tick by tick,
// a second apart, on the default 3 s lease: while the leader renews, the
// follower never promotes; once the leader dies silently, the follower's
// copy of the lease ages, and the follower promotes on exactly the first
// tick that finds it older than the TTL, opening the write path.
func TestReplLeasePromotionOnLeaderDeath(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "a", false, ReplConfig{})
	follower := newReplNode(t, net, "b", true, ReplConfig{})
	defer follower.close()
	startPair(t, leader, follower)
	if err := net.dial("a").Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 2, LengthSec: 60}, &SubmitResponse{}); err != nil {
		t.Fatal(err)
	}
	drain(t, leader, follower)

	for i := 0; i < 10; i++ { // well past the TTL
		net.clock.step(time.Second)
		leader.tick() // renews, and the renewal ships
		drain(t, leader, follower)
		follower.tick()
		if role := follower.repl.Stats().Role; role != "follower" {
			t.Fatalf("tick %d: follower is %s under a live lease", i+1, role)
		}
	}

	leader.kill()
	for age := time.Second; age <= 3*time.Second; age += time.Second {
		net.clock.step(time.Second)
		follower.tick()
		if role := follower.repl.Stats().Role; role != "follower" {
			t.Fatalf("follower is %s with the lease %s old, inside its 3s TTL", role, age)
		}
	}
	net.clock.step(time.Second)
	follower.tick()
	if rs := follower.repl.Stats(); rs.Role != "leader" || rs.Promotions != 1 {
		t.Fatalf("first tick past the TTL: role %s, %d promotions; want leader, 1", rs.Role, rs.Promotions)
	}
	// The promoted node accepts writes and kept the replicated queue.
	var sr SubmitResponse
	if err := net.dial("b").Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "u", Count: 1, LengthSec: 60}, &sr); err != nil {
		t.Fatalf("promoted node refuses writes: %v", err)
	}
	if jobs := countOf(t, follower.cas.Pool, `SELECT count(*) FROM jobs`); jobs != 3 {
		t.Fatalf("%d jobs on promoted node, want 3", jobs)
	}
}

// TestReplRestartedFollowerWaitsForItsLeader: a follower that was down for
// longer than the lease TTL while its leader lived restarts with its own
// stale copy of the lease. The leader answers its first join and
// advertises commits the follower has not applied, so the staleness is the
// follower's lag, not the leader's death: it must keep following, be
// shipped the leader's renewals, and leave the leader leading.
func TestReplRestartedFollowerWaitsForItsLeader(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "a", false, ReplConfig{})
	defer leader.close()
	follower := newReplNode(t, net, "b", true, ReplConfig{})
	startPair(t, leader, follower)
	submit := func(n int) {
		t.Helper()
		if err := net.dial("a").Call(context.Background(), ActionSubmitJob,
			&SubmitRequest{Owner: "u", Count: n, LengthSec: 60}, &SubmitResponse{}); err != nil {
			t.Fatal(err)
		}
	}
	submit(2)
	drain(t, leader, follower)

	follower.kill()
	for i := 0; i < 10; i++ { // down well past the 3 s TTL; the leader renews all along
		net.clock.step(time.Second)
		leader.tick()
	}
	submit(3) // commits the restarted follower has yet to apply
	follower = openReplNode(t, net, "b", follower.vfs, 0, true, ReplConfig{})
	defer follower.close()
	follower.repl.StartFollower("a")
	for i := 0; i < 5; i++ {
		follower.tick()
		if rs := follower.repl.Stats(); rs.Role != "follower" || rs.Promotions != 0 {
			t.Fatalf("restarted follower's tick %d: role %s, %d promotions, beside a live leader", i+1, rs.Role, rs.Promotions)
		}
		drain(t, leader, follower)
		net.clock.step(time.Second)
		leader.tick()
	}
	if rs := leader.repl.Stats(); rs.Role != "leader" || rs.Demotions != 0 {
		t.Fatalf("live leader: role %s, %d demotions; want leader, 0", rs.Role, rs.Demotions)
	}
	if jobs := countOf(t, follower.cas.Pool, `SELECT count(*) FROM jobs`); jobs != 5 {
		t.Fatalf("restarted follower shows %d jobs, want 5", jobs)
	}
}

// TestReplTruncatedFollowerDoesNotPromote: a follower that applied the
// lease row, then fell behind a clean restart of its paged leader, acks
// below where the leader's log now begins, so every ship to it is refused
// and its copy of the lease only ages. The leader still answers its joins
// and advertises a durable LSN the follower has not reached: the follower
// must keep following, not promote beside a leader whose ships, never
// sent, could never fence it.
func TestReplTruncatedFollowerDoesNotPromote(t *testing.T) {
	net := newReplNet()
	leader := openReplNode(t, net, "a", sqldb.NewMemVFS(), 64, false, ReplConfig{})
	follower := newReplNode(t, net, "b", true, ReplConfig{})
	defer follower.close()
	startPair(t, leader, follower)
	drain(t, leader, follower)
	if rows := countOf(t, follower.cas.Pool, `SELECT count(*) FROM repl_lease`); rows != 1 {
		t.Fatalf("follower holds %d lease rows, want 1", rows)
	}

	follower.sc.set(nil) // ships to the follower fail from here on
	if _, err := leader.cas.Service.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 5, LengthSec: 60}); err != nil {
		t.Fatal(err)
	}
	leader.close() // a clean close checkpoints: the log now begins past the follower
	leader = openReplNode(t, net, "a", leader.vfs, 64, false, ReplConfig{})
	defer leader.close()
	if err := leader.repl.StartLeader(context.Background()); err != nil {
		t.Fatal(err)
	}
	follower.sc.set(&wire.Local{Mux: follower.cas.Mux})
	for i := 0; i < 10; i++ {
		net.clock.step(time.Second)
		leader.tick()
		follower.tick()
		if rs := follower.repl.Stats(); rs.Role != "follower" || rs.Promotions != 0 {
			t.Fatalf("tick %d: truncated follower is %s with %d promotions beside a live leader", i+1, rs.Role, rs.Promotions)
		}
	}
	waitFor(t, 5*time.Second, "the leader to refuse the truncated follower", func() bool {
		return leader.repl.Stats().ShipTruncated > 0
	})
	if rs := leader.repl.Stats(); rs.Role != "leader" || rs.Demotions != 0 {
		t.Fatalf("live leader: role %s, %d demotions; want leader, 0", rs.Role, rs.Demotions)
	}
}

// TestReplForgetsSilentFollower: a leader ships to two followers and one
// dies. The leader keeps the dead one for a lease TTL — a live follower
// joins every tick, so that is three missed joins — and drops it on the
// first tick past that; from then on the lag is the survivor's alone, and
// the survivor still replicates.
func TestReplForgetsSilentFollower(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "a", false, ReplConfig{})
	defer leader.close()
	live := newReplNode(t, net, "b", true, ReplConfig{})
	defer live.close()
	dead := newReplNode(t, net, "c", true, ReplConfig{})
	startPair(t, leader, live)
	dead.repl.StartFollower("a")
	dead.tick()
	drain(t, leader, live)
	drain(t, leader, dead)
	if n := leader.repl.Stats().Followers; n != 2 {
		t.Fatalf("%d followers registered, want 2", n)
	}

	dead.kill()
	submit := func() {
		t.Helper()
		if err := net.dial("a").Call(context.Background(), ActionSubmitJob,
			&SubmitRequest{Owner: "u", Count: 1, LengthSec: 60}, &SubmitResponse{}); err != nil {
			t.Fatal(err)
		}
	}
	submit() // the dead follower never gets this
	for silent := time.Second; silent <= 4*time.Second; silent += time.Second {
		net.clock.step(time.Second)
		leader.tick()
		drain(t, leader, live)
		live.tick()
		want := 2
		if silent > 3*time.Second {
			want = 1
		}
		if n := leader.repl.Stats().Followers; n != want {
			t.Fatalf("dead follower silent %s: %d followers registered, want %d", silent, n, want)
		}
	}
	waitFor(t, 5*time.Second, "the leader's lag to be the survivor's alone", func() bool {
		return leader.repl.Stats().LagLSN == 0
	})
	submit()
	drain(t, leader, live)
	if jobs := countOf(t, live.cas.Pool, `SELECT count(*) FROM jobs`); jobs != 2 {
		t.Fatalf("survivor shows %d jobs, want 2", jobs)
	}
}

// TestReplTruncatedJoinIsCounted: a paged leader's log reaches back only
// to its last checkpoint, and after a clean restart (Close checkpoints) it
// is empty, so an empty follower joining at LSN 0 is refused
// ErrLogTruncated rather than shipped a log with a hole. The refusal is
// counted as ShipTruncated, apart from transport errors, and the follower
// stays empty however long it joins. Rejoin — catching such a follower up
// from the leader's checkpoint rather than its log — is what turns the
// AppliedLSN == 0 below into convergence.
func TestReplTruncatedJoinIsCounted(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(t *testing.T, net *replNet, leader *replNode) *replNode
	}{
		{"after a checkpoint", func(t *testing.T, _ *replNet, leader *replNode) *replNode {
			if err := leader.eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			return leader
		}},
		{"after a clean restart", func(t *testing.T, net *replNet, leader *replNode) *replNode {
			leader.close()
			return openReplNode(t, net, leader.addr, leader.vfs, 64, false, ReplConfig{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := newReplNet()
			leader := openReplNode(t, net, "a", sqldb.NewMemVFS(), 64, false, ReplConfig{})
			if _, err := leader.cas.Service.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 20, LengthSec: 60}); err != nil {
				t.Fatal(err)
			}
			leader = tc.cut(t, net, leader)
			defer leader.close()
			follower := newReplNode(t, net, "b", true, ReplConfig{})
			defer follower.close()
			startPair(t, leader, follower)
			for i := 0; i < 20; i++ {
				net.clock.step(time.Second)
				leader.tick()
				follower.tick()
			}
			waitFor(t, 5*time.Second, "the refusal to be counted", func() bool {
				return leader.repl.Stats().ShipTruncated > 0
			})
			if rs := leader.repl.Stats(); rs.ShipCalls != 0 || rs.ShipErrors != 0 || rs.Followers != 1 {
				t.Fatalf("leader stats %+v: want no ship sent, no transport error, the follower registered", rs)
			}
			if got := follower.eng.AppliedLSN(); got != 0 {
				t.Fatalf("follower applied through LSN %d from a log that no longer reaches back to it", got)
			}
		})
	}
}

// TestReplFollowerBehindACheckpointIsShipped: a paged leader checkpoints
// while a follower has not yet acked its latest commits — the housekeeping
// tick commits and checkpoints back to back, so under load some follower
// always is. The shipping leader's log keeps its recent tail across the
// cut, so the follower catches up from the file and is never refused.
func TestReplFollowerBehindACheckpointIsShipped(t *testing.T) {
	net := newReplNet()
	leader := openReplNode(t, net, "a", sqldb.NewMemVFS(), 64, false, ReplConfig{})
	defer leader.close()
	follower := newReplNode(t, net, "b", true, ReplConfig{})
	defer follower.close()
	startPair(t, leader, follower)
	drain(t, leader, follower)

	follower.sc.set(nil) // ships to the follower fail from here on
	if _, err := leader.cas.Service.Submit(context.Background(), &SubmitRequest{Owner: "u", Count: 5, LengthSec: 60}); err != nil {
		t.Fatal(err)
	}
	if err := leader.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cut, acked := leader.eng.BufferPoolStats().CheckpointLSN, follower.eng.AppliedLSN(); cut <= acked {
		t.Fatalf("checkpoint through LSN %d, follower at %d: the follower is not behind the checkpoint", cut, acked)
	}
	follower.sc.set(&wire.Local{Mux: follower.cas.Mux})
	follower.tick() // its join wakes the shipper
	waitFor(t, 5*time.Second, "the follower to catch up or be refused", func() bool {
		return follower.eng.AppliedLSN() >= leader.eng.DurableLSN() || leader.repl.Stats().ShipTruncated > 0
	})
	if n := leader.repl.Stats().ShipTruncated; n != 0 {
		t.Fatalf("the follower behind the checkpoint was refused %d times, want shipped", n)
	}
	if jobs := countOf(t, follower.cas.Pool, `SELECT count(*) FROM jobs`); jobs != 5 {
		t.Fatalf("follower shows %d jobs, want 5", jobs)
	}
}

// TestReplShipAppliesAsOneRun: a ship of several committed groups is one
// run on the follower — one append to its log and one fsync — not one per
// group.
func TestReplShipAppliesAsOneRun(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "lead", false, ReplConfig{})
	defer leader.close()
	follower := newReplNode(t, net, "follow", true, ReplConfig{})
	defer follower.close()
	ship := func(run []byte) {
		t.Helper()
		req := &ReplShipRequest{Term: 1, Leader: "lead", LeaderLSN: leader.eng.DurableLSN(), Log: run}
		if err := net.dial("follow").Call(context.Background(), ActionReplShip, req, &ReplShipResponse{}); err != nil {
			t.Fatal(err)
		}
	}
	since := func(lsn uint64) ([]byte, uint64) {
		t.Helper()
		run, durable, err := leader.eng.CommittedSince(lsn, 0)
		if err != nil {
			t.Fatal(err)
		}
		return run, durable
	}
	bootstrap, _ := since(0)
	ship(bootstrap)

	for _, sql := range []string{
		`CREATE TABLE probe (id INTEGER PRIMARY KEY)`,
		`INSERT INTO probe VALUES (1)`,
		`INSERT INTO probe VALUES (2)`,
	} {
		if _, err := leader.eng.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	applied := follower.eng.AppliedLSN()
	run, durable := since(applied)
	if len(run) == 0 || durable-applied != 3 {
		t.Fatalf("leader logged LSNs %d to %d past the follower (a %d-byte run), want 3 groups", applied+1, durable, len(run))
	}
	syncs, groups := follower.eng.WALStats().Syncs, follower.eng.ReplStats().BatchesApplied
	ship(run)
	if got := follower.eng.ReplStats().BatchesApplied - groups; got != 3 {
		t.Fatalf("the ship applied %d groups on the follower, want 3", got)
	}
	if got := follower.eng.WALStats().Syncs - syncs; got != 1 {
		t.Fatalf("a 3-group ship cost the follower %d syncs, want 1", got)
	}
	if got, want := follower.eng.AppliedLSN(), leader.eng.DurableLSN(); got != want {
		t.Fatalf("follower applied LSN %d, leader durable %d", got, want)
	}
	rows, err := follower.eng.Query(`SELECT count(*) FROM probe`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Data[0][0].Int64(); n != 2 {
		t.Fatalf("follower holds %d probe rows, want 2", n)
	}
	// A ship carrying no run, as a leader of another build sends one, is
	// refused rather than acked.
	if err := net.dial("follow").Call(context.Background(), ActionReplShip, &ReplShipRequest{Term: 1, Leader: "lead"}, &ReplShipResponse{}); err == nil {
		t.Fatal("a ship with no log was acked")
	}
}

// TestReplShipWaitsWhenAnAckDoesNotAdvance: a follower that acks a ship
// without its applied LSN moving — a peer of another build, which reads
// this build's ship as empty — is shipped the run once per wakeup, not in
// a tight loop: the shipper waits for the next commit, join or tick.
func TestReplShipWaitsWhenAnAckDoesNotAdvance(t *testing.T) {
	net := newReplNet()
	leader := newReplNode(t, net, "lead", false, ReplConfig{})
	defer leader.close()
	var ships atomic.Int64
	mux := wire.NewMux()
	mux.Handle(ActionReplShip, wire.Typed(func(context.Context, *ReplShipRequest, *ReplShipResponse) error {
		ships.Add(1)
		return nil
	}))
	net.register("stale").set(&wire.Local{Mux: mux})
	if err := leader.repl.StartLeader(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := net.dial("lead").Call(context.Background(), ActionReplJoin, &ReplJoinRequest{Addr: "stale"}, &ReplJoinResponse{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the first ship", func() bool { return ships.Load() > 0 })
	time.Sleep(100 * time.Millisecond)
	if n := ships.Load(); n > 2 {
		t.Fatalf("one join woke %d ships to a follower whose ack never advanced, want one", n)
	}
}
