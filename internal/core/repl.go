package core

// WAL-shipping replication and lease-based failover. The paper's thesis —
// cluster state is just data in a DBMS — extends naturally to
// availability: the CAS's failover story is a database failover story.
// A leader streams its committed WAL groups to followers (sqldb's
// ReplicationTap + CommittedSince), each follower applies them through
// its own MVCC commit clock, and every read-only service (pool status,
// queue listings, accounting, the web site) works on the follower from a
// transactionally consistent replicated snapshot.
//
// Failure detection is lease-based and rides the replication stream
// itself: the leader transactionally renews a single repl_lease row at
// every interval, the renewal ships like any other write, and a follower
// promotes itself when its local copy of the row goes stale for longer
// than the TTL. Split brain is prevented by term fencing: a promotion
// bumps the lease term, and every repl.Ship carries the sender's term —
// a deposed leader's ship is answered with a StaleTerm fault and the
// sender demotes itself to read-only.
//
// Shipping rides the PR 7 wire fault-tolerance stack: each repl.Ship is
// issued through a Retryer with an idempotency key, and the follower's
// apply is idempotent by LSN, so a lossy or duplicating link between the
// nodes can at worst delay replication, never corrupt it.

import (
	"context"
	"encoding/base64"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// ReplConfig tunes a Replicator. Dial and Self are required; the rest
// default sensibly.
type ReplConfig struct {
	// Self is this node's dialable endpoint, advertised to peers (the
	// Leader field of NotLeader faults, the Addr of join requests).
	Self string
	// LeaseTTL is how stale the replicated lease row may go before a
	// follower promotes itself (0 = 3s).
	LeaseTTL time.Duration
	// Interval paces lease renewal, follower join heartbeats, and the
	// expiry check (0 = LeaseTTL/3).
	Interval time.Duration
	// CallTimeout bounds one replication RPC, retries included (0 = 2s).
	CallTimeout time.Duration
	// MaxShipBytes caps the batch bytes per repl.Ship (0 = 1 MiB).
	MaxShipBytes int
	// Dial returns a Caller for a peer's endpoint. Tests inject loopback
	// transports; condorj2d dials wire.Client over HTTP.
	Dial func(addr string) wire.Caller
	// Retry tunes the shipping Retryer (nil = wire defaults).
	Retry *wire.RetryPolicy
}

func (c *ReplConfig) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 3 * time.Second
}

func (c *ReplConfig) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return c.leaseTTL() / 3
}

func (c *ReplConfig) callTimeout() time.Duration {
	if c.CallTimeout > 0 {
		return c.CallTimeout
	}
	return 2 * time.Second
}

func (c *ReplConfig) maxShipBytes() int {
	if c.MaxShipBytes > 0 {
		return c.MaxShipBytes
	}
	return 1 << 20
}

// replFollower is the leader's view of one follower.
type replFollower struct {
	addr   string
	caller wire.Caller // Retryer-wrapped

	mu      sync.Mutex
	acked   uint64 // follower's durable applied LSN, from join/ship acks
	ackedAt time.Time
}

// Replicator runs one node's half of the replication protocol: the ship
// and lease-renewal loops when leading, the join and lease-watch loops
// when following, and the promotion/demotion transitions between them.
type Replicator struct {
	cas *CAS
	cfg ReplConfig

	// applyMu serializes shipped-batch apply against promotion: a
	// promotion waits out any in-flight apply, and every apply re-checks
	// the term after acquiring it, so no old-leader batch lands after the
	// node has claimed a new term.
	applyMu sync.Mutex

	mu         sync.Mutex
	leading    bool
	term       uint64
	leader     string // current known leader endpoint ("" = unknown)
	followers  map[string]*replFollower
	roleCancel context.CancelFunc
	closed     bool

	wg   sync.WaitGroup
	kick chan struct{} // wakes the ship loop (new follower, new commit)

	// Follower-side lag inputs: the leader's durable horizon and the
	// local clock at the last accepted ship.
	leaderLSN  atomic.Uint64
	lastShipMs atomic.Int64

	shipCalls   atomic.Uint64
	shipBatches atomic.Uint64
	shipErrors  atomic.Uint64
	fenced      atomic.Uint64
	promotions  atomic.Uint64
	demotions   atomic.Uint64
}

// NewReplicator attaches replication to a CAS: registers the repl.Ship /
// repl.Join handlers on its mux and returns the (stopped) replicator.
// Start a role with StartLeader or StartFollower.
func NewReplicator(cas *CAS, cfg ReplConfig) *Replicator {
	r := &Replicator{
		cas:       cas,
		cfg:       cfg,
		followers: make(map[string]*replFollower),
		kick:      make(chan struct{}, 1),
	}
	cas.Mux.Handle(ActionReplShip, wire.Typed(r.handleShip))
	cas.Mux.Handle(ActionReplJoin, wire.Typed(r.handleJoin))
	return r
}

func (r *Replicator) now() time.Time { return r.cas.clock.Now() }

// newCaller wraps a dialed peer in the retrying, idempotency-keyed
// client stack ships ride on. The policy is copied field-wise —
// RetryPolicy carries its own jitter mutex and must not be copied as a
// value.
func (r *Replicator) newCaller(addr string) wire.Caller {
	ret := &wire.Retryer{
		Caller: r.cfg.Dial(addr),
		Keyed:  func(action string) bool { return action == ActionReplShip },
	}
	if p := r.cfg.Retry; p != nil {
		ret.Policy.MaxAttempts = p.MaxAttempts
		ret.Policy.BaseDelay = p.BaseDelay
		ret.Policy.MaxDelay = p.MaxDelay
		ret.Policy.Classify = p.Classify
		ret.Policy.Rand = p.Rand
		ret.Policy.Sleep = p.Sleep
	}
	return ret
}

// startRole cancels the previous role's loops and installs a fresh
// context for the next one. Callers hold r.mu.
func (r *Replicator) startRoleLocked() context.Context {
	if r.roleCancel != nil {
		r.roleCancel()
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.roleCancel = cancel
	return ctx
}

// StartLeader claims leadership: bump the lease term past anything in
// this node's own database, write the lease row, and start the renewal
// and shipping loops. The caller is responsible for the rest of leader
// assembly (scheduler, recovery) — condorj2d's normal boot path.
func (r *Replicator) StartLeader(ctx context.Context) error {
	lease, _ := r.readLease(ctx)
	term := lease.term + 1
	if err := r.writeLease(ctx, term); err != nil {
		return fmt.Errorf("core: repl: claim lease: %w", err)
	}
	r.mu.Lock()
	if r.term < term {
		r.term = term
	}
	r.leading = true
	r.leader = r.cfg.Self
	roleCtx := r.startRoleLocked()
	r.mu.Unlock()
	r.cas.Service.ClearNotLeader()
	r.startLeaderLoops(roleCtx)
	return nil
}

// StartFollower enters read-only follower mode against leaderAddr: gate
// the mutating web services, announce this node to the leader, and watch
// the replicated lease for expiry.
func (r *Replicator) StartFollower(ctx context.Context, leaderAddr string) {
	r.mu.Lock()
	r.leading = false
	r.leader = leaderAddr
	roleCtx := r.startRoleLocked()
	r.mu.Unlock()
	r.cas.Service.SetNotLeader(leaderAddr)
	r.wg.Add(1)
	go r.followLoop(roleCtx)
}

// Close stops all loops and waits them out. The node keeps serving
// whatever its write gate allows; Close does not demote or promote.
func (r *Replicator) Close() {
	r.mu.Lock()
	r.closed = true
	if r.roleCancel != nil {
		r.roleCancel()
		r.roleCancel = nil
	}
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *Replicator) startLeaderLoops(roleCtx context.Context) {
	r.wg.Add(2)
	go r.renewLoop(roleCtx)
	go r.shipLoop(roleCtx)
}

// ---------------------------------------------------------------------
// Lease row access. The lease is ordinary replicated data: written
// through the pooled SQL handle, logged to the WAL, shipped to
// followers. nowMs comes from the service clock so virtual-time tests
// and production agree on staleness.

type replLease struct {
	term      uint64
	holder    string
	renewedMs int64
	ttlMs     int64
}

func (r *Replicator) readLease(ctx context.Context) (replLease, bool) {
	var l replLease
	var term int64
	err := r.cas.Pool.QueryRowContext(ctx,
		`SELECT term, holder, renewed_at_ms, ttl_ms FROM repl_lease WHERE id = 1`,
	).Scan(&term, &l.holder, &l.renewedMs, &l.ttlMs)
	if err != nil {
		// No row, or (on a fresh follower) no table yet: no lease known.
		return replLease{}, false
	}
	l.term = uint64(term)
	return l, true
}

// writeLease installs this node as lease holder at term (claim or
// promotion — unconditional overwrite).
func (r *Replicator) writeLease(ctx context.Context, term uint64) error {
	nowMs := r.now().UnixMilli()
	ttlMs := r.cfg.leaseTTL().Milliseconds()
	res, err := r.cas.Pool.ExecContext(ctx,
		`UPDATE repl_lease SET term = ?, holder = ?, renewed_at_ms = ?, ttl_ms = ? WHERE id = 1`,
		int64(term), r.cfg.Self, nowMs, ttlMs)
	if err != nil {
		return err
	}
	if n, _ := res.RowsAffected(); n == 0 {
		_, err = r.cas.Pool.ExecContext(ctx,
			`INSERT INTO repl_lease (id, term, holder, renewed_at_ms, ttl_ms) VALUES (1, ?, ?, ?, ?)`,
			int64(term), r.cfg.Self, nowMs, ttlMs)
	}
	return err
}

// renewLease refreshes the lease timestamp, but only while this node
// still holds it at its own term — losing that condition means the node
// was deposed and must demote.
func (r *Replicator) renewLease(ctx context.Context, term uint64) (bool, error) {
	res, err := r.cas.Pool.ExecContext(ctx,
		`UPDATE repl_lease SET renewed_at_ms = ? WHERE id = 1 AND term = ? AND holder = ?`,
		r.now().UnixMilli(), int64(term), r.cfg.Self)
	if err != nil {
		return false, err
	}
	n, _ := res.RowsAffected()
	return n == 1, nil
}

// ---------------------------------------------------------------------
// Leader loops.

func (r *Replicator) renewLoop(ctx context.Context) {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		r.mu.Lock()
		term, leading := r.term, r.leading
		r.mu.Unlock()
		if !leading {
			return
		}
		ok, err := r.renewLease(ctx, term)
		if err != nil {
			continue // transient engine error; the TTL absorbs a few misses
		}
		if !ok {
			r.Demote("")
			return
		}
	}
}

func (r *Replicator) shipLoop(ctx context.Context) {
	defer r.wg.Done()
	tap, err := r.cas.Engine.ReplicationTap()
	if err != nil {
		// No WAL, nothing to ship: stay leader (single-node durable-less
		// deployments), just without replication.
		return
	}
	defer tap.Close()
	t := time.NewTicker(r.cfg.interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tap.Notify():
		case <-r.kick:
		case <-t.C:
		}
		r.mu.Lock()
		leading := r.leading
		fs := make([]*replFollower, 0, len(r.followers))
		for _, f := range r.followers {
			fs = append(fs, f)
		}
		r.mu.Unlock()
		if !leading {
			return
		}
		for _, f := range fs {
			r.shipTo(ctx, f)
		}
	}
}

// shipTo drains committed groups to one follower until it is caught up
// or an RPC fails (the next wakeup retries from the acked LSN).
func (r *Replicator) shipTo(ctx context.Context, f *replFollower) {
	for ctx.Err() == nil {
		f.mu.Lock()
		acked := f.acked
		f.mu.Unlock()
		batches, durable, err := r.cas.Engine.CommittedSince(acked, r.cfg.maxShipBytes())
		if err != nil {
			// Notably ErrLogTruncated: a follower further behind than the
			// last checkpoint is not shipped a log with a hole.
			r.shipErrors.Add(1)
			return
		}
		if len(batches) == 0 {
			return
		}
		r.mu.Lock()
		term, leading := r.term, r.leading
		r.mu.Unlock()
		if !leading {
			return
		}
		req := &ReplShipRequest{Term: term, Leader: r.cfg.Self, LeaderLSN: durable}
		for _, b := range batches {
			req.Batches = append(req.Batches, ReplBatch{
				LSN:  b.LSN,
				Data: base64.StdEncoding.EncodeToString(b.Data),
			})
		}
		var resp ReplShipResponse
		cctx, cancel := context.WithTimeout(ctx, r.cfg.callTimeout())
		err = f.caller.Call(cctx, ActionReplShip, req, &resp)
		cancel()
		r.shipCalls.Add(1)
		if err != nil {
			if flt, ok := wire.AsFault(err); ok && flt.Code == wire.FaultStaleTerm {
				r.fenced.Add(1)
				r.Demote(flt.Leader)
				return
			}
			r.shipErrors.Add(1)
			return
		}
		r.shipBatches.Add(uint64(len(batches)))
		f.mu.Lock()
		if resp.AppliedLSN > f.acked {
			f.acked = resp.AppliedLSN
		}
		f.ackedAt = r.now()
		caughtUp := f.acked >= durable
		f.mu.Unlock()
		if caughtUp {
			return
		}
	}
}

// ---------------------------------------------------------------------
// Follower loop: heartbeat a join to the leader (announcing our durable
// applied LSN — the resume point), and watch the replicated lease row;
// when it goes stale past its TTL the leader is presumed dead and this
// node promotes.

func (r *Replicator) followLoop(ctx context.Context) {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		r.joinLeader(ctx)
		if r.leaseExpired(ctx) {
			if err := r.Promote(ctx); err == nil {
				return
			}
		}
	}
}

func (r *Replicator) joinLeader(ctx context.Context) {
	r.mu.Lock()
	leader := r.leader
	r.mu.Unlock()
	if leader == "" || leader == r.cfg.Self {
		return
	}
	caller := r.cfg.Dial(leader)
	req := &ReplJoinRequest{Addr: r.cfg.Self, AppliedLSN: r.cas.Engine.AppliedLSN()}
	var resp ReplJoinResponse
	cctx, cancel := context.WithTimeout(ctx, r.cfg.callTimeout())
	err := caller.Call(cctx, ActionReplJoin, req, &resp)
	cancel()
	if err != nil {
		// Follow a redirect: the node we think leads may itself know the
		// real leader (e.g. after its own demotion).
		if flt, ok := wire.AsFault(err); ok && flt.Code == wire.FaultNotLeader && flt.Leader != "" && flt.Leader != r.cfg.Self {
			r.mu.Lock()
			r.leader = flt.Leader
			r.mu.Unlock()
			r.cas.Service.SetNotLeader(flt.Leader)
		}
		return
	}
	r.mu.Lock()
	if resp.Term > r.term {
		r.term = resp.Term
	}
	if resp.Leader != "" {
		r.leader = resp.Leader
	}
	r.mu.Unlock()
	r.leaderLSN.Store(resp.DurableLSN)
}

func (r *Replicator) leaseExpired(ctx context.Context) bool {
	lease, ok := r.readLease(ctx)
	if !ok {
		// Nothing replicated yet — we cannot distinguish "leader dead"
		// from "never connected"; promoting on no data would fork an
		// empty timeline.
		return false
	}
	r.mu.Lock()
	if lease.term > r.term {
		r.term = lease.term
	}
	r.mu.Unlock()
	age := r.now().UnixMilli() - lease.renewedMs
	return age > lease.ttlMs
}

// ---------------------------------------------------------------------
// Transitions.

// Promote turns this follower into the leader: wait out any in-flight
// shipped apply, rebuild the engine's allocator state from the
// replicated heap, take the engine timeouts the replicated config table
// names, claim the lease at a bumped term (fencing the old
// leader), reconcile in-flight cluster state exactly like a restart
// (the PR 7 heartbeat reconciliation then re-adopts or re-runs whatever
// the old leader had in the air), age out replicated dedup replies, and
// open the write path and scheduler.
func (r *Replicator) Promote(ctx context.Context) error {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	if r.leading || r.closed {
		r.mu.Unlock()
		return nil
	}
	knownTerm := r.term
	r.mu.Unlock()

	r.cas.Engine.RebuildAfterReplication()
	r.cas.applyStoredEngineConfig(ctx)
	if lease, ok := r.readLease(ctx); ok && lease.term > knownTerm {
		knownTerm = lease.term
	}
	newTerm := knownTerm + 1
	if err := r.writeLease(ctx, newTerm); err != nil {
		return fmt.Errorf("core: repl: promote: claim lease: %w", err)
	}
	if _, err := r.cas.Service.RecoverInFlight(ctx); err != nil {
		return fmt.Errorf("core: repl: promote: recover in-flight: %w", err)
	}
	// The dedup reply store replicated along with everything else; GC it
	// immediately so a long-lived follower doesn't start its leadership
	// with an unbounded backlog, then let the scheduler's cadence take
	// over.
	retention := time.Duration(r.cas.Service.configInt(ctx, "reply_retention_sec", 3600)) * time.Second
	if _, err := r.cas.Service.GCReplies(ctx, retention); err != nil {
		return fmt.Errorf("core: repl: promote: gc replies: %w", err)
	}

	r.mu.Lock()
	r.leading = true
	r.term = newTerm
	r.leader = r.cfg.Self
	r.promotions.Add(1) // with the role, under r.mu: Stats never shows a leader that was not promoted
	roleCtx := r.startRoleLocked()
	r.mu.Unlock()
	r.cas.Service.ClearNotLeader()
	r.cas.StartScheduler()
	r.startLeaderLoops(roleCtx)
	return nil
}

// Demote parks a deposed leader read-only: stop the scheduler and the
// leader loops, and gate writes with a redirect to newLeader when known.
// A deposed leader's log may have diverged from the new timeline
// (commits it acknowledged but never shipped), so it does NOT rejoin as
// a follower — re-seeding from the new leader is an operator action.
func (r *Replicator) Demote(newLeader string) {
	r.mu.Lock()
	if !r.leading {
		r.mu.Unlock()
		return
	}
	r.leading = false
	r.leader = newLeader
	if r.roleCancel != nil {
		r.roleCancel()
		r.roleCancel = nil
	}
	r.mu.Unlock()
	r.demotions.Add(1)
	r.cas.StopScheduler()
	r.cas.Service.SetNotLeader(newLeader)
}

// ---------------------------------------------------------------------
// Handlers.

// handleShip applies a leader's batch of committed groups. Term fencing
// first: an older term is answered StaleTerm (with our own address when
// we lead — the redirect doubles as leader discovery for the deposed
// sender). Apply is idempotent by LSN, making retried keyed ships safe.
func (r *Replicator) handleShip(ctx context.Context, req *ReplShipRequest) (*ReplShipResponse, error) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	term, leading := r.term, r.leading
	r.mu.Unlock()
	if req.Term < term || (req.Term == term && leading) {
		r.fenced.Add(1)
		f := &wire.Fault{
			Code:    wire.FaultStaleTerm,
			Message: fmt.Sprintf("core: repl: ship at term %d rejected by node at term %d", req.Term, term),
		}
		if leading {
			f.Leader = r.cfg.Self
		}
		return nil, f
	}
	if leading && req.Term > term {
		// Deposed by a newer leader shipping at us. Our log may hold
		// commits the new timeline never saw; park rather than apply.
		r.Demote(req.Leader)
		return nil, fmt.Errorf("core: repl: deposed by term %d; local log diverged, node requires re-seed", req.Term)
	}
	if req.Term > term {
		r.mu.Lock()
		if req.Term > r.term {
			r.term = req.Term
			r.leader = req.Leader
		}
		r.mu.Unlock()
	}
	for _, b := range req.Batches {
		data, err := base64.StdEncoding.DecodeString(b.Data)
		if err != nil {
			return nil, fmt.Errorf("core: repl: batch %d: bad base64: %w", b.LSN, err)
		}
		if err := r.cas.Engine.FollowerApply(b.LSN, data); err != nil {
			return nil, err
		}
	}
	r.leaderLSN.Store(req.LeaderLSN)
	r.lastShipMs.Store(r.now().UnixMilli())
	return &ReplShipResponse{AppliedLSN: r.cas.Engine.AppliedLSN(), Term: req.Term}, nil
}

// handleJoin registers (or refreshes) a follower on the leader. The
// follower's reported applied LSN is authoritative — it comes from the
// follower's own durable log, so a follower restart rewinds the resume
// point exactly to what survived.
func (r *Replicator) handleJoin(ctx context.Context, req *ReplJoinRequest) (*ReplJoinResponse, error) {
	r.mu.Lock()
	if !r.leading {
		leader := r.leader
		r.mu.Unlock()
		return nil, &wire.Fault{
			Code:    wire.FaultNotLeader,
			Message: "core: repl: join addressed to a non-leader",
			Leader:  leader,
		}
	}
	f := r.followers[req.Addr]
	if f == nil {
		f = &replFollower{addr: req.Addr, caller: r.newCaller(req.Addr)}
		r.followers[req.Addr] = f
	}
	term := r.term
	r.mu.Unlock()
	f.mu.Lock()
	f.acked = req.AppliedLSN
	f.ackedAt = r.now()
	f.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
	return &ReplJoinResponse{Term: term, Leader: r.cfg.Self, DurableLSN: r.cas.Engine.DurableLSN()}, nil
}

// ---------------------------------------------------------------------
// Stats.

// ReplStats snapshots one node's replication state: role, term, lag and
// traffic counters, plus the engine-level apply/ship counters.
type ReplStats struct {
	// Role is "leader" or "follower".
	Role string
	// Term is the newest lease term this node has seen.
	Term uint64
	// Leader is the known leader endpoint ("" = unknown).
	Leader string
	// Followers is the leader's registered-follower count.
	Followers int
	// ShipCalls / ShipBatches / ShipErrors count leader-side shipping.
	ShipCalls   uint64
	ShipBatches uint64
	ShipErrors  uint64
	// Fenced counts StaleTerm rejections (issued or received).
	Fenced uint64
	// Promotions / Demotions count role transitions on this node.
	Promotions uint64
	Demotions  uint64
	// LagLSN is how far behind replication is: on a leader, its durable
	// LSN minus the slowest follower's ack; on a follower, the leader's
	// advertised durable LSN minus the local applied LSN.
	LagLSN uint64
	// LagMs is the age of that lag: time since the slowest follower's
	// last ack (leader) or since the last accepted ship (follower).
	// Zero when fully caught up.
	LagMs int64
	// Engine carries the storage-level replication counters.
	Engine sqldb.ReplStats
}

// Stats snapshots the replicator.
func (r *Replicator) Stats() ReplStats {
	s := ReplStats{
		ShipCalls:   r.shipCalls.Load(),
		ShipBatches: r.shipBatches.Load(),
		ShipErrors:  r.shipErrors.Load(),
		Fenced:      r.fenced.Load(),
		Promotions:  r.promotions.Load(),
		Demotions:   r.demotions.Load(),
		Engine:      r.cas.Engine.ReplStats(),
	}
	now := r.now()
	r.mu.Lock()
	s.Term = r.term
	s.Leader = r.leader
	s.Followers = len(r.followers)
	if r.leading {
		s.Role = "leader"
		durable := r.cas.Engine.DurableLSN()
		for _, f := range r.followers {
			f.mu.Lock()
			acked, ackedAt := f.acked, f.ackedAt
			f.mu.Unlock()
			if acked < durable {
				if lag := durable - acked; lag > s.LagLSN {
					s.LagLSN = lag
				}
				if !ackedAt.IsZero() {
					if ms := now.Sub(ackedAt).Milliseconds(); ms > s.LagMs {
						s.LagMs = ms
					}
				}
			}
		}
	} else {
		s.Role = "follower"
		applied := r.cas.Engine.AppliedLSN()
		if ll := r.leaderLSN.Load(); ll > applied {
			s.LagLSN = ll - applied
			if last := r.lastShipMs.Load(); last > 0 {
				s.LagMs = now.UnixMilli() - last
			}
		}
	}
	r.mu.Unlock()
	return s
}
