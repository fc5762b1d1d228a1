package core

// WAL-shipping replication and lease-based failover. The paper's thesis —
// cluster state is just data in a DBMS — extends naturally to
// availability: the CAS's failover story is a database failover story.
// A leader streams its committed WAL groups to followers — sqldb's
// ReplicationTap signals each durable commit, and CommittedSince cuts the
// groups above a follower's acked LSN out of the log file itself, read
// from an indexed offset, with no copy of the log kept in memory. A ship
// carries that run as it lies in the file; each follower checks it with
// the log's own reader, appends it to its own log and applies it through
// its own MVCC commit clock, and every read-only service (pool status,
// queue listings, accounting, the web site) works on the follower from a
// transactionally consistent replicated snapshot.
//
// Failure detection is lease-based and rides the replication stream
// itself: the leader transactionally renews a single repl_lease row on
// every housekeeping tick, the renewal ships like any other write, and a
// follower promotes itself when its local copy of the row goes stale for
// longer than the TTL, and the leader has either gone silent or been
// caught up with (mayPromote). Split brain is prevented by term fencing: a
// promotion bumps the lease term, and every repl.Ship carries the sender's
// term — a deposed leader's ship is answered with a StaleTerm fault and
// the sender demotes itself to read-only.
//
// A ship is one call, not retried in place: a failed one is cut again
// from the follower's acked LSN on the shipper's next wakeup (a commit, a
// join or the tick), and the follower's apply is idempotent by LSN, so a
// lossy or duplicating link between the nodes can at worst delay
// replication, never corrupt it.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// ReplConfig tunes a Replicator. Dial and Self are required. The cadence
// is the CAS's housekeeping tick.
type ReplConfig struct {
	// Self is this node's dialable endpoint, advertised to peers (the
	// Leader field of NotLeader faults, the Addr of join requests).
	Self string
	// LeaseTTL is how stale the replicated lease row may go before a
	// follower promotes itself (0 = 3s); at least three tick periods.
	LeaseTTL time.Duration
	// Dial returns a Caller for a peer's endpoint. Tests inject loopback
	// transports; condorj2d dials wire.Client over HTTP.
	Dial func(addr string) wire.Caller
}

func (c *ReplConfig) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 3 * time.Second
}

const (
	// replCallTimeout bounds one replication RPC.
	replCallTimeout = 2 * time.Second
	// replMaxShipBytes caps the log bytes of one repl.Ship.
	replMaxShipBytes = 1 << 20
)

// replFollower is the leader's view of one follower.
type replFollower struct {
	addr   string
	caller wire.Caller

	mu      sync.Mutex
	acked   uint64    // follower's durable applied LSN, from join/ship acks
	ackedAt time.Time // the last join or ack
}

// replRole is what a node's tick does for replication. A parked node — not
// yet started, or a demoted leader whose log may have diverged from the new
// timeline — neither ships, follows nor promotes.
type replRole uint8

const (
	roleParked replRole = iota
	roleFollower
	roleLeader
)

func (r replRole) String() string { return [...]string{"parked", "follower", "leader"}[r] }

// Replicator runs one node's half of the replication protocol: a step of
// the housekeeping tick in every role, the shipper goroutine while
// leading, and the promotion/demotion transitions between the roles.
type Replicator struct {
	cas *CAS
	cfg ReplConfig

	// applyMu serializes shipped-run apply against promotion: a
	// promotion waits out any in-flight apply, and every apply re-checks
	// the term after acquiring it, so no old-leader run lands after the
	// node has claimed a new term.
	applyMu sync.Mutex

	mu        sync.Mutex
	role      replRole
	term      uint64
	leader    string // current known leader endpoint ("" = unknown)
	followers map[string]*replFollower
	stopShip  func() // cancels the running shipper, closes its tap; nil when none runs
	closed    bool

	wg   sync.WaitGroup
	kick chan struct{} // wakes the shipper (a join, the tick)

	// Follower-side promotion inputs, under mu: heard is the later of
	// StartFollower and the last answered join or accepted ship, and
	// answered whether any came since StartFollower.
	heard    time.Time
	answered bool

	// Follower-side lag inputs: the leader's durable horizon and the
	// local clock at the last accepted ship.
	leaderLSN  atomic.Uint64
	lastShipMs atomic.Int64

	shipCalls     atomic.Uint64
	shipBytes     atomic.Uint64
	shipErrors    atomic.Uint64
	shipTruncated atomic.Uint64
	fenced        atomic.Uint64
	promotions    atomic.Uint64
	demotions     atomic.Uint64
}

// NewReplicator attaches replication to a CAS: registers the repl.Ship /
// repl.Join handlers on its mux and makes the replicator the first step of
// the CAS's housekeeping tick. It is parked until StartLeader or
// StartFollower gives it a role. A lease shorter than three tick periods is
// refused: a follower must not promote past a renewal one slow tick delayed.
func NewReplicator(cas *CAS, cfg ReplConfig) (*Replicator, error) {
	if ttl, tick := cfg.leaseTTL(), cas.tick; ttl < 3*tick {
		return nil, fmt.Errorf("core: repl: lease TTL %s is shorter than three housekeeping ticks of %s (schedule_interval_sec)", ttl, tick)
	}
	r := &Replicator{
		cas:       cas,
		cfg:       cfg,
		followers: make(map[string]*replFollower),
		kick:      make(chan struct{}, 1),
	}
	cas.Mux.Handle(ActionReplShip, wire.Typed(r.handleShip))
	cas.Mux.Handle(ActionReplJoin, wire.Typed(r.handleJoin))
	cas.repl = r
	return r, nil
}

func (r *Replicator) now() time.Time { return r.cas.clock.Now() }

// leadLocked makes this node the leader at term: the role, the open write
// gate and a running shipper together. The shipper's tap is the role's,
// open exactly while it lasts, so a checkpoint keeps the log's recent tail
// for followers only while this node leads. Without a WAL the node leads
// with nothing to ship. Callers hold r.mu.
func (r *Replicator) leadLocked(term uint64) {
	r.stopShipperLocked()
	r.role, r.term, r.leader = roleLeader, term, r.cfg.Self
	r.cas.Service.ClearNotLeader()
	tap, err := r.cas.Engine.ReplicationTap()
	if err != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.stopShip = func() { cancel(); tap.Close() }
	r.wg.Add(1)
	go r.ship(ctx, tap)
}

// gateLocked gives this node a role that does not lead — follower or
// parked — with its write gate redirecting to leader, and stops the
// shipper if one runs. Callers hold r.mu.
func (r *Replicator) gateLocked(role replRole, leader string) {
	r.stopShipperLocked()
	r.role, r.leader = role, leader
	r.cas.Service.SetNotLeader(leader)
}

func (r *Replicator) stopShipperLocked() {
	if r.stopShip != nil {
		r.stopShip()
		r.stopShip = nil
	}
}

// StartLeader claims leadership: bump the lease term past anything in
// this node's own database, write the lease row, open the write path and
// start the shipper. The caller is responsible for the rest of leader
// assembly (recovery, the tick) — condorj2d's normal boot path.
func (r *Replicator) StartLeader(ctx context.Context) error {
	lease, _ := r.readLease(ctx)
	term := lease.term + 1
	if err := r.writeLease(ctx, term); err != nil {
		return fmt.Errorf("core: repl: claim lease: %w", err)
	}
	r.mu.Lock()
	r.leadLocked(max(r.term, term))
	r.mu.Unlock()
	return nil
}

// StartFollower enters read-only follower mode against leaderAddr: gate
// the mutating web services; from the next tick on, this node joins the
// leader and watches the replicated lease for expiry.
func (r *Replicator) StartFollower(leaderAddr string) {
	r.mu.Lock()
	r.gateLocked(roleFollower, leaderAddr)
	r.heard, r.answered = r.now(), false
	r.mu.Unlock()
}

// Close stops the shipper and waits it out. The node keeps serving
// whatever its write gate allows; Close does not demote or promote.
func (r *Replicator) Close() {
	r.mu.Lock()
	r.closed = true
	r.stopShipperLocked()
	r.mu.Unlock()
	r.wg.Wait()
}

// ---------------------------------------------------------------------
// Lease row access. The lease is ordinary replicated data: written by
// autocommit statements on the engine, logged to the WAL, shipped to
// followers. nowMs comes from the service clock so virtual-time tests
// and production agree on staleness.

type replLease struct {
	term      uint64
	holder    string
	renewedMs int64
	ttlMs     int64
}

func (r *Replicator) readLease(ctx context.Context) (replLease, bool) {
	row, err := r.cas.Engine.QueryRowContext(ctx,
		`SELECT term, holder, renewed_at_ms, ttl_ms FROM repl_lease WHERE id = 1`)
	if err != nil || row == nil {
		// No row, or (on a fresh follower) no table yet: no lease known.
		return replLease{}, false
	}
	return replLease{term: uint64(row[0].Int64()), holder: row[1].Text(), renewedMs: row[2].Int64(), ttlMs: row[3].Int64()}, true
}

// writeLease installs this node as lease holder at term (claim or
// promotion — unconditional overwrite).
func (r *Replicator) writeLease(ctx context.Context, term uint64) error {
	nowMs := r.now().UnixMilli()
	ttlMs := r.cfg.leaseTTL().Milliseconds()
	res, err := r.cas.Engine.ExecContext(ctx,
		`UPDATE repl_lease SET term = ?, holder = ?, renewed_at_ms = ?, ttl_ms = ? WHERE id = 1`,
		int64(term), r.cfg.Self, nowMs, ttlMs)
	if err != nil {
		return err
	}
	if res.RowsAffected == 0 {
		_, err = r.cas.Engine.ExecContext(ctx,
			`INSERT INTO repl_lease (id, term, holder, renewed_at_ms, ttl_ms) VALUES (1, ?, ?, ?, ?)`,
			int64(term), r.cfg.Self, nowMs, ttlMs)
	}
	return err
}

// renewLease refreshes the lease timestamp, but only while this node
// still holds it at its own term — losing that condition means the node
// was deposed and must demote.
func (r *Replicator) renewLease(ctx context.Context, term uint64) (bool, error) {
	res, err := r.cas.Engine.ExecContext(ctx,
		`UPDATE repl_lease SET renewed_at_ms = ? WHERE id = 1 AND term = ? AND holder = ?`,
		r.now().UnixMilli(), int64(term), r.cfg.Self)
	return res.RowsAffected == 1, err
}

// ---------------------------------------------------------------------
// The tick's step.

// step is replication's part of the housekeeping tick, and its first
// step, so a leader this renewal finds deposed is gated before the tick's
// leader-only steps run. A leader renews its lease (demoting when another
// term holds it), forgets followers silent for a lease TTL, and kicks the
// shipper, which retries whatever a failed ship left behind. A follower
// joins its leader and promotes when mayPromote allows. A parked node does
// nothing.
func (r *Replicator) step(ctx context.Context) {
	r.mu.Lock()
	role, term := r.role, r.term
	r.mu.Unlock()
	switch role {
	case roleLeader:
		// An engine error is let go: the TTL absorbs a few missed renewals.
		if ok, err := r.renewLease(ctx, term); err == nil && !ok {
			r.Demote("")
			return
		}
		r.forgetSilentFollowers()
		r.wake()
	case roleFollower:
		r.joinLeader(ctx)
		if r.mayPromote(ctx) {
			_ = r.Promote(ctx) // a failed promotion is retried by the next tick
		}
	}
}

// forgetSilentFollowers drops the followers that have neither joined nor
// acked for a lease TTL, so a partitioned one stops costing every ship
// its call timeout and stops pinning the lag. A live follower joins every
// tick; a forgotten one re-registers at its applied LSN on its next join.
func (r *Replicator) forgetSilentFollowers() {
	cutoff := r.now().Add(-r.cfg.leaseTTL())
	r.mu.Lock()
	defer r.mu.Unlock()
	for addr, f := range r.followers {
		f.mu.Lock()
		silent := f.ackedAt.Before(cutoff)
		f.mu.Unlock()
		if silent {
			delete(r.followers, addr)
		}
	}
}

// wake nudges the shipper; a wakeup already pending covers this one.
func (r *Replicator) wake() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------
// The shipper.

// ship is the leader's one replication goroutine, from taking the lead to
// demotion or Close. Woken by a commit (the tap), a join or the tick, it
// drains the committed log to every follower.
func (r *Replicator) ship(ctx context.Context, tap *sqldb.ReplicationTap) {
	defer r.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tap.Notify():
		case <-r.kick:
		}
		r.mu.Lock()
		fs := slices.Collect(maps.Values(r.followers))
		r.mu.Unlock()
		for _, f := range fs {
			r.shipTo(ctx, f)
		}
	}
}

// shipTo drains committed groups to one follower, a run per call, until
// it is caught up, an RPC fails or an ack does not advance (a peer that
// applied nothing, as one of another build would); the next wakeup
// retries from the acked LSN.
func (r *Replicator) shipTo(ctx context.Context, f *replFollower) {
	for ctx.Err() == nil {
		f.mu.Lock()
		acked := f.acked
		f.mu.Unlock()
		run, durable, err := r.cas.Engine.CommittedSince(acked, replMaxShipBytes)
		if errors.Is(err, sqldb.ErrLogTruncated) {
			// A follower further behind than the log reaches — the last
			// checkpoint, or the recent tail a shipping leader keeps across
			// it — is not shipped a log with a hole.
			r.shipTruncated.Add(1)
			return
		}
		if err != nil {
			r.shipErrors.Add(1)
			return
		}
		if len(run) == 0 {
			return
		}
		r.mu.Lock()
		term := r.term // a demotion since has cancelled ctx, and with it the call
		r.mu.Unlock()
		req := &ReplShipRequest{Term: term, Leader: r.cfg.Self, LeaderLSN: durable, Log: run}
		var resp ReplShipResponse
		cctx, cancel := context.WithTimeout(ctx, replCallTimeout)
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
		r.shipBytes.Add(uint64(len(run)))
		f.mu.Lock()
		advanced := resp.AppliedLSN > f.acked
		if advanced {
			f.acked = resp.AppliedLSN
		}
		f.ackedAt = r.now()
		done := f.acked >= durable || !advanced
		f.mu.Unlock()
		if done {
			return
		}
	}
}

// ---------------------------------------------------------------------
// Following: every tick, join the leader (announcing our durable applied
// LSN — the resume point), and watch the replicated lease row; when it
// goes stale past its TTL the leader is presumed dead and this node
// promotes.

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
	cctx, cancel := context.WithTimeout(ctx, replCallTimeout)
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
	r.leaderLSN.Store(resp.DurableLSN)
	r.mu.Lock()
	if resp.Term > r.term {
		r.term = resp.Term
	}
	if resp.Leader != "" {
		r.leader = resp.Leader
	}
	r.heard, r.answered = r.now(), true
	r.mu.Unlock()
}

// mayPromote reports whether this follower should depose its leader: its
// copy of the lease is stale, and the staleness is the leader's, not this
// node's lag (a follower back from a long absence, or one behind the
// leader's truncated log) — no join or ship answered for a TTL since
// StartFollower, or one answered since and everything the leader last
// advertised as durable applied. AppliedLSN is read before the lease.
func (r *Replicator) mayPromote(ctx context.Context) bool {
	applied := r.cas.Engine.AppliedLSN()
	if !r.leaseExpired(ctx) {
		return false
	}
	r.mu.Lock()
	heard, answered := r.heard, r.answered
	r.mu.Unlock()
	silent := r.now().Sub(heard) > r.cfg.leaseTTL()
	return silent || (answered && applied >= r.leaderLSN.Load())
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
// replicated heap, load the settings (the engine timeouts among them) the
// replicated config table names, claim the lease at a bumped term
// (fencing the old leader), reconcile in-flight cluster state exactly like a restart
// (the PR 7 heartbeat reconciliation then re-adopts or re-runs whatever
// the old leader had in the air), age out replicated dedup replies, and
// open the write path — under a tick that already runs.
func (r *Replicator) Promote(ctx context.Context) error {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	if r.role == roleLeader || r.closed {
		r.mu.Unlock()
		return nil
	}
	knownTerm := r.term
	r.mu.Unlock()

	r.cas.Engine.RebuildAfterReplication()
	svc := r.cas.Service
	svc.loadSettings(ctx)
	if lease, ok := r.readLease(ctx); ok && lease.term > knownTerm {
		knownTerm = lease.term
	}
	newTerm := knownTerm + 1
	if err := r.writeLease(ctx, newTerm); err != nil {
		return fmt.Errorf("core: repl: promote: claim lease: %w", err)
	}
	if _, err := svc.RecoverInFlight(ctx); err != nil {
		return fmt.Errorf("core: repl: promote: recover in-flight: %w", err)
	}
	// The dedup reply store replicated along with everything else; GC it
	// immediately so a long-lived follower doesn't start its leadership
	// with an unbounded backlog, then let the tick's cadence take over.
	if _, err := svc.GCReplies(ctx, svc.conf.Load().replyRetention); err != nil {
		return fmt.Errorf("core: repl: promote: gc replies: %w", err)
	}

	r.mu.Lock()
	r.promotions.Add(1) // with the role, under r.mu: Stats never shows a leader that was not promoted
	r.leadLocked(newTerm)
	r.mu.Unlock()
	return nil
}

// Demote parks a deposed leader read-only: stop the shipper and gate
// writes with a redirect to newLeader when known. The tick keeps running
// and, gated, only checkpoints. A deposed leader's log may have diverged
// from the new timeline (commits it acknowledged but never shipped), so
// it does NOT rejoin as a follower — re-seeding from the new leader is an
// operator action.
func (r *Replicator) Demote(newLeader string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != roleLeader {
		return
	}
	r.demotions.Add(1)
	r.gateLocked(roleParked, newLeader)
}

// ---------------------------------------------------------------------
// Handlers.

// handleShip applies a leader's run of committed groups. Term fencing
// first: an older term is answered StaleTerm (with our own address when
// we lead — the redirect doubles as leader discovery for the deposed
// sender). Apply is idempotent by LSN, making a re-sent or duplicated ship
// safe.
func (r *Replicator) handleShip(ctx context.Context, req *ReplShipRequest, resp *ReplShipResponse) error {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	term, leading := r.term, r.role == roleLeader
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
		return f
	}
	if leading && req.Term > term {
		// Deposed by a newer leader shipping at us. Our log may hold
		// commits the new timeline never saw; park rather than apply.
		r.Demote(req.Leader)
		return fmt.Errorf("core: repl: deposed by term %d; local log diverged, node requires re-seed", req.Term)
	}
	if req.Term > term {
		r.mu.Lock()
		if req.Term > r.term {
			r.term = req.Term
			r.leader = req.Leader
		}
		r.mu.Unlock()
	}
	// The ship is one run: checked whole before any of it is applied, then
	// appended with one sync and redone by the engine in one call, which
	// keeps none of it — the request is the exchange's, recycled after.
	if len(req.Log) == 0 {
		return fmt.Errorf("core: repl: ship at term %d carries no log", req.Term)
	}
	if err := r.cas.Engine.ApplyCommitted(req.Log); err != nil {
		return err
	}
	r.leaderLSN.Store(req.LeaderLSN)
	r.lastShipMs.Store(r.now().UnixMilli())
	r.mu.Lock()
	r.heard, r.answered = r.now(), true
	r.mu.Unlock()
	resp.AppliedLSN = r.cas.Engine.AppliedLSN()
	return nil
}

// handleJoin registers (or refreshes) a follower on the leader. The
// follower's reported applied LSN is authoritative — it comes from the
// follower's own durable log, so a follower restart rewinds the resume
// point exactly to what survived.
func (r *Replicator) handleJoin(ctx context.Context, req *ReplJoinRequest, resp *ReplJoinResponse) error {
	r.mu.Lock()
	if r.role != roleLeader {
		leader := r.leader
		r.mu.Unlock()
		return &wire.Fault{
			Code:    wire.FaultNotLeader,
			Message: "core: repl: join addressed to a non-leader",
			Leader:  leader,
		}
	}
	f := r.followers[req.Addr]
	if f == nil {
		f = &replFollower{addr: req.Addr, caller: r.cfg.Dial(req.Addr)}
		r.followers[req.Addr] = f
	}
	term := r.term
	r.mu.Unlock()
	f.mu.Lock()
	f.acked = req.AppliedLSN
	f.ackedAt = r.now()
	f.mu.Unlock()
	r.wake()
	*resp = ReplJoinResponse{Term: term, Leader: r.cfg.Self, DurableLSN: r.cas.Engine.DurableLSN()}
	return nil
}

// ---------------------------------------------------------------------
// Stats.

// ReplStats snapshots one node's replication state: role, term, lag and
// traffic counters, plus the engine-level apply/ship counters.
type ReplStats struct {
	// Role is "leader", "follower" or "parked" (a demoted leader, or a
	// node not yet started: it neither ships, follows nor promotes).
	Role string
	// Term is the newest lease term this node has seen.
	Term uint64
	// Leader is the known leader endpoint ("" = unknown).
	Leader string
	// Followers is the leader's registered-follower count: those that
	// joined or acked within a lease TTL.
	Followers int
	// ShipCalls / ShipBytes / ShipErrors count leader-side shipping: the
	// ships sent, the log bytes of the runs followers acked, and the ships
	// that failed.
	ShipCalls  uint64
	ShipBytes  uint64
	ShipErrors uint64
	// ShipTruncated counts the ships refused because the follower resumes
	// from below where this node's log now begins (ErrLogTruncated).
	ShipTruncated uint64
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
		ShipCalls:     r.shipCalls.Load(),
		ShipBytes:     r.shipBytes.Load(),
		ShipErrors:    r.shipErrors.Load(),
		ShipTruncated: r.shipTruncated.Load(),
		Fenced:        r.fenced.Load(),
		Promotions:    r.promotions.Load(),
		Demotions:     r.demotions.Load(),
		Engine:        r.cas.Engine.ReplStats(),
	}
	now := r.now()
	r.mu.Lock()
	s.Role = r.role.String()
	s.Term = r.term
	s.Leader = r.leader
	s.Followers = len(r.followers)
	if r.role == roleLeader {
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
