package core

import (
	"context"
	"database/sql"
	"net/http"
	"sync"
	"time"

	"condorj2/internal/sqldb"
	"condorj2/internal/vtime"
	"condorj2/internal/wire"
)

// CAS assembles the CondorJ2 Application Server: the embedded database
// engine, the application logic layer on the engine's own transactions,
// the two external interfaces (web services mux and web site), and a
// pooled database/sql handle for readers at the edge. Figure 3's
// architecture in one value.
type CAS struct {
	// Engine is the embedded database (the DB2 stand-in).
	Engine *sqldb.DB
	// Pool is a connection-pooled database/sql handle on Engine, for tests,
	// tools and the benchmark to read the CAS through. Nothing the CAS does
	// itself goes through it.
	Pool *sql.DB
	// Service is the application logic layer.
	Service *Service
	// Mux is the web services endpoint.
	Mux *wire.Mux

	clock  vtime.Clock
	ownEng bool
	// tick is the housekeeping period: schedule_interval_sec as assembly
	// loaded it. The ticker runs at it, and the sweep's cadence and a
	// lease's three-tick floor are counted in it, so all three agree; a
	// changed key takes effect at the next start.
	tick time.Duration
	// repl, once NewReplicator attached one (before the tick starts), is
	// the tick's first step.
	repl *Replicator

	// schedCancel (nil while stopped) stops the housekeeping goroutine and
	// cancels its tick in flight, so shutdown never waits out a long
	// matchmaking transaction; schedDone closes when the goroutine has
	// exited. schedMu guards both.
	schedMu     sync.Mutex
	schedCancel context.CancelFunc
	schedDone   chan struct{}
}

// Options configures CAS assembly.
type Options struct {
	// Engine supplies a pre-built database engine (e.g. WAL-backed);
	// nil creates a fresh in-memory engine.
	Engine *sqldb.DB
	// Clock drives timestamps and NOW(); nil means wall-clock time.
	Clock vtime.Clock
	// PoolSize caps Pool's open connections; 0 means 8. It sizes only that
	// edge handle: the service layer runs on the engine's own transactions,
	// whose concurrency the web services' admission gate bounds.
	PoolSize int
	// Follower skips schema bootstrap: a replication follower's schema
	// and configuration arrive through shipped WAL groups (the leader's
	// bootstrap DDL replays as ordinary DDL records), so creating tables
	// locally would fork the follower's log from the leader's.
	Follower bool
}

// New assembles a CAS.
func New(opts Options) (*CAS, error) {
	engine := opts.Engine
	own := false
	if engine == nil {
		engine = sqldb.New()
		own = true
	}
	clock := opts.Clock
	if clock == nil {
		clock = vtime.Real{}
	}
	engine.SetNow(clock.Now)
	if !opts.Follower {
		if err := Bootstrap(engine); err != nil {
			return nil, err
		}
	}
	pool := sql.OpenDB(engine.Connector())
	size := opts.PoolSize
	if size <= 0 {
		size = 8
	}
	pool.SetMaxOpenConns(size)
	pool.SetMaxIdleConns(size)
	svc := NewService(engine, clock)
	return &CAS{
		Engine:  engine,
		Pool:    pool,
		Service: svc,
		Mux:     NewMux(svc),
		clock:   clock,
		ownEng:  own,
		tick:    svc.conf.Load().tick,
	}, nil
}

// SetAdmission installs overload protection on the web services endpoint:
// a bounded in-flight gate with typed Overloaded faults, installed with
// its shed classifier, HeartbeatSheddable, which drops stale delta-free
// heartbeats — the one request class whose loss costs nothing (the next
// heartbeat re-reports the same state).
func (c *CAS) SetAdmission(cfg wire.AdmissionConfig) {
	c.Mux.SetAdmission(cfg, HeartbeatSheddable)
}

// AdmissionStats snapshots the web services gate's counters (zeros when
// no gate is installed).
func (c *CAS) AdmissionStats() wire.AdmissionStats { return c.Mux.AdmissionStats() }

// StartScheduler launches the CAS's one periodic goroutine: a ticker of
// the housekeeping period (c.tick) whose every tick runs housekeep (live
// deployments; simulations drive ScheduleCycle from virtual time instead).
// Stop with StopScheduler.
func (c *CAS) StartScheduler() {
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	if c.schedCancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	c.schedCancel, c.schedDone = cancel, done
	go func() {
		defer close(done)
		t := time.NewTicker(c.tick)
		defer t.Stop()
		for n := 1; ; n++ {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.housekeep(ctx, n)
			}
		}
	}()
}

// Tick cadences of the housekeeping steps that do not follow a config key.
const (
	replyGCTicks    = 60
	checkpointTicks = 30
	// reapAfterBeats is how many heartbeat intervals a machine's stamp may
	// age before its work is released. A beat rewrites the stamp once an
	// interval (Machine.Beat), so that is more than two and at most three
	// intervals of silence.
	reapAfterBeats = 3
)

// housekeep is tick n (from 1) of the CAS's periodic work, six steps:
//
//   - every tick first, replication when a Replicator is attached
//     (Replicator.step: a leader renews its lease, a follower joins and
//     watches it), so a leader it deposes is gated before the rest;
//   - every tick, the settings load (loadSettings), the tick's one read
//     of the config table, whose values the steps after it follow;
//   - every tick, one matchmaking cycle;
//   - once per heartbeat_interval_sec, counted in ticks of c.tick, the
//     dead-machine sweep — the paper's footnote 5: a node that stops
//     reporting has its matched and running jobs returned to the queue
//     (timeout: reapAfterBeats intervals);
//   - every replyGCTicks, age out idempotency replies no client will retry
//     anymore;
//   - every checkpointTicks, a checkpoint: on a paged engine the WAL is
//     truncated while the daemon runs and a crash replays only a tail; on
//     any other engine Checkpoint does nothing.
//
// The load, the cycle, the sweep and the reply GC are skipped while this
// node is gated NotLeader (a follower's settings stay what assembly loaded
// until it promotes); the checkpoint is about this node's own files and
// runs on a follower or a demoted leader too. Errors are dropped: every
// step is retried by a later tick, and the engine counts failed
// checkpoints (BufferPoolStats).
func (c *CAS) housekeep(ctx context.Context, n int) {
	if c.repl != nil {
		c.repl.step(ctx)
	}
	svc := c.Service
	if _, gated := svc.NotLeader(); !gated {
		svc.loadSettings(ctx)
		set := svc.conf.Load()
		_, _ = svc.ScheduleCycle(ctx)
		if every := max(1, set.beatWindow/c.tick); n%int(every) == 0 {
			_, _ = svc.ReapDeadMachines(ctx, reapAfterBeats*set.beatWindow)
		}
		if n%replyGCTicks == 0 {
			_, _ = svc.GCReplies(ctx, set.replyRetention)
		}
	}
	if n%checkpointTicks == 0 {
		_ = c.Engine.Checkpoint()
	}
}

// StopScheduler halts the housekeeping goroutine, cancelling any tick in
// flight, and returns once it has exited.
func (c *CAS) StopScheduler() {
	c.schedMu.Lock()
	cancel, done := c.schedCancel, c.schedDone
	c.schedCancel = nil
	c.schedMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// HTTPHandler serves both external interfaces: the web services endpoint
// under /services and the pool web site under /.
func (c *CAS) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/services", c.Mux)
	mux.Handle("/", NewWebsite(c.Service))
	return mux
}

// Close severs the web services' framed connections (an http.Server does
// not track them, so nothing else would), stops the housekeeping
// goroutine and releases the edge pool (and the engine when the CAS
// created it).
func (c *CAS) Close() error {
	c.Mux.Close()
	c.StopScheduler()
	err := c.Pool.Close()
	if c.ownEng {
		if cerr := c.Engine.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
