package core

import (
	"context"
	"database/sql"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"condorj2/internal/sqldb"
	"condorj2/internal/vtime"
	"condorj2/internal/wire"
)

// CAS assembles the CondorJ2 Application Server: the embedded database
// engine, the pooled database/sql handle, the application logic layer,
// and the two external interfaces (web services mux and web site).
// Figure 3's architecture in one value.
type CAS struct {
	// Engine is the embedded database (the DB2 stand-in).
	Engine *sqldb.DB
	// Pool is the connection-pooled handle the beans layer uses.
	Pool *sql.DB
	// Service is the application logic layer.
	Service *Service
	// Mux is the web services endpoint.
	Mux *wire.Mux

	clock   vtime.Clock
	dsn     string
	ownEng  bool
	stopSch chan struct{}
	schedOn atomic.Bool

	// schedCtx cancels the scheduler's in-flight cycle on StopScheduler,
	// so shutdown never waits out a long matchmaking transaction.
	schedCancel context.CancelFunc
}

// Options configures CAS assembly.
type Options struct {
	// Engine supplies a pre-built database engine (e.g. WAL-backed);
	// nil creates a fresh in-memory engine.
	Engine *sqldb.DB
	// Clock drives timestamps and NOW(); nil means wall-clock time.
	Clock vtime.Clock
	// PoolSize caps open connections (the J2EE container's pool size);
	// 0 means 8, matching a small application-server default.
	PoolSize int
	// Follower skips schema bootstrap: a replication follower's schema
	// and configuration arrive through shipped WAL groups (the leader's
	// bootstrap DDL replays as ordinary DDL records), so creating tables
	// locally would fork the follower's log from the leader's.
	Follower bool
}

var casSeq atomic.Int64

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
	dsn := fmt.Sprintf("cas-%d", casSeq.Add(1))
	sqldb.Serve(dsn, engine)
	pool, err := sql.Open(sqldb.DriverName, dsn)
	if err != nil {
		sqldb.Unserve(dsn)
		return nil, err
	}
	size := opts.PoolSize
	if size <= 0 {
		size = 8
	}
	pool.SetMaxOpenConns(size)
	pool.SetMaxIdleConns(size)
	if !opts.Follower {
		if err := Bootstrap(pool); err != nil {
			pool.Close()
			sqldb.Unserve(dsn)
			return nil, err
		}
	}
	svc := NewService(pool, clock)
	c := &CAS{
		Engine:  engine,
		Pool:    pool,
		Service: svc,
		Mux:     NewMux(svc),
		clock:   clock,
		dsn:     dsn,
		ownEng:  own,
	}
	// Engine timeout knobs follow the config table: applied at assembly
	// from any persisted values, and re-applied live on every ConfigSet.
	svc.SetConfigHook(c.applyEngineConfig)
	for _, name := range []string{ConfigStmtTimeoutMs, ConfigLockTimeoutMs} {
		if resp, err := svc.ConfigGet(context.Background(), &ConfigGetRequest{Name: name}); err == nil {
			c.applyEngineConfig(name, resp.Value)
		}
	}
	return c, nil
}

// SetAdmission installs overload protection on the web services endpoint:
// a bounded in-flight gate with typed Overloaded faults, plus a shed
// classifier that drops stale delta-free heartbeats first — the one
// request class whose loss costs nothing (the next heartbeat re-reports
// the same state).
func (c *CAS) SetAdmission(cfg wire.AdmissionConfig) {
	c.Mux.SetAdmission(cfg)
	c.Mux.SetSheddable(ActionHeartbeat, HeartbeatSheddable)
}

// AdmissionStats snapshots the web services gate's counters (zeros when
// no gate is installed).
func (c *CAS) AdmissionStats() wire.AdmissionStats { return c.Mux.AdmissionStats() }

// Config keys the CAS applies to the embedded engine at assembly and on
// live ConfigSet calls.
const (
	// ConfigStmtTimeoutMs is the default per-statement deadline in
	// milliseconds (0 disables).
	ConfigStmtTimeoutMs = "stmt_timeout_ms"
	// ConfigLockTimeoutMs is the lock-wait timeout in milliseconds
	// (0 = wait forever).
	ConfigLockTimeoutMs = "lock_timeout_ms"
)

// applyEngineConfig maps config-table entries onto live engine knobs.
func (c *CAS) applyEngineConfig(name, value string) {
	ms, err := strconv.ParseInt(value, 10, 64)
	if err != nil || ms < 0 {
		return
	}
	switch name {
	case ConfigStmtTimeoutMs:
		c.Engine.SetStmtTimeout(time.Duration(ms) * time.Millisecond)
	case ConfigLockTimeoutMs:
		c.Engine.SetLockTimeout(time.Duration(ms) * time.Millisecond)
	}
}

// StartScheduler launches the periodic matchmaking cycle on a goroutine
// (live deployments; simulations drive ScheduleCycle from virtual time
// instead). Stop with StopScheduler.
func (c *CAS) StartScheduler() {
	if !c.schedOn.CompareAndSwap(false, true) {
		return
	}
	c.stopSch = make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	c.schedCancel = cancel
	interval := time.Duration(c.Service.configInt(ctx, "schedule_interval_sec", 1)) * time.Second
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		ticks := 0
		for {
			select {
			case <-c.stopSch:
				return
			case <-t.C:
				c.Service.ScheduleCycle(ctx)
				// Piggyback housekeeping on the scheduler's cadence: about
				// once a minute, age out idempotency replies no client will
				// retry anymore.
				if ticks++; ticks%60 == 0 {
					retention := time.Duration(c.Service.configInt(ctx, "reply_retention_sec", 3600)) * time.Second
					c.Service.GCReplies(ctx, retention)
				}
			}
		}
	}()
}

// StopScheduler halts the scheduling goroutine, cancelling any cycle in
// flight.
func (c *CAS) StopScheduler() {
	if c.schedOn.CompareAndSwap(true, false) {
		close(c.stopSch)
		if c.schedCancel != nil {
			c.schedCancel()
		}
	}
}

// LockStats snapshots the embedded engine's lock-contention counters
// (waits, deadlocks, held table/row locks) for operators and experiments.
func (c *CAS) LockStats() sqldb.LockStats { return c.Engine.LockStats() }

// VersionStats snapshots the embedded engine's MVCC counters (snapshot
// reads served lock-free, version churn, GC backlog) for operators and
// experiments.
func (c *CAS) VersionStats() sqldb.VersionStats { return c.Engine.VersionStats() }

// PlannerStats snapshots the embedded engine's join-planner counters
// (strategy picks, statistics-driven reorders, hash build volumes) for
// operators and experiments.
func (c *CAS) PlannerStats() sqldb.PlannerStats { return c.Engine.PlannerStats() }

// ExecStats snapshots the embedded engine's batched-executor counters
// (aggregated statements, keyed fast-path hits, input rows, groups,
// output batches) for operators and experiments.
func (c *CAS) ExecStats() sqldb.ExecStats { return c.Engine.ExecStats() }

// PlanCacheStats snapshots the embedded engine's plan-cache counters
// (hits, misses, epoch invalidations, snapshot bypasses, stores) for
// operators and experiments.
func (c *CAS) PlanCacheStats() sqldb.PlanCacheStats { return c.Engine.PlanCacheStats() }

// Analyze refreshes the engine's cardinality statistics (the SQL ANALYZE
// statement) so the join planner costs the CAS's status queries from
// current data. Operators run it after bulk loads; the scheduler does not
// depend on it — estimates scale incrementally with row counts between
// refreshes.
func (c *CAS) Analyze() error {
	_, err := c.Engine.Exec(`ANALYZE`)
	return err
}

// CancelStats snapshots the embedded engine's cancellation counters
// (statements cancelled, deadlines exceeded, lock-wait timeouts, commit
// retractions) for operators and experiments; condorj2d logs them at
// shutdown alongside WAL stats.
func (c *CAS) CancelStats() sqldb.CancelStats { return c.Engine.CancelStats() }

// WALStats snapshots the embedded engine's commit-pipeline counters
// (commits, fsyncs, group sizes, commit wait) for operators and
// experiments; zeros when the engine runs without a WAL.
func (c *CAS) WALStats() sqldb.WALStats { return c.Engine.WALStats() }

// BufferPoolStats snapshots the embedded engine's paged-storage counters
// (buffer-pool traffic, pager I/O, checkpoint progress) for operators and
// experiments; zeros when the engine runs without paged storage.
func (c *CAS) BufferPoolStats() sqldb.BufferPoolStats { return c.Engine.BufferPoolStats() }

// HTTPHandler serves both external interfaces: the web services endpoint
// under /services and the pool web site under /.
func (c *CAS) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/services", c.Mux)
	mux.Handle("/", NewWebsite(c.Service))
	return mux
}

// Close releases the pool and DSN registration (and the engine when the
// CAS created it).
func (c *CAS) Close() error {
	c.StopScheduler()
	err := c.Pool.Close()
	sqldb.Unserve(c.dsn)
	if c.ownEng {
		if cerr := c.Engine.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
