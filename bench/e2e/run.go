package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

const (
	setupReps    = 3 // set-ups per run; setup_s is their median
	recoveryReps = 3 // recoveries per traced run from the same crash image; an untraced run recovers once, for the gate
	cycleBlocks  = 50

	standingNodes = 8 // lifecycle: nodes running, and as many holding matches, all run long
)

// processStart anchors the first set-up at process start, so runtime
// initialisation is part of setup_s.
var processStart = time.Now()

// roundResult is one timed round.
type roundResult struct {
	Ops        int     `json:"ops"`
	WallS      float64 `json:"wall_s"`
	OpsPerS    float64 `json:"ops_per_s"`
	CPUUsPerOp float64 `json:"cpu_us_per_op"`
	WriteP50Ms float64 `json:"write_p50_ms"`
	ReadP50Ms  float64 `json:"read_p50_ms"`
	Traced     bool    `json:"traced,omitempty"`
}

// engineStats is every public counter the engine exposes, read together
// so a delta covers exactly the timed rounds.
type engineStats struct {
	wal   sqldb.WALStats
	lock  sqldb.LockStats
	ver   sqldb.VersionStats
	plan  sqldb.PlannerStats
	exec  sqldb.ExecStats
	cache sqldb.PlanCacheStats
	pool  sqldb.BufferPoolStats
	dev   deviceStats
	mem   runtime.MemStats
	cpu   time.Duration
}

func (r *run) snapshot() engineStats {
	e := r.fx.eng
	s := engineStats{
		wal: e.WALStats(), lock: e.LockStats(), ver: e.VersionStats(),
		plan: e.PlannerStats(), exec: e.ExecStats(), cache: e.PlanCacheStats(),
		pool: e.BufferPoolStats(), dev: r.fx.dev.stats(), cpu: cpuTime(),
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// run is one execution of one workload.
type run struct {
	sp      spec
	seed    int64
	seconds float64
	traced  bool
	tr      *tracer

	fx      *fixture
	clients [numClients]*client

	setups   []time.Duration
	rounds   []roundResult
	windows  []float64   // calls/s of one client over sp.Window consecutive calls, all rounds
	before   engineStats // at the first timed round
	after    engineStats // after the last
	timedOps int
	ackedAt0 int // completions acknowledged before the first timed round

	matched      int // matches made by harness-called ScheduleCycles
	cycles       []time.Duration
	cycleMatched []int
	checkpoints  []time.Duration
	blocks       int // mixed: client 0's blocks since the last cycle

	hook hookCounts // SetStatsHook totals, traced rounds only

	recoveries   []recovery
	admission    wire.AdmissionStats // at the end of the timed rounds
	heapLiveMB   float64             // heap in use after a forced GC, same moment
	dedupReplays uint64

	errMu sync.Mutex
	err   error // first harness-side failure (cycle, checkpoint)
}

// failf records a failure of something the harness itself called; it may
// come from any goroutine.
func (r *run) failf(format string, args ...any) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

type recovery struct{ total, open, newCAS, inflight time.Duration }

// hookCounts accumulates sqldb.StmtStats while a traced round runs.
type hookCounts struct {
	stmts, scanned, returned atomic.Int64
	ops                      int
}

// wireBytes meters envelope bytes in traced runs (wire.Local's OnCall, or
// the tracing RoundTripper over HTTP).
type wireBytes struct{ req, resp atomic.Int64 }

// fatal reports the first failure; clients' errors are only read at the
// barriers where their goroutines have stopped.
func (r *run) fatal() error {
	r.errMu.Lock()
	err := r.err
	r.errMu.Unlock()
	if err != nil {
		return err
	}
	for _, c := range r.clients {
		if c != nil && c.err != nil {
			return c.err
		}
	}
	return nil
}

// parallel runs fn once per client, each on its own goroutine, and waits
// for all of them: the barrier between a wave's phases.
func (r *run) parallel(fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// setUp builds a fresh fixture: open, bootstrap, register every node,
// preload the queue, run the warm-up round.
func (r *run) setUp(wb *wireBytes) error {
	fx, err := openFixture(&r.sp, sqldb.NewMemVFS(), r.tr)
	if err != nil {
		return err
	}
	r.fx = fx
	r.matched, r.blocks = 0, 0
	if r.sp.HTTP {
		var wrap func(http.Handler) http.Handler
		if r.traced {
			wrap = func(h http.Handler) http.Handler { return tracingHandler(r.tr, h) }
		}
		if err := fx.serveHTTP(wrap); err != nil {
			return err
		}
	}
	totalJobs := 0
	if r.sp.Kind == kindLifecycle {
		totalJobs = r.sp.warmupOps(r.seconds) + timedRounds*r.sp.roundOps(r.seconds)
	}
	ownerLocks := make(map[string]*sync.Mutex, numOwners)
	for i := 0; i < numOwners; i++ {
		ownerLocks[ownerName(i)] = new(sync.Mutex)
	}
	for id := range r.clients {
		r.clients[id] = newClient(id, &r.sp, r.caller(wb), r.tr,
			makePlan(r.sp, r.seed, id, totalJobs/numClients+maxBatchJobs), ownerLocks)
	}
	// Nodes register one at a time in index order, so VM ids interleave
	// the two clients' nodes and a ScheduleCycle's "lowest idle VM ids
	// first" spreads matches over both.
	for m := 0; m < r.sp.Machines; m++ {
		c := r.clients[m%numClients]
		c.register(c.nodes[m/numClients])
	}
	if err := r.fatal(); err != nil {
		return err
	}
	if err := r.preload(); err != nil {
		return err
	}
	if err := r.standingLoad(); err != nil {
		return err
	}
	r.round(r.sp.warmupOps(r.seconds))
	return r.fatal()
}

// standingLoad makes the lifecycle workloads' pool one that has been in
// use, not one that is empty between waves: every owner has completed a
// job before (so its users and accounting rows exist), the first
// standingNodes nodes run long jobs throughout, and the next
// standingNodes hold matches they never poll for.
//
// It is there because an empty pool is a different regime, not a lighter
// one: with runs and matches near empty the planner drives the
// heartbeat's joins from sequential scans of them, which take table
// locks, and concurrent completion beats then deadlock until the beans
// layer's retries run out (see bench/README.md). A pool in production is
// never empty, and a workload on which operations fail measures nothing.
func (r *run) standingLoad() error {
	if r.sp.Kind != kindLifecycle {
		return nil
	}
	ctx := context.Background()
	nodeAt := func(m int) (*client, *node) {
		c := r.clients[m%numClients]
		return c, c.nodes[m/numClients]
	}
	submit := func(n int, length int64) error {
		for i := 0; i < n; i++ {
			_, err := r.fx.cas.Service.Submit(ctx, &core.SubmitRequest{
				Owner: ownerName(i % numOwners), Count: 1, LengthSec: length,
			})
			if err != nil {
				return fmt.Errorf("standing load: %w", err)
			}
		}
		r.clients[0].submitted += n
		if got := r.schedule(); got != n {
			return fmt.Errorf("standing load: ScheduleCycle matched %d of %d jobs", got, n)
		}
		return nil
	}
	// One finished job per owner. ScheduleCycle hands out the lowest VM
	// ids first, which are the first-registered nodes'.
	if err := submit(numOwners, 60); err != nil {
		return err
	}
	for m := 0; m*r.sp.VMs < numOwners; m++ {
		c, n := nodeAt(m)
		c.pollAndAccept(n)
		c.completeAll(n)
	}
	// Long jobs on 2×standingNodes nodes: accepted on the first half,
	// left matched on the second.
	if err := submit(2*standingNodes*r.sp.VMs, 86400); err != nil {
		return err
	}
	for m := 0; m < 2*standingNodes; m++ {
		c, n := nodeAt(m)
		if m < standingNodes {
			n.pinned = true
			c.pollAndAccept(n)
		} else {
			n.silent = true
		}
	}
	return r.fatal()
}

// caller builds one client's transport: its own keep-alive HTTP
// connection to the loopback listener, or wire.Local straight into the
// CAS's mux.
func (r *run) caller(wb *wireBytes) wire.Caller {
	if !r.sp.HTTP {
		l := &wire.Local{Mux: r.fx.cas.Mux}
		if r.traced {
			l.OnCall = func(_ string, req, resp int) {
				wb.req.Add(int64(req))
				wb.resp.Add(int64(resp))
			}
		}
		return l
	}
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	if r.traced {
		rt = &tracingTransport{inner: rt, tr: r.tr, reqBytes: &wb.req, respBytes: &wb.resp}
	}
	return &wire.Client{URL: r.fx.url, HTTP: &http.Client{Transport: rt}}
}

// preload queues the standing backlog monitor_mixed reads scan, then
// matches every VM and lets the nodes learn their offers, so the timed
// rounds start in the steady state (each cycle re-matches only the VMs
// completions freed) instead of growing into it.
func (r *run) preload() error {
	if r.sp.Preload == 0 {
		return nil
	}
	ctx := context.Background()
	p := makePlan(r.sp, r.seed, numClients, r.sp.Preload)
	for left := r.sp.Preload; left > 0; {
		b := p.Batches[0]
		p.Batches = p.Batches[1:]
		n := min(b.Count, left)
		_, err := r.fx.cas.Service.Submit(ctx, &core.SubmitRequest{
			Owner: b.Owner, Count: n, LengthSec: b.Length, MinMemoryMB: b.MemMB,
		})
		if err != nil {
			return fmt.Errorf("preloading jobs: %w", err)
		}
		left -= n
	}
	for {
		st, err := r.fx.cas.Service.ScheduleCycle(ctx)
		if err != nil {
			return fmt.Errorf("preload schedule cycle: %w", err)
		}
		r.matched += st.Matched
		if st.Matched == 0 {
			break
		}
	}
	r.parallel(func(c *client) {
		for range c.nodes {
			c.plainBeat(c.visit())
		}
	})
	// Start with the eight running jobs per client the steady state keeps,
	// so runs is never near empty while heartbeats join against it.
	for _, c := range r.clients {
		for len(c.running) < 8 && c.transition() {
		}
	}
	return r.fatal()
}

// schedule runs one ScheduleCycle on the caller's goroutine and records
// it; the harness calls it at fixed op counts, never on a timer.
func (r *run) schedule() int {
	sp := r.tr.begin("core.ScheduleCycle", 0, 0)
	t0 := time.Now()
	st, err := r.fx.cas.Service.ScheduleCycle(context.Background())
	d := time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		r.failf("ScheduleCycle: %v", err)
		return 0
	}
	r.cycles = append(r.cycles, d)
	r.cycleMatched = append(r.cycleMatched, st.Matched)
	r.matched += st.Matched
	return st.Matched
}

func (r *run) checkpoint() {
	sp := r.tr.begin("sqldb.Checkpoint", 0, 0)
	t0 := time.Now()
	err := r.fx.eng.Checkpoint()
	r.checkpoints = append(r.checkpoints, time.Since(t0))
	r.tr.end(sp)
	if err != nil {
		r.failf("Checkpoint: %v", err)
	}
}

// round performs ops units of the workload's work, split evenly over the
// clients.
func (r *run) round(ops int) {
	per := ops / numClients
	switch r.sp.Kind {
	case kindBeats:
		r.parallel(func(c *client) { c.beatsRound(per) })
	case kindMixed:
		r.parallel(func(c *client) {
			var cycle func()
			if c.id == 0 {
				cycle = func() {
					if r.blocks++; r.blocks == cycleBlocks {
						r.blocks = 0
						r.schedule()
					}
				}
			}
			c.mixedRound(per/mixedBlock, cycle)
		})
	case kindLifecycle:
		var ckpt sync.WaitGroup
		if r.sp.Checkpoint {
			// Beside the writers, as the daemon's background checkpointer
			// would run, but started at a fixed point: the top of a round.
			ckpt.Add(1)
			go func() {
				defer ckpt.Done()
				r.checkpoint()
			}()
		}
		// Waves no larger than the pool has slots.
		for left := ops; left > 0 && r.fatal() == nil; {
			wave := min(left, (r.sp.Machines-2*standingNodes)*r.sp.VMs/numClients*numClients)
			r.parallel(func(c *client) { c.submitPhase(wave / numClients) })
			for matched := 0; matched < wave && r.fatal() == nil; {
				n := r.schedule()
				if n == 0 {
					r.failf("ScheduleCycle matched nothing with %d of %d jobs unmatched", wave-matched, wave)
				}
				matched += n
			}
			r.parallel(func(c *client) { c.nodePhase() })
			left -= wave
		}
		ckpt.Wait()
	}
}

// timedRound wraps round with the clocks.
func (r *run) timedRound(ops int, traced bool) error {
	var marks [numClients][numKinds]int
	for i, c := range r.clients {
		for k := range c.lat {
			marks[i][k] = len(c.lat[k])
		}
	}
	if traced {
		r.tr.on.Store(true)
		r.fx.eng.SetStatsHook(func(s sqldb.StmtStats) {
			r.hook.stmts.Add(1)
			r.hook.scanned.Add(int64(s.RowsScanned))
			r.hook.returned.Add(int64(s.RowsReturned))
		})
		r.hook.ops += ops
	}
	cpu0, t0 := cpuTime(), time.Now()
	r.round(ops)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if traced {
		r.tr.on.Store(false)
		r.fx.eng.SetStatsHook(nil)
	}
	if err := r.fatal(); err != nil {
		return err
	}
	var writes, reads []int64
	for i, c := range r.clients {
		for _, k := range writeKinds {
			writes = append(writes, c.lat[k][marks[i][k]:]...)
		}
		for _, k := range readKinds {
			reads = append(reads, c.lat[k][marks[i][k]:]...)
		}
	}
	res := roundResult{
		Ops: ops, WallS: wall.Seconds(), OpsPerS: float64(ops) / wall.Seconds(),
		CPUUsPerOp: us(cpu) / float64(ops), Traced: traced,
	}
	res.WriteP50Ms = quantileOrZero(nsToMs(writes), 0.5)
	res.ReadP50Ms = quantileOrZero(nsToMs(reads), 0.5)
	r.rounds = append(r.rounds, res)
	r.timedOps += ops
	return nil
}

// measure is the whole run up to the crash: set-ups, timed rounds, and
// the pre-crash correctness gate.
func (r *run) measure(wb *wireBytes) error {
	reps := setupReps
	if r.traced {
		reps = 1 // setup_s is not a per-layer metric
	}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = processStart
		}
		if err := r.setUp(wb); err != nil {
			return fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		r.setups = append(r.setups, time.Since(t0))
		if rep < reps-1 {
			// Only the last fixture is measured on; earlier ones exist to
			// make setup_s a median. Give their memory back first so the
			// measured run's heap does not depend on them.
			if err := r.fx.close(); err != nil {
				return fmt.Errorf("closing set-up %d: %w", rep+1, err)
			}
			r.fx = nil
			debug.FreeOSMemory()
		}
	}
	rounds := timedRounds
	if r.traced {
		// The traced run is a quarter of the work: two rounds of the usual
		// size (a smaller round would change the workload's shape — a
		// lifecycle wave polls every node however few jobs it carries),
		// the first untraced and the second traced, so their difference is
		// the tracing overhead.
		rounds = timedRounds / 4
	}
	for _, c := range r.clients {
		for k := range c.lat {
			c.lat[k] = c.lat[k][:0]
		}
		c.calls, c.failed, c.faultMsgs = 0, 0, nil
		clear(c.faults)
	}
	wb.req.Store(0)
	wb.resp.Store(0)
	r.cycles, r.cycleMatched, r.checkpoints = nil, nil, nil
	r.ackedAt0 = len(r.ackedJobs())
	r.before = r.snapshot()
	for i := 0; i < rounds; i++ {
		if err := r.timedRound(r.sp.roundOps(r.seconds), r.traced && i%2 == 1); err != nil {
			return err
		}
	}
	r.after = r.snapshot()
	r.admission = r.fx.cas.AdmissionStats()
	r.dedupReplays = r.fx.cas.Service.DedupStats().Replays
	// What the CAS holds once the garbage is gone: tables, indexes,
	// version chains, the device's bytes.
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapLiveMB = float64(m.HeapAlloc) / (1 << 20)
	return nil
}

// ackedJobs is every job id whose completion a client saw acknowledged,
// sorted.
func (r *run) ackedJobs() []int64 {
	var ids []int64
	for _, c := range r.clients {
		ids = append(ids, c.acked...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// crashAndRecover abandons the CAS without closing it, then reopens it
// from what the device had synced and checks the recovered state is still
// correct. A traced run does it recoveryReps times, for the per-layer
// recovery times.
func (r *run) crashAndRecover() error {
	r.fx.abandon()
	dev := r.fx.dev
	acked := r.ackedJobs()
	expect := r.expectedState()
	r.fx = nil
	reps := 1
	if r.traced {
		reps = recoveryReps
	}
	for rep := 0; rep < reps; rep++ {
		// Each recovery gets its own image: opening repairs and appends.
		// Nothing writes to the abandoned device, so every image is the
		// same bytes.
		img, err := dev.crashImage()
		if err != nil {
			return fmt.Errorf("crash image: %w", err)
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		fx, err := openFixture(&r.sp, img, r.tr)
		if err != nil {
			return fmt.Errorf("recovery %d: %w", rep+1, err)
		}
		r.recoveries = append(r.recoveries, recovery{
			total: time.Since(t0), open: fx.openDur, newCAS: fx.newDur, inflight: fx.recoverDur,
		})
		if err := verifyState(fx, expect, acked); err != nil {
			return fmt.Errorf("after recovery %d: %w", rep+1, err)
		}
		if err := fx.close(); err != nil {
			return fmt.Errorf("closing recovery %d: %w", rep+1, err)
		}
	}
	return nil
}
