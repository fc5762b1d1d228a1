package main

import (
	"context"
	"database/sql"
	"fmt"
	"net/http"
	"time"

	"condorj2/internal/beans"
	"condorj2/internal/core"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ladder holds the mean cost of one call at each rung, measured after the
// timed rounds on the live fixture by sending the same heartbeat stream
// through successively fewer layers. A layer's self time is the
// difference between adjacent rungs.
type ladder struct {
	httpUs, localUs, directUs    float64 // heartbeat via HTTP, wire.Local, Service
	findUs, updateUs, selectUs   float64 // beans calls inside Container.InTx
	beansOverheadUs              float64 // mean of (beans call − same SQL on the bare *sql.Tx)
	pointUpdateUs, pointSelectUs float64 // direct engine statements
	commitUs                     float64 // direct engine commit of a one-row update
}

const (
	ladderChunks = 5   // rungs are interleaved in chunks so drift hits all alike
	ladderChunk  = 100 // calls per rung per chunk
	microCalls   = 200
)

// climb runs the ladder. It only sends idle-state heartbeats and writes
// rows back unchanged, so the state the correctness gate checks is
// untouched.
func (r *run) climb() (*ladder, error) {
	ctx := context.Background()
	fx := r.fx
	if fx.srv == nil {
		if err := fx.serveHTTP(nil); err != nil {
			return nil, err
		}
	}
	rungs := []wire.Caller{
		&wire.Client{URL: fx.url, HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}},
		&wire.Local{Mux: fx.cas.Mux},
	}
	c := r.clients[0]
	var spent [3]time.Duration
	for chunk := 0; chunk < ladderChunks; chunk++ {
		for rung := 0; rung < 3; rung++ {
			t0 := time.Now()
			for i := 0; i < ladderChunk; i++ {
				n := c.visit()
				n.report(-1)
				var err error
				if rung < 2 {
					err = rungs[rung].Call(ctx, core.ActionHeartbeat, &n.req, &core.HeartbeatResponse{})
				} else {
					_, err = fx.cas.Service.Heartbeat(ctx, &n.req)
				}
				if err != nil {
					return nil, fmt.Errorf("ladder rung %d: %w", rung, err)
				}
			}
			spent[rung] += time.Since(t0)
		}
	}
	per := func(d time.Duration, n int) float64 { return us(d) / float64(n) }
	l := &ladder{
		httpUs:   per(spent[0], ladderChunks*ladderChunk),
		localUs:  per(spent[1], ladderChunks*ladderChunk),
		directUs: per(spent[2], ladderChunks*ladderChunk),
	}

	// beans against the same SQL on the bare transaction, on one node's
	// VM rows.
	name := c.nodes[0].name
	vms, err := beans.Select[core.VM](fx.cas.Pool, "WHERE machine = ?", name)
	if err != nil || len(vms) == 0 {
		return nil, fmt.Errorf("ladder: loading VMs of %s: %v", name, err)
	}
	vm := vms[0]
	var d [6]time.Duration
	container := &beans.Container{DB: fx.cas.Pool}
	err = container.InTx(ctx, func(tx *sql.Tx) error {
		timeIt := func(slot int, fn func() error) error {
			t0 := time.Now()
			for i := 0; i < microCalls; i++ {
				if err := fn(); err != nil {
					return err
				}
			}
			d[slot] = time.Since(t0)
			return nil
		}
		steps := []func() error{
			func() error { return beans.Find(tx, &core.VM{ID: vm.ID}) },
			func() error {
				var v core.VM
				return tx.QueryRow(`SELECT id, machine, seq, state, memory_mb FROM vms WHERE id = ?`, vm.ID).
					Scan(&v.ID, &v.Machine, &v.Seq, &v.State, &v.MemoryMB)
			},
			func() error { return beans.Update(tx, &vm) },
			func() error {
				_, err := tx.Exec(`UPDATE vms SET machine = ?, seq = ?, state = ?, memory_mb = ? WHERE id = ?`,
					vm.Machine, vm.Seq, vm.State, vm.MemoryMB, vm.ID)
				return err
			},
			func() error { _, err := beans.Select[core.VM](tx, "WHERE machine = ?", name); return err },
			func() error {
				rows, err := tx.Query(`SELECT id, machine, seq, state, memory_mb FROM vms WHERE machine = ?`, name)
				if err != nil {
					return err
				}
				defer rows.Close()
				for rows.Next() {
					var v core.VM
					if err := rows.Scan(&v.ID, &v.Machine, &v.Seq, &v.State, &v.MemoryMB); err != nil {
						return err
					}
				}
				return rows.Err()
			},
		}
		for i, fn := range steps {
			if err := timeIt(i, fn); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ladder: beans calls: %w", err)
	}
	l.findUs, l.updateUs, l.selectUs = per(d[0], microCalls), per(d[2], microCalls), per(d[4], microCalls)
	l.beansOverheadUs = per(d[0]-d[1]+d[2]-d[3]+d[4]-d[5], 3*microCalls)

	// The engine without database/sql or beans above it.
	var upd, sel, commit time.Duration
	for i := 0; i < microCalls; i++ {
		tx, err := fx.eng.BeginTx(ctx, sqldb.TxOptions{})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		_, err = tx.ExecContext(ctx, `UPDATE vms SET state = ? WHERE id = ?`, vm.State, vm.ID)
		t1 := time.Now()
		if err == nil {
			_, err = tx.QueryContext(ctx, `SELECT id, machine, seq, state, memory_mb FROM vms WHERE id = ?`, vm.ID)
		}
		t2 := time.Now()
		if err != nil {
			tx.Rollback()
			return nil, fmt.Errorf("ladder: engine statements: %w", err)
		}
		if err := tx.CommitContext(ctx); err != nil {
			return nil, fmt.Errorf("ladder: engine commit: %w", err)
		}
		upd += t1.Sub(t0)
		sel += t2.Sub(t1)
		commit += time.Since(t2)
	}
	l.pointUpdateUs, l.pointSelectUs, l.commitUs = per(upd, microCalls), per(sel, microCalls), per(commit, microCalls)
	return l, nil
}

// samples gathers both clients' latencies of the given kinds, in ms.
func (r *run) samples(kinds ...int) []float64 {
	var out []float64
	for _, c := range r.clients {
		for _, k := range kinds {
			out = append(out, nsToMs(c.lat[k])...)
		}
	}
	return out
}

// quantileOrZero is for per-layer latencies: an action a workload barely
// uses reports 0 instead of a percentile it has no samples for.
func quantileOrZero(v []float64, p float64) float64 {
	q, err := percentile(v, p)
	if err != nil {
		return 0
	}
	return q
}

func (r *run) roundValues(f func(roundResult) float64, traced bool) []float64 {
	var out []float64
	for _, rr := range r.rounds {
		if rr.Traced == traced {
			out = append(out, f(rr))
		}
	}
	return out
}

// roundSpreadPct is the run's own noise gauge: (max−min)/median of the
// untraced rounds' throughput.
func (r *run) roundSpreadPct() float64 {
	v := r.roundValues(func(rr roundResult) float64 { return rr.OpsPerS }, false)
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return 100 * ratio(hi-lo, median(v))
}

func (r *run) timedWall() time.Duration {
	var s float64
	for _, rr := range r.rounds {
		s += rr.WallS
	}
	return time.Duration(s * float64(time.Second))
}

// endToEnd computes the gated metrics of an untraced run. On the shared
// reference host only counts repeat well enough to gate (bench/README.md);
// the run's timings are in the report line and, from a traced run, among
// the per-layer metrics.
func (r *run) endToEnd() map[string]metric {
	var setups []float64
	for _, d := range r.setups {
		setups = append(setups, d.Seconds())
	}
	ops := float64(r.timedOps)
	calls := 0
	for _, c := range r.clients {
		calls += c.calls
	}
	b, a := &r.before, &r.after
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"alloc_kb_per_op":  {float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / 1024 / ops, "KB"},
		"wal_bytes_per_op": {float64(a.wal.BytesWritten-b.wal.BytesWritten) / ops, "B"},
		"commits_per_op":   {float64(a.wal.Commits-b.wal.Commits) / ops, "ratio"},
		"calls_per_op":     {float64(calls) / ops, "ratio"},
		"heap_live_mb":     {r.heapLiveMB, "MB"},
	}
}

// perLayer computes the ungated metrics of a traced run: one entry per
// name in BENCHMARK.json's per_layer list, whatever the workload.
func (r *run) perLayer(l *ladder, wb *wireBytes) map[string]metric {
	ops := float64(r.timedOps)
	b, a := &r.before, &r.after
	du := func(x, y uint64) float64 { return float64(x - y) }
	adm := r.admission
	failed, deadlocks := 0, 0
	for _, c := range r.clients {
		failed += c.failed
		deadlocks += c.faults["Deadlock"]
	}
	var cycleMs, ckptMs, matched []float64
	for i, d := range r.cycles {
		cycleMs = append(cycleMs, ms(d))
		matched = append(matched, float64(r.cycleMatched[i]))
	}
	for _, d := range r.checkpoints {
		ckptMs = append(ckptMs, ms(d))
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return ratio(s, float64(len(v)))
	}
	var openMs, newMs, inflightMs, recoveryS []float64
	for _, rc := range r.recoveries {
		recoveryS = append(recoveryS, rc.total.Seconds())
		openMs = append(openMs, ms(rc.open))
		newMs = append(newMs, ms(rc.newCAS))
		inflightMs = append(inflightMs, ms(rc.inflight))
	}
	untraced := median(r.roundValues(func(rr roundResult) float64 { return rr.OpsPerS }, false))
	traced := median(r.roundValues(func(rr roundResult) float64 { return rr.OpsPerS }, true))
	hookOps := float64(r.hook.ops)
	dev := a.dev.sub(b.dev)
	fetches := du(a.pool.Hits, b.pool.Hits) + du(a.pool.Misses, b.pool.Misses)
	lookups := du(a.cache.Hits, b.cache.Hits) + du(a.cache.Misses, b.cache.Misses)
	commits := du(a.wal.Commits, b.wal.Commits)

	return map[string]metric{
		"wire.http_self_us":       {l.httpUs - l.localUs, "us"},
		"wire.codec_self_us":      {l.localUs - l.directUs, "us"},
		"wire.req_bytes_per_op":   {float64(wb.req.Load()) / ops, "B"},
		"wire.resp_bytes_per_op":  {float64(wb.resp.Load()) / ops, "B"},
		"wire.admission_queued":   {float64(adm.Queued), "count"},
		"wire.admission_rejected": {float64(adm.Rejected + adm.QueueTimeouts), "count"},
		"wire.admission_shed":     {float64(adm.ShedStale), "count"},
		"wire.peak_inflight":      {float64(adm.PeakInFlight), "count"},
		"wire.retries":            {float64(failed), "count"},

		"core.write_p50_ms":        {quantileOrZero(r.samples(writeKinds...), 0.5), "ms"},
		"core.write_p99_ms":        {quantileOrZero(r.samples(writeKinds...), 0.99), "ms"},
		"core.read_p50_ms":         {quantileOrZero(r.samples(readKinds...), 0.5), "ms"},
		"core.heartbeat_p50_ms":    {quantileOrZero(r.samples(kHeartbeat), 0.5), "ms"},
		"core.heartbeat_p99_ms":    {quantileOrZero(r.samples(kHeartbeat), 0.99), "ms"},
		"core.submit_p50_ms":       {quantileOrZero(r.samples(kSubmit), 0.5), "ms"},
		"core.accept_p50_ms":       {quantileOrZero(r.samples(kAccept), 0.5), "ms"},
		"core.pool_status_p50_ms":  {quantileOrZero(r.samples(kPoolStatus), 0.5), "ms"},
		"core.pool_status_p99_ms":  {quantileOrZero(r.samples(kPoolStatus), 0.99), "ms"},
		"core.queue_status_p50_ms": {quantileOrZero(r.samples(kQueueStatus), 0.5), "ms"},
		"core.user_stats_p50_ms":   {quantileOrZero(r.samples(kUserStats), 0.5), "ms"},
		"core.service_self_us":     {l.directUs, "us"},
		"core.schedule_cycle_ms":   {median(cycleMs), "ms"},
		"core.matched_per_cycle":   {mean(matched), "count"},
		"core.jobs_per_s":          {ratio(float64(len(r.ackedJobs())-r.ackedAt0), r.timedWall().Seconds()), "1/s"},
		"core.deadlock_faults":     {float64(deadlocks), "count"},
		"core.dedup_replays":       {float64(r.dedupReplays), "count"},
		"core.new_ms":              {median(newMs), "ms"},
		"core.recover_inflight_ms": {median(inflightMs), "ms"},

		"beans.find_us":              {l.findUs, "us"},
		"beans.update_us":            {l.updateUs, "us"},
		"beans.select_us":            {l.selectUs, "us"},
		"beans.overhead_us_per_stmt": {l.beansOverheadUs, "us"},

		"sqldb.stmts_per_op":              {ratio(float64(r.hook.stmts.Load()), hookOps), "ratio"},
		"sqldb.rows_scanned_per_op":       {ratio(float64(r.hook.scanned.Load()), hookOps), "ratio"},
		"sqldb.rows_returned_per_op":      {ratio(float64(r.hook.returned.Load()), hookOps), "ratio"},
		"sqldb.point_update_us":           {l.pointUpdateUs, "us"},
		"sqldb.point_select_us":           {l.pointSelectUs, "us"},
		"sqldb.commit_us":                 {l.commitUs, "us"},
		"sqldb.plan_cache_hit_rate":       {ratio(du(a.cache.Hits, b.cache.Hits), lookups), "ratio"},
		"sqldb.plan_cache_invalidations":  {du(a.cache.Invalidations, b.cache.Invalidations), "count"},
		"sqldb.agg_fast_path_share":       {ratio(du(a.exec.AggFastPaths, b.exec.AggFastPaths), du(a.exec.AggQueries, b.exec.AggQueries)), "ratio"},
		"sqldb.hash_joins":                {du(a.plan.HashJoins, b.plan.HashJoins), "count"},
		"sqldb.index_nl_joins":            {du(a.plan.IndexNLJoins, b.plan.IndexNLJoins), "count"},
		"sqldb.versions_pruned_per_op":    {du(a.ver.VersionsPruned, b.ver.VersionsPruned) / ops, "ratio"},
		"sqldb.gc_pending_end":            {float64(a.ver.PendingGC), "count"},
		"sqldb.lock_waits_per_kop":        {1000 * du(a.lock.Waited, b.lock.Waited) / ops, "ratio"},
		"sqldb.lock_wait_ms":              {ms(a.lock.WaitTime - b.lock.WaitTime), "ms"},
		"sqldb.deadlocks":                 {du(a.lock.Deadlocks, b.lock.Deadlocks), "count"},
		"sqldb.fsyncs_per_commit":         {ratio(du(a.wal.Syncs, b.wal.Syncs), commits), "ratio"},
		"sqldb.wal_group_max":             {float64(a.wal.MaxGroup), "count"},
		"sqldb.commit_wait_ms_per_commit": {ratio(ms(a.wal.CommitWait-b.wal.CommitWait), commits), "ms"},
		"sqldb.open_replay_ms":            {median(openMs), "ms"},
		"sqldb.checkpoint_ms":             {median(ckptMs), "ms"},

		"pager.hit_rate":         {ratio(du(a.pool.Hits, b.pool.Hits), fetches), "ratio"},
		"pager.evictions_per_op": {du(a.pool.Evictions, b.pool.Evictions) / ops, "ratio"},
		"pager.dirty_writebacks": {du(a.pool.DirtyWrites, b.pool.DirtyWrites), "count"},
		"pager.page_reads":       {du(a.pool.PageReads, b.pool.PageReads), "count"},
		"pager.page_writes":      {du(a.pool.PageWrites, b.pool.PageWrites), "count"},
		"pager.checkpoints":      {du(a.pool.Checkpoints, b.pool.Checkpoints), "count"},
		"pager.resident_end":     {float64(a.pool.Resident), "count"},

		"vfs.wal_writes":       {float64(dev.WALWrites), "count"},
		"vfs.wal_bytes":        {float64(dev.WALBytes), "B"},
		"vfs.syncs":            {float64(dev.Syncs), "count"},
		"vfs.sync_busy_ms":     {ms(dev.SyncBusy), "ms"},
		"vfs.page_read_bytes":  {float64(dev.PageReadB), "B"},
		"vfs.page_write_bytes": {float64(dev.PageWriteB), "B"},

		"harness.allocs_per_op":      {du(a.mem.Mallocs, b.mem.Mallocs) / ops, "ratio"},
		"harness.gc_cycles":          {float64(a.mem.NumGC - b.mem.NumGC), "count"},
		"harness.gc_pause_ms":        {float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6, "ms"},
		"harness.round_spread_pct":   {r.roundSpreadPct(), "%"},
		"harness.trace_overhead_pct": {100 * ratio(untraced-traced, untraced), "%"},
		"harness.timed_wall_ms":      {ms(r.timedWall()), "ms"},
		"harness.ops_per_s":          {untraced, "1/s"},
		"harness.cpu_us_per_op":      {median(r.roundValues(func(rr roundResult) float64 { return rr.CPUUsPerOp }, false)), "us"},
		"harness.recovery_s":         {median(recoveryS), "s"},
		"harness.peak_rss_mb":        {peakRSSMB(), "MB"},
	}
}
