package condorj2

// One benchmark per paper table and figure (DESIGN.md §3), plus ablations
// for the design decisions DESIGN.md §5 calls out. Figures use scaled
// configurations so a full -bench=. pass stays tractable; cmd/repro runs
// the paper-scale versions.

import (
	"context"
	"testing"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/experiments"
)

func BenchmarkTable1CondorTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps, err := experiments.Table1Trace()
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) != 15 {
			b.Fatalf("steps = %d", len(steps))
		}
	}
}

func BenchmarkTable2CondorJ2Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps, err := experiments.Table2Trace()
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) != 15 {
			b.Fatalf("steps = %d", len(steps))
		}
	}
}

func BenchmarkCodeSizeInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := experiments.CountCode(".")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(report.Total), "lines")
	}
}

// throughputCfg is the scaled Figure 7/8/9 configuration.
func throughputCfg() experiments.ThroughputConfig {
	return experiments.ThroughputConfig{
		PhysicalNodes: 12, VMsPerNode: 4,
		Horizon: 5 * time.Minute, Ramp: time.Minute,
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Sweep(
			[]time.Duration{time.Minute, 9 * time.Second, 6 * time.Second}, throughputCfg())
		if err != nil {
			b.Fatal(err)
		}
		last := results[len(results)-1]
		b.ReportMetric(last.ObservedRate, "jobs/s@6s")
		b.ReportMetric(last.ObservedRate/last.IdealRate, "observed/ideal@6s")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Sweep([]time.Duration{6 * time.Second}, throughputCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(results[0].VMsDropping), "vms-dropping")
		b.ReportMetric(float64(results[0].PhysDropping), "phys-dropping")
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Sweep([]time.Duration{9 * time.Second}, throughputCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].CPU.User, "user%")
		b.ReportMetric(results[0].CPU.Idle, "idle%")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLargeCluster(experiments.LargeClusterConfig{
			PhysicalNodes: 10, VMsPerNode: 20,
			Jobs: 800, Batches: 8,
			JobLength: 30 * time.Minute, PulseEvery: 2 * time.Minute,
			Horizon: 90 * time.Minute, Seed: 2006,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PeakRunning, "peak-running")
		b.ReportMetric(float64(res.TotalCompleted), "completed")
	}
}

func mixedCfg() experiments.MixedConfig {
	return experiments.MixedConfig{
		PhysicalNodes: 10, VMsPerNode: 6,
		ShortJobs: 480, LongJobs: 120, Seed: 2006,
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMixed(mixedCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CompletionMinute, "completion-min")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMixed(mixedCfg())
		if err != nil {
			b.Fatal(err)
		}
		peak := 0.0
		for _, p := range res.TurnoverPerSec {
			if p.Value > peak {
				peak = p.Value
			}
		}
		b.ReportMetric(peak, "peak-turnover/s")
	}
}

func fig13Cfg() experiments.Fig13Config {
	return experiments.Fig13Config{
		QueueDepth: 3000, Throttle: 2, JobLength: time.Minute,
		Nodes: 25, VMsPerNode: 8, Horizon: 30 * time.Minute, Seed: 2006,
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(fig13Cfg())
		if err != nil {
			b.Fatal(err)
		}
		// Report the deep-queue rate (the saturation the figure shows).
		deep := 0.0
		n := 0
		for _, p := range res.Rate {
			if p.QueueLen >= 2500 {
				deep += p.Rate
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(deep/float64(n), "rate@deep-queue")
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(fig13Cfg())
		if err != nil {
			b.Fatal(err)
		}
		maxUser := 0.0
		for _, s := range res.CPU {
			if s.User > maxUser {
				maxUser = s.User
			}
		}
		// ×4 as in the paper's adjusted plot.
		b.ReportMetric(4*maxUser, "peak-user%x4")
	}
}

func fig15Cfg(limited bool) experiments.Fig15Config {
	cfg := experiments.Fig15Config{
		Nodes: 15, VMsPerNode: 4,
		ShortJobs: 240, LongJobs: 60,
		Schedds: 3, Throttle: 0.5, Seed: 2006,
	}
	if limited {
		cfg.MaxJobsRunning = 20
	}
	return cfg
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig15(fig15Cfg(false))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CompletionMinute, "completion-min")
	}
}

func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig15(fig15Cfg(true))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CompletionMinute, "completion-min")
	}
}

func BenchmarkCondorLargeCluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCrash(experiments.CrashConfig{
			Nodes: 10, VMsPerNode: 20,
			Jobs: 500, JobLength: 10 * time.Minute,
			Throttle: 2, MaxShadows: 200,
			Horizon: 40 * time.Minute, Seed: 2006,
		})
		if err != nil {
			b.Fatal(err)
		}
		crashed := 0.0
		if res.Crashed {
			crashed = 1
		}
		b.ReportMetric(crashed, "crashed")
		b.ReportMetric(float64(res.PeakRunning), "peak-running")
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationIndexedHeartbeat vs NoIndexes: the heartbeat hot path's
// dependence on secondary indexes.
func BenchmarkAblationIndexedHeartbeat(b *testing.B) {
	benchHeartbeatPath(b, true)
}

func BenchmarkAblationNoIndexes(b *testing.B) {
	benchHeartbeatPath(b, false)
}

func benchHeartbeatPath(b *testing.B, indexed bool) {
	cas, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cas.Close()
	if !indexed {
		for _, ix := range []string{"jobs_state", "vms_state", "jobs_depends"} {
			if _, err := cas.Pool.Exec("DROP INDEX " + ix); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Populate a moderate pool: 50 machines × 4 VMs, 2000 idle jobs.
	if _, err := cas.Service.Submit(context.Background(), &core.SubmitRequest{Owner: "u", Count: 2000, LengthSec: 300}); err != nil {
		b.Fatal(err)
	}
	vms := make([]core.VMStatus, 4)
	for i := range vms {
		vms[i] = core.VMStatus{Seq: int64(i), State: "idle"}
	}
	for m := 0; m < 50; m++ {
		_, err := cas.Service.Heartbeat(context.Background(), &core.HeartbeatRequest{
			Machine: nodeName(m), Boot: true, TotalMemoryMB: 2048, VMs: vms,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, err := cas.Service.ScheduleCycle(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cas.Service.Heartbeat(context.Background(), &core.HeartbeatRequest{
			Machine: nodeName(i % 50), TotalMemoryMB: 2048, VMs: vms,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func nodeName(i int) string {
	return "bench-node-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// BenchmarkAblationSetScheduler: one set-oriented selection per cycle
// pairing 200 jobs with 200 VMs.
func BenchmarkAblationSetScheduler(b *testing.B) {
	cas, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cas.Close()
	vms := make([]core.VMStatus, 10)
	for i := range vms {
		vms[i] = core.VMStatus{Seq: int64(i), State: "idle"}
	}
	for m := 0; m < 20; m++ {
		if _, err := cas.Service.Heartbeat(context.Background(), &core.HeartbeatRequest{
			Machine: nodeName(m), Boot: true, TotalMemoryMB: 2048, VMs: vms,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Refill the queue and free the VMs between iterations.
		if _, err := cas.Pool.Exec(`DELETE FROM jobs`); err != nil {
			b.Fatal(err)
		}
		if _, err := cas.Pool.Exec(`DELETE FROM matches`); err != nil {
			b.Fatal(err)
		}
		if _, err := cas.Pool.Exec(`UPDATE vms SET state = 'idle'`); err != nil {
			b.Fatal(err)
		}
		if _, err := cas.Service.Submit(context.Background(), &core.SubmitRequest{Owner: "u", Count: 200, LengthSec: 60}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := cas.Service.ScheduleCycle(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if stats.Matched != 200 {
			b.Fatalf("matched = %d", stats.Matched)
		}
	}
}

// BenchmarkAblationPoolSize sweeps the container's connection pool under
// concurrent web-service load.
func BenchmarkAblationPoolSize1(b *testing.B)  { benchPoolSize(b, 1) }
func BenchmarkAblationPoolSize8(b *testing.B)  { benchPoolSize(b, 8) }
func BenchmarkAblationPoolSize32(b *testing.B) { benchPoolSize(b, 32) }

func benchPoolSize(b *testing.B, size int) {
	cas, err := core.New(core.Options{PoolSize: size})
	if err != nil {
		b.Fatal(err)
	}
	defer cas.Close()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_, err := cas.Service.Submit(context.Background(), &core.SubmitRequest{Owner: "load", Count: 1, LengthSec: 60})
			if err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkAblationCoarseService vs FineGrained: the paper's "granularity
// mismatch" — one coarse queue-status call versus composing it from
// per-job lookups client-side.
func BenchmarkAblationCoarseService(b *testing.B) {
	cas := queueStatusFixture(b)
	defer cas.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cas.Service.QueueStatus(context.Background(), &core.QueueStatusRequest{Owner: "u", Limit: 100})
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Jobs) != 100 {
			b.Fatalf("jobs = %d", len(resp.Jobs))
		}
	}
}

func BenchmarkAblationFineGrained(b *testing.B) {
	cas := queueStatusFixture(b)
	defer cas.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The anti-pattern: one round trip per tuple.
		got := 0
		for id := int64(1); id <= 100; id++ {
			row, err := cas.Engine.QueryRow(`SELECT id, owner, state, length_sec FROM jobs WHERE id = ?`, id)
			if err != nil {
				b.Fatal(err)
			}
			if row != nil {
				got++
			}
		}
		if got != 100 {
			b.Fatalf("jobs = %d", got)
		}
	}
}

func queueStatusFixture(b *testing.B) *core.CAS {
	b.Helper()
	cas, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cas.Service.Submit(context.Background(), &core.SubmitRequest{Owner: "u", Count: 100, LengthSec: 60}); err != nil {
		b.Fatal(err)
	}
	return cas
}
