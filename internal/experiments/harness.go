package experiments

import (
	"context"
	"fmt"
	"time"

	"condorj2/internal/cluster"
	"condorj2/internal/core"
	"condorj2/internal/metrics"
	"condorj2/internal/sim"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
	"condorj2/internal/workload"
)

// J2Harness is a complete simulated CondorJ2 deployment: engine, CAS, the
// in-process SOAP transport, execute nodes, the scheduling cycle ticker,
// and the server CPU account fed by the cost model — the paper's testbed
// (45-50 physical machines plus one Quad-Xeon server) in virtual time.
type J2Harness struct {
	Eng     *sim.Engine
	CAS     *core.CAS
	Local   *wire.Local
	Startds []*cluster.Startd
	Kernels []*cluster.Kernel
	CPU     *metrics.CPUAccount // the CAS server's four cores
	Costs   CostModel

	completions *metrics.Counter
	running     *metrics.Gauge
	start       time.Time
}

// J2Config sizes a CondorJ2 experiment.
type J2Config struct {
	// PhysicalNodes and VMsPerNode shape the cluster (the paper simulated
	// large clusters by raising the VM ratio on up to 50 real machines).
	PhysicalNodes int
	VMsPerNode    int
	// MixedNodeSpeeds applies the testbed's P3-era speed mix; false makes
	// every node speed 1.0.
	MixedNodeSpeeds bool
	// HeartbeatEvery is the periodic machine heartbeat interval.
	HeartbeatEvery time.Duration
	// IdlePoll is the idle-VM pull cadence.
	IdlePoll time.Duration
	// ScheduleEvery paces CAS matchmaking cycles.
	ScheduleEvery time.Duration
	// SampleEvery is the CPU sampling interval (the paper sampled /proc
	// once a minute).
	SampleEvery time.Duration
	// Maintenance enables the periodic DB background burst (Figure 10).
	Maintenance *DBMaintenance
	// Seed fixes the simulation's random source.
	Seed int64
}

func (c J2Config) withDefaults() J2Config {
	if c.PhysicalNodes <= 0 {
		c.PhysicalNodes = 45
	}
	if c.VMsPerNode <= 0 {
		c.VMsPerNode = 4
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 60 * time.Second
	}
	if c.IdlePoll <= 0 {
		c.IdlePoll = 2 * time.Second
	}
	if c.ScheduleEvery <= 0 {
		c.ScheduleEvery = time.Second
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 2006
	}
	return c
}

// NewJ2 builds the harness and boots the cluster.
func NewJ2(cfg J2Config) (*J2Harness, error) {
	cfg = cfg.withDefaults()
	eng := sim.New(cfg.Seed)
	cas, err := core.New(core.Options{Clock: eng})
	if err != nil {
		return nil, err
	}
	h := &J2Harness{
		Eng: eng, CAS: cas,
		CPU:         metrics.NewCPUAccount(eng.Now(), cfg.SampleEvery, 4),
		Costs:       DefaultCosts(),
		completions: metrics.NewCounter(eng.Now(), time.Minute),
		running:     &metrics.Gauge{},
		start:       eng.Now(),
	}
	// Wire the cost model: every SQL statement and every SOAP exchange
	// charges the CAS server's CPU account.
	cas.Engine.SetStatsHook(func(s sqldb.StmtStats) {
		h.Costs.chargeStmt(h.CPU, eng.Now(), s)
	})
	h.Local = &wire.Local{Mux: cas.Mux, OnCall: func(action string, reqB, respB int) {
		h.Costs.chargeMsg(h.CPU, eng.Now(), reqB, respB)
	}}

	speeds := make([]float64, cfg.PhysicalNodes)
	if cfg.MixedNodeSpeeds {
		speeds = cluster.MixedSpeeds(cfg.PhysicalNodes)
	} else {
		for i := range speeds {
			speeds[i] = 1.0
		}
	}
	for i := 0; i < cfg.PhysicalNodes; i++ {
		k := cluster.NewKernel(eng, cluster.NodeConfig{
			Name: cluster.NodeName(i), VMs: cfg.VMsPerNode, Speed: speeds[i],
		})
		sd := cluster.NewStartd(eng, k, h.Local, cluster.StartdConfig{
			HeartbeatInterval: cfg.HeartbeatEvery,
			IdlePoll:          cfg.IdlePoll,
		})
		sd.OnComplete = func(jobID int64, at time.Time) {
			h.completions.Add(at, 1)
			h.running.Add(at, -1)
		}
		sd.OnDrop = func(jobID int64, at time.Time) {
			h.running.Add(at, -1)
		}
		h.Kernels = append(h.Kernels, k)
		h.Startds = append(h.Startds, sd)
	}
	eng.Every(cfg.ScheduleEvery, "cas.schedule", func() {
		stats, err := cas.Service.ScheduleCycle(context.Background())
		if err != nil {
			panic(fmt.Sprintf("experiments: schedule cycle: %v", err))
		}
		h.running.Add(eng.Now(), float64(stats.Matched))
	})
	if cfg.Maintenance != nil {
		m := *cfg.Maintenance
		eng.Every(m.Interval, "db.maintenance", func() {
			h.CPU.Charge(eng.Now(), metrics.IO, m.IOBurst)
			h.CPU.Charge(eng.Now(), metrics.User, m.CPUBurst)
		})
	}
	return h, nil
}

// Boot staggers node boot heartbeats over the given window so 10,000 VMs
// do not all register in the same instant (they still bunch enough to show
// Figure 10's startup spike).
func (h *J2Harness) Boot(window time.Duration) {
	n := len(h.Startds)
	for i, sd := range h.Startds {
		sd := sd
		delay := time.Duration(0)
		if n > 1 && window > 0 {
			delay = window * time.Duration(i) / time.Duration(n)
		}
		h.Eng.After(delay, "boot", func() {
			if err := sd.Boot(); err != nil {
				panic(fmt.Sprintf("experiments: boot: %v", err))
			}
		})
	}
}

// Submit enqueues batches through the web-service path (costed like any
// other client call).
func (h *J2Harness) Submit(batches []workload.Batch) error {
	var prevFirst int64
	for _, b := range batches {
		req := &core.SubmitRequest{
			Owner: b.Owner, Count: b.Count,
			LengthSec:   int64(b.Length / time.Second),
			MinMemoryMB: b.MinMemoryMB, Priority: b.Priority,
		}
		if b.DependsOnPrev && prevFirst != 0 {
			req.DependsOn = prevFirst
		}
		var resp core.SubmitResponse
		if err := h.Local.Call(context.Background(), core.ActionSubmitJob, req, &resp); err != nil {
			return err
		}
		prevFirst = resp.FirstJobID
	}
	return nil
}

// SubmitPulsed schedules timed submissions (Figure 10's ramp).
func (h *J2Harness) SubmitPulsed(pulses []workload.Pulse) {
	for _, p := range pulses {
		p := p
		h.Eng.After(p.At, "submit.pulse", func() {
			if err := h.Submit([]workload.Batch{p.Batch}); err != nil {
				panic(fmt.Sprintf("experiments: pulsed submit: %v", err))
			}
		})
	}
}

// Completions exposes the per-minute completion counter.
func (h *J2Harness) Completions() *metrics.Counter { return h.completions }

// RunningGauge exposes the jobs-in-progress gauge. The gauge counts a job
// from match to completion (the paper's Figure 11 counts executing jobs;
// match-to-start lag is seconds, invisible at minute resolution).
func (h *J2Harness) RunningGauge() *metrics.Gauge { return h.running }

// TotalCompleted counts jobs finished so far.
func (h *J2Harness) TotalCompleted() int {
	n := 0
	for _, sd := range h.Startds {
		n += sd.Completed
	}
	return n
}

// Close releases the CAS.
func (h *J2Harness) Close() { h.CAS.Close() }
