// Command e2e is the repository's end-to-end benchmark: it assembles an
// in-process CAS the way cmd/condorj2d does, on a modelled storage device,
// drives it with two closed-loop clients through a fixed amount of work,
// checks the outcome, and prints the metrics BENCHMARK.json names.
//
//	go run ./bench/e2e -workload job_lifecycle -seed 7
//	go run ./bench/e2e -workload job_lifecycle -seed 7 -trace 1 -spans spans.jsonl
//	go run ./bench/e2e -selfcheck
//
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything else a run knows, written before the result line
// (and to -layers): environment, sizes, faults by code, per-round values.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Env      map[string]any `json:"env"`
	Sizes    map[string]int `json:"sizes"`
	Faults   map[string]int `json:"faults"`
	// FaultSamples are the first few faults verbatim.
	FaultSamples []string      `json:"fault_samples,omitempty"`
	HeapLiveMB   float64       `json:"heap_live_mb"`
	SetupsS      []float64     `json:"setups_s"`
	RecoveriesS  []float64     `json:"recoveries_s"`
	Rounds       []roundResult `json:"rounds"`
	// Timings are the run's ungated speeds (medians) and its peak RSS:
	// nothing timed on the shared reference host repeats well enough to
	// gate, but a developer comparing two builds side by side reads them
	// here.
	Timings map[string]float64 `json:"timings"`
	// RoundSpreadPct is (max−min)/median of the rounds' throughput: how
	// noisy this run itself was.
	RoundSpreadPct float64                `json:"round_spread_pct"`
	EndToEnd       map[string]metric      `json:"end_to_end,omitempty"`
	PerLayer       map[string]metric      `json:"per_layer,omitempty"`
	Spans          map[string]spanSummary `json:"spans,omitempty"`
}

func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// environment is the machine and build a result was produced in.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"rev":        gitRev(),
	}
}

// execute runs one workload end to end and returns its result and report.
// Any correctness violation is an error: no metrics are reported for a
// run whose outcome was wrong.
func execute(sp spec, seed int64, seconds float64, traced bool, spansPath string) (*result, *report, error) {
	r := &run{sp: sp, seed: seed, seconds: seconds, traced: traced, tr: newTracer()}
	wb := &wireBytes{}
	if err := r.measure(wb); err != nil {
		return nil, nil, err
	}
	var l *ladder
	if traced {
		var err error
		if l, err = r.climb(); err != nil {
			return nil, nil, err
		}
	}
	if err := verifyState(r.fx, r.expectedState(), r.ackedJobs()); err != nil {
		return nil, nil, fmt.Errorf("before the crash: %w", err)
	}
	clients := r.clients // crashAndRecover drops the fixture, not the clients' records
	if err := r.crashAndRecover(); err != nil {
		return nil, nil, err
	}

	res := &result{Correct: true}
	rep := &report{
		Workload: sp.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Env: environment(),
		Sizes: map[string]int{
			"machines": sp.Machines, "vms_per_machine": sp.VMs, "preloaded_jobs": sp.Preload,
			"clients": numClients, "rounds": len(r.rounds),
			"ops_per_round": r.rounds[0].Ops, "warmup_ops": sp.warmupOps(seconds),
			"setups": setupReps, "recoveries": recoveryReps,
		},
		Faults:         map[string]int{},
		Rounds:         r.rounds,
		RoundSpreadPct: r.roundSpreadPct(),
		HeapLiveMB:     r.heapLiveMB,
		Timings: map[string]float64{
			"ops_per_s":     median(r.roundValues(func(rr roundResult) float64 { return rr.OpsPerS }, false)),
			"cpu_us_per_op": median(r.roundValues(func(rr roundResult) float64 { return rr.CPUUsPerOp }, false)),
			"write_p50_ms":  quantileOrZero(r.samples(writeKinds...), 0.5),
			"read_p50_ms":   quantileOrZero(r.samples(readKinds...), 0.5),
			"peak_rss_mb":   peakRSSMB(),
		},
	}
	for _, c := range clients {
		res.Attempted += c.calls
		res.Failed += c.failed
		for code, n := range c.faults {
			rep.Faults[code] += n
		}
		rep.FaultSamples = append(rep.FaultSamples, c.faultMsgs...)
	}
	for _, d := range r.setups {
		rep.SetupsS = append(rep.SetupsS, d.Seconds())
	}
	for _, rc := range r.recoveries {
		rep.RecoveriesS = append(rep.RecoveriesS, rc.total.Seconds())
	}
	if traced {
		rep.PerLayer = r.perLayer(l, wb)
		rep.Spans = r.tr.summary()
		res.Metrics = rep.PerLayer
		if spansPath != "" {
			if err := r.tr.writeFile(spansPath); err != nil {
				return nil, nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	} else {
		rep.EndToEnd = r.endToEnd()
		res.Metrics = rep.EndToEnd
	}
	return res, rep, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: heartbeat_steady, job_lifecycle, monitor_mixed or paged_restart")
	seed := flag.Int64("seed", 1, "seed for node visiting order, owner and batch draws, query rotation")
	seconds := flag.Float64("seconds", 16, "sizes the fixed work: timed ops = the workload's reference rate × seconds")
	trace := flag.Int("trace", 0, "1 = traced run: two rounds (one untraced, one with spans), the ladder and every per-layer metric")
	spans := flag.String("spans", "", "traced run: write every span to this file, one JSON object per line")
	layers := flag.String("layers", "", "write the full report (environment, sizes, per-round values, every metric) to this file")
	selfcheck := flag.Bool("selfcheck", false, "run interleaved sets of every workload and compare them against BENCHMARK.json's bounds")
	sets := flag.Int("sets", 2, "selfcheck: sets to interleave")
	runs := flag.Int("runs", 5, "selfcheck: runs per set per workload")
	flag.Parse()

	if runtime.NumCPU() < numClients || runtime.GOMAXPROCS(0) < numClients {
		fmt.Fprintf(os.Stderr, "e2e: %d closed-loop clients need at least %d cores (have %d, GOMAXPROCS %d); refusing to measure\n",
			numClients, numClients, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(selfCheck(*sets, *runs, *seconds))
	}
	sp, ok := findSpec(*workload)
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q or non-positive -seconds\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	res, rep, err := execute(sp, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %s seed %d: INCORRECT: %v\n", sp.Name, *seed, err)
		os.Exit(1)
	}
	if *layers != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*layers, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: writing %s: %v\n", *layers, err)
			os.Exit(1)
		}
	}
	// Two lines, never interleaved: the report (without the metric maps,
	// which the result line carries), then the result.
	rep.EndToEnd, rep.PerLayer, rep.Spans = nil, nil, nil
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(rep); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		os.Exit(1)
	}
}
