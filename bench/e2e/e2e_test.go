package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"condorj2/internal/sqldb"
)

const testSeconds = 8

// Every workload, at a hundredth of its size, must pass its own
// correctness gate (reply shapes, final state, recovered state).
func TestWorkloadsPassTheirGateAtSmallScale(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			res, rep, err := execute(sp.scaled(0.01), 7, testSeconds, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v, faults %v", res, rep.Faults)
			}
			if len(rep.Rounds) != timedRounds {
				t.Fatalf("%d rounds, want %d", len(rep.Rounds), timedRounds)
			}
			if sp.PoolPages == 0 && rep.HeapLiveMB <= 0 {
				t.Fatalf("heap_live_mb = %v", rep.HeapLiveMB)
			}
		})
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// The names BENCHMARK.json promises are the names a run prints, with the
// same units, in both modes; names are well formed and the counts stay
// within the driver's limits.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	t.Parallel()
	bj := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(bj.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", n, len(workloads))
	}
	for i, w := range bj.Workloads {
		if !name.MatchString(w.Name) || w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Fatalf("%d per-layer metrics", n)
	}

	sp := workloads[0].scaled(0.01)
	check := func(traced bool, want map[string]string) {
		t.Helper()
		res, _, err := execute(sp, 3, testSeconds, traced, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: run printed %d metrics, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
		}
		for n, unit := range want {
			m, ok := res.Metrics[n]
			if !ok {
				t.Errorf("traced=%v: BENCHMARK.json lists %s but the run does not print it", traced, n)
			} else if m.Unit != unit {
				t.Errorf("%s: unit %q in the run, %q in BENCHMARK.json", n, m.Unit, unit)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	hasSetup := false
	for _, m := range bj.EndToEnd {
		if !name.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		e2e[m.Name] = m.Unit
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range bj.PerLayer {
		if !name.MatchString(m.Name) {
			t.Errorf("per-layer metric name %q", m.Name)
		}
		layers[m.Name] = m.Unit
	}
	if len(e2e) != len(bj.EndToEnd) || len(layers) != len(bj.PerLayer) {
		t.Error("a metric name is used twice")
	}
	check(false, e2e)
	check(true, layers)
}

// The request stream is a function of the seed alone.
func TestPlanIsDeterministicPerSeed(t *testing.T) {
	for _, sp := range workloads {
		a := makePlan(sp, 11, 0, 500).hash()
		if b := makePlan(sp, 11, 0, 500).hash(); a != b {
			t.Errorf("%s: same seed gave plans %x and %x", sp.Name, a, b)
		}
		if b := makePlan(sp, 12, 0, 500).hash(); a == b {
			t.Errorf("%s: seeds 11 and 12 gave the same plan", sp.Name)
		}
		if b := makePlan(sp, 11, 1, 500).hash(); a == b {
			t.Errorf("%s: both clients got the same plan", sp.Name)
		}
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	v := make([]float64, 999)
	for i := range v {
		v[i] = float64(i)
	}
	if _, err := percentile(v, 0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	v = append(v, 999)
	if got, err := percentile(v, 0.99); err != nil || got != 989 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989", got, err)
	}
	if got, err := percentile(v, 0.5); err != nil || got != 499 {
		t.Errorf("p50 of 0..999 = %v, %v; want 499", got, err)
	}
	if _, err := percentile(v[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples was reported")
	}
}

// The crash model: an appended file survives up to its last Sync, a
// random-access file whole, a renamed file under its new name.
func TestCrashImageKeepsTheSyncedPrefix(t *testing.T) {
	d := newDevice(sqldb.NewMemVFS(), "log", 0, nil)
	f, _ := d.Open("log")
	f.Write([]byte("durable"))
	f.Sync()
	f.Write([]byte(" lost"))
	pages, _ := d.OpenRandom("log.pages")
	pages.WriteAt([]byte("page"), 0)
	tmp, _ := d.Create("log.tmp")
	tmp.Write([]byte("staged"))

	img, err := d.crashImage()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"log": "durable", "log.pages": "page", "log.tmp": ""} {
		if got, _ := img.ReadFile(name); string(got) != want {
			t.Errorf("%s after the crash holds %q, want %q", name, got, want)
		}
	}

	tmp.Sync()
	d.Rename("log.tmp", "log")
	img, _ = d.crashImage()
	if got, _ := img.ReadFile("log"); string(got) != "staged" {
		t.Errorf("log after a synced rename holds %q, want %q", got, "staged")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}
