package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (exclusive method), which is
// what the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runOnce executes this binary on one workload and parses its two output
// lines.
func runOnce(workload string, seed int, seconds float64) (*report, *result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("%s seed %d: expected two output lines, got %d", workload, seed, len(lines))
	}
	var rep report
	var res result
	if err := json.Unmarshal(lines[len(lines)-2], &rep); err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, err
	}
	return &rep, &res, nil
}

// selfCheck measures the current tree against itself: sets of runs,
// interleaved A B C A B C so drift hits all alike, every run on its own
// seed. It prints each set's median and quartiles for every end-to-end
// metric of every workload and fails if two sets' medians disagree by
// more than the metric's bound, if a set's interquartile spread exceeds
// the bound (setup_s excepted, as in the driver), or if the runs were
// themselves too noisy (median round spread above 40 %), or if any
// exchange failed. Its output is where BENCHMARK.json's bounds come from.
func selfCheck(sets, runs int, seconds float64) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "selfcheck: run from the repository root: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "selfcheck: BENCHMARK.json: %v\n", err)
		return 2
	}
	if sets < 2 || runs < 5 {
		fmt.Fprintln(os.Stderr, "selfcheck: at least 2 sets of at least 5 runs")
		return 2
	}
	failures := 0
	for _, w := range bf.Workloads {
		values := make([]map[string][]float64, sets) // set → metric → one value per run
		spreads := make([][]float64, sets)
		attempted, failed := 0, 0
		for i := 0; i < sets*runs; i++ {
			rep, res, err := runOnce(w.Name, 1000+i, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "selfcheck: %v\n", err)
				return 1
			}
			s := i % sets
			if values[s] == nil {
				values[s] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[s][name] = append(values[s][name], m.Value)
			}
			spreads[s] = append(spreads[s], rep.RoundSpreadPct)
			attempted += res.Attempted
			failed += res.Failed
		}
		fmt.Printf("%s (%d sets of %d runs, -seconds %g): %d of %d exchanges failed\n",
			w.Name, sets, runs, seconds, failed, attempted)
		if failed > 0 {
			failures++
		}
		fmt.Printf("  %-17s %3s %11s %11s %11s %7s\n", "metric", "set", "q1", "median", "q3", "iqr%")
		for _, m := range bf.EndToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			bad := false
			for s := range values {
				q1, q2, q3 := quartiles(values[s][m.Name])
				iqr := (q3 - q1) / q2
				lo, hi = math.Min(lo, q2), math.Max(hi, q2)
				bad = bad || (m.Name != "setup_s" && iqr > m.Bound)
				fmt.Printf("  %-17s %3c %11.5g %11.5g %11.5g %7.2f\n", m.Name, 'A'+s, q1, q2, q3, 100*iqr)
			}
			gap := (hi - lo) / lo
			verdict := "ok"
			if bad || gap > m.Bound {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("  %-17s largest gap between medians %.2f%%, bound %.0f%%: %s\n", m.Name, 100*gap, 100*m.Bound, verdict)
		}
		for s := range spreads {
			_, med, _ := quartiles(spreads[s])
			verdict := "ok"
			if med > 40 {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("  harness.round_spread_pct set %c median %.1f: %s\n", 'A'+s, med, verdict)
		}
	}
	if failures > 0 {
		fmt.Printf("selfcheck: %d metrics beyond their bounds\n", failures)
		return 1
	}
	fmt.Println("selfcheck: every set agrees with every other within every bound")
	return 0
}
