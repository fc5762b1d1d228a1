package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0<p<1) of samples by nearest rank.
// It refuses a quantile that does not have at least ten samples beyond
// it — p99 under 1000 samples is one or two outliers, not a tail.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	beyond := float64(n) * (1 - p)
	if p < 0.5 {
		beyond = float64(n) * p
	}
	if beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has fewer than ten samples beyond it", p*100, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	return s[rank], nil
}

// median is the plain median of a small set (round values); no sample
// floor applies.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuTime is the process's user+system CPU so far. The CAS runs inside the
// benchmark process, so this includes the two in-process clients.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
