// Package metrics implements the measurement substrate used by the paper's
// evaluation: CPU cycle accounting split into User, System, IO-wait and Idle
// categories (paper Figures 9, 10 and 14), interval sampling equivalent to
// the authors' once-a-minute /proc scrapes, rolling averages, and plain-text
// chart rendering for regenerated figures.
package metrics

import (
	"fmt"
	"sort"
	"time"
)

// CPUKind classifies where cycles were spent, mirroring the categories the
// paper collected from /proc: User (actual computation), System (kernel
// mode), IO (waiting for the disk). Idle is derived.
type CPUKind int

const (
	// User cycles are spent doing actual computation.
	User CPUKind = iota
	// System cycles are spent executing in kernel mode.
	System
	// IO cycles are spent waiting for the disk.
	IO
	numKinds
)

// String returns the paper's label for the category.
func (k CPUKind) String() string {
	switch k {
	case User:
		return "User"
	case System:
		return "System"
	case IO:
		return "IO"
	default:
		return fmt.Sprintf("CPUKind(%d)", int(k))
	}
}

// CPUAccount accumulates simulated CPU time on a machine with a fixed
// number of cores and buckets it into fixed-width sampling intervals, the
// way the paper's measurement process woke up once a minute and pulled
// statistics from /proc.
//
// CPUAccount is not safe for concurrent use; in simulations all accounting
// happens on the single event-loop goroutine.
type CPUAccount struct {
	start    time.Time
	interval time.Duration
	cores    int
	buckets  map[int]*[numKinds]time.Duration
	maxIdx   int
	total    [numKinds]time.Duration
}

// NewCPUAccount creates an account for a machine with the given core count.
// interval is the sampling bucket width (the paper used one minute).
func NewCPUAccount(start time.Time, interval time.Duration, cores int) *CPUAccount {
	if cores <= 0 {
		panic("metrics: cores must be positive")
	}
	if interval <= 0 {
		panic("metrics: interval must be positive")
	}
	return &CPUAccount{
		start:    start,
		interval: interval,
		cores:    cores,
		buckets:  make(map[int]*[numKinds]time.Duration),
	}
}

// Charge records that d of CPU time of the given kind was consumed at
// instant at. Work longer than one interval is spread across consecutive
// buckets so a long burst shows up as sustained utilization rather than an
// impossible >100% spike.
func (a *CPUAccount) Charge(at time.Time, kind CPUKind, d time.Duration) {
	if d <= 0 {
		return
	}
	a.total[kind] += d
	for d > 0 {
		idx := a.bucketIndex(at)
		b := a.bucket(idx)
		// Remaining room in this bucket before the interval boundary.
		boundary := a.start.Add(time.Duration(idx+1) * a.interval)
		room := boundary.Sub(at)
		if room <= 0 {
			room = a.interval
		}
		chunk := d
		if chunk > room {
			chunk = room
		}
		b[kind] += chunk
		d -= chunk
		at = boundary
	}
}

func (a *CPUAccount) bucketIndex(at time.Time) int {
	idx := int(at.Sub(a.start) / a.interval)
	if idx < 0 {
		idx = 0
	}
	if idx > a.maxIdx {
		a.maxIdx = idx
	}
	return idx
}

func (a *CPUAccount) bucket(idx int) *[numKinds]time.Duration {
	b, ok := a.buckets[idx]
	if !ok {
		b = new([numKinds]time.Duration)
		a.buckets[idx] = b
	}
	return b
}

// Total reports cumulative time charged to kind across all intervals.
func (a *CPUAccount) Total(kind CPUKind) time.Duration { return a.total[kind] }

// Sample is one sampling interval's utilization, in percent of total
// machine capacity (cores × interval). User+System+IO+Idle = 100.
type Sample struct {
	Start  time.Time
	User   float64
	System float64
	IO     float64
	Idle   float64
}

// Busy is the non-idle percentage.
func (s Sample) Busy() float64 { return s.User + s.System + s.IO }

// Samples returns one Sample per interval from the account's start through
// the given end instant (inclusive of the interval containing end).
// Intervals with no recorded activity appear as 100% idle.
func (a *CPUAccount) Samples(end time.Time) []Sample {
	last := int(end.Sub(a.start) / a.interval)
	if last < a.maxIdx {
		last = a.maxIdx
	}
	capacity := a.interval * time.Duration(a.cores)
	out := make([]Sample, 0, last+1)
	for i := 0; i <= last; i++ {
		s := Sample{Start: a.start.Add(time.Duration(i) * a.interval)}
		if b, ok := a.buckets[i]; ok {
			s.User = pct(b[User], capacity)
			s.System = pct(b[System], capacity)
			s.IO = pct(b[IO], capacity)
		}
		s.Idle = 100 - s.User - s.System - s.IO
		if s.Idle < 0 {
			// Oversubscribed interval: clamp, preserving the busy split.
			scale := 100 / (s.User + s.System + s.IO)
			s.User *= scale
			s.System *= scale
			s.IO *= scale
			s.Idle = 0
		}
		out = append(out, s)
	}
	return out
}

func pct(d, capacity time.Duration) float64 {
	return 100 * float64(d) / float64(capacity)
}

// Rolling smooths samples with a trailing window of w intervals, matching
// the paper's "five-minute rolling averages" in Figure 10.
func Rolling(in []Sample, w int) []Sample {
	if w <= 1 || len(in) == 0 {
		return in
	}
	out := make([]Sample, len(in))
	var su, ss, si float64
	for i := range in {
		su += in[i].User
		ss += in[i].System
		si += in[i].IO
		if i >= w {
			su -= in[i-w].User
			ss -= in[i-w].System
			si -= in[i-w].IO
		}
		n := float64(min(i+1, w))
		out[i] = Sample{
			Start:  in[i].Start,
			User:   su / n,
			System: ss / n,
			IO:     si / n,
		}
		out[i].Idle = 100 - out[i].Busy()
	}
	return out
}

// Counter is a monotonically increasing event counter bucketed by interval,
// used for job-completion (turnover) rates in Figures 12 and 13.
type Counter struct {
	start    time.Time
	interval time.Duration
	buckets  map[int]int
	maxIdx   int
	total    int
}

// NewCounter creates a Counter with the given bucket width.
func NewCounter(start time.Time, interval time.Duration) *Counter {
	if interval <= 0 {
		panic("metrics: interval must be positive")
	}
	return &Counter{start: start, interval: interval, buckets: make(map[int]int)}
}

// Add records n occurrences at instant at.
func (c *Counter) Add(at time.Time, n int) {
	idx := int(at.Sub(c.start) / c.interval)
	if idx < 0 {
		idx = 0
	}
	if idx > c.maxIdx {
		c.maxIdx = idx
	}
	c.buckets[idx] += n
	c.total += n
}

// Total reports the count across all buckets.
func (c *Counter) Total() int { return c.total }

// Point is an (elapsed time, value) pair of a rate series.
type Point struct {
	Elapsed time.Duration
	Value   float64
}

// RatePerSecond returns the per-second rate in each interval through end.
func (c *Counter) RatePerSecond(end time.Time) []Point {
	last := int(end.Sub(c.start) / c.interval)
	if last < c.maxIdx {
		last = c.maxIdx
	}
	out := make([]Point, 0, last+1)
	for i := 0; i <= last; i++ {
		out = append(out, Point{
			Elapsed: time.Duration(i) * c.interval,
			Value:   float64(c.buckets[i]) / c.interval.Seconds(),
		})
	}
	return out
}

// PerInterval returns the raw per-interval counts through end.
func (c *Counter) PerInterval(end time.Time) []Point {
	last := int(end.Sub(c.start) / c.interval)
	if last < c.maxIdx {
		last = c.maxIdx
	}
	out := make([]Point, 0, last+1)
	for i := 0; i <= last; i++ {
		out = append(out, Point{Elapsed: time.Duration(i) * c.interval, Value: float64(c.buckets[i])})
	}
	return out
}

// Gauge records a step function of a level over time (e.g. jobs in
// progress, Figures 11, 15, 16) and can be sampled at interval boundaries.
type Gauge struct {
	changes []gaugeChange
	value   float64
}

type gaugeChange struct {
	at time.Time
	v  float64
}

// Set records the gauge's value from instant at onward. Calls must be in
// non-decreasing time order.
func (g *Gauge) Set(at time.Time, v float64) {
	g.value = v
	g.changes = append(g.changes, gaugeChange{at, v})
}

// Add adjusts the current value by delta from instant at onward.
func (g *Gauge) Add(at time.Time, delta float64) { g.Set(at, g.value+delta) }

// Value reports the current level.
func (g *Gauge) Value() float64 { return g.value }

// SampleAt reports the gauge's value as of instant at.
func (g *Gauge) SampleAt(at time.Time) float64 {
	i := sort.Search(len(g.changes), func(i int) bool { return g.changes[i].at.After(at) })
	if i == 0 {
		return 0
	}
	return g.changes[i-1].v
}

// Series samples the gauge every interval from start through end.
func (g *Gauge) Series(start, end time.Time, interval time.Duration) []Point {
	var out []Point
	for at := start; !at.After(end); at = at.Add(interval) {
		out = append(out, Point{Elapsed: at.Sub(start), Value: g.SampleAt(at)})
	}
	return out
}
