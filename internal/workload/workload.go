// Package workload generates the job mixes used in the paper's evaluation:
// uniform fixed-length batches (Figure 7's throughput sweeps), the
// two-to-one mixed workload of §5.1.3 and §5.2.3 (Figures 11, 12, 15, 16),
// and pulsed submission schedules (§5.2.2's twenty batches at five-minute
// intervals). internal/experiments sizes them to the paper's figures.
package workload

import (
	"time"
)

// Batch is one homogeneous group of jobs.
type Batch struct {
	// Owner submits the batch.
	Owner string
	// Count is the number of identical jobs.
	Count int
	// Length is each job's execution time.
	Length time.Duration
	// MinMemoryMB constrains placement (0 = none).
	MinMemoryMB int64
	// Priority orders scheduling (higher first; 0 means default).
	Priority float64
	// DependsOnPrev blocks this batch until the previous batch's first
	// job completes (models §5.1.3's "output of the one-minute jobs serves
	// as the input for the six-minute jobs").
	DependsOnPrev bool
}

// TotalSeconds sums the batch's execution demand.
func (b Batch) TotalSeconds() int64 {
	return int64(b.Count) * int64(b.Length/time.Second)
}

// Uniform builds a single fixed-length batch.
func Uniform(owner string, count int, length time.Duration) []Batch {
	return []Batch{{Owner: owner, Count: count, Length: length}}
}

// Mixed is the §5.2.3 workload shape: shortCount jobs of shortLen plus
// longCount jobs of longLen, no dependencies ("the system can schedule
// jobs in any order").
func Mixed(owner string, shortCount int, shortLen time.Duration, longCount int, longLen time.Duration) []Batch {
	return []Batch{
		{Owner: owner, Count: shortCount, Length: shortLen},
		{Owner: owner, Count: longCount, Length: longLen},
	}
}

// Pulse is one timed submission in a pulsed schedule.
type Pulse struct {
	// At is the submission offset from experiment start.
	At time.Duration
	// Batch is what gets submitted.
	Batch Batch
}

// Pulsed spreads count jobs across n batches submitted every interval —
// §5.2.2's ramp-up ("20 batches of 2,500 jobs each at five minute
// intervals").
func Pulsed(owner string, total, batches int, length, interval time.Duration) []Pulse {
	per := total / batches
	out := make([]Pulse, 0, batches)
	remaining := total
	for i := 0; i < batches; i++ {
		n := per
		if i == batches-1 {
			n = remaining
		}
		out = append(out, Pulse{
			At:    time.Duration(i) * interval,
			Batch: Batch{Owner: owner, Count: n, Length: length},
		})
		remaining -= n
	}
	return out
}
