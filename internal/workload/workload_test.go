package workload

import (
	"testing"
	"time"
)

// The Figure 11/12 mix as internal/experiments builds it: 6,480 one-minute
// and 1,620 six-minute jobs.
func TestPaperMixed540Arithmetic(t *testing.T) {
	bs := Mixed("u", 6480, time.Minute, 1620, 6*time.Minute)
	var jobs int
	var totalSec int64
	for _, b := range bs {
		jobs += b.Count
		totalSec += b.TotalSeconds()
	}
	if jobs != 8100 {
		t.Fatalf("jobs = %d, want 8100", jobs)
	}
	if totalSec != 16200*60 {
		t.Fatalf("total = %d sec, want 16,200 minutes", totalSec)
	}
	// Average job length must be two minutes (the paper's arithmetic).
	if avg := totalSec / int64(jobs); avg != 120 {
		t.Fatalf("avg = %d sec", avg)
	}
}

// The Figure 15/16 mix: 2,160 one-minute and 540 six-minute jobs.
func TestPaperMixed180Arithmetic(t *testing.T) {
	bs := Mixed("u", 2160, time.Minute, 540, 6*time.Minute)
	var jobs int
	var totalSec int64
	for _, b := range bs {
		jobs += b.Count
		totalSec += b.TotalSeconds()
	}
	if jobs != 2700 || totalSec != 5400*60 {
		t.Fatalf("jobs = %d, total = %d", jobs, totalSec)
	}
	// 5,400 minutes over 180 VMs = 30 minutes optimal.
	if opt := totalSec / 60 / 180; opt != 30 {
		t.Fatalf("optimal = %d min", opt)
	}
}

func TestPulsedSchedule(t *testing.T) {
	pulses := Pulsed("u", 50000, 20, 150*time.Minute, 5*time.Minute)
	if len(pulses) != 20 {
		t.Fatalf("pulses = %d", len(pulses))
	}
	total := 0
	for i, p := range pulses {
		total += p.Batch.Count
		if want := time.Duration(i) * 5 * time.Minute; p.At != want {
			t.Fatalf("pulse %d at %v, want %v", i, p.At, want)
		}
	}
	if total != 50000 {
		t.Fatalf("total = %d", total)
	}
}

func TestPulsedUnevenRemainder(t *testing.T) {
	pulses := Pulsed("u", 10, 3, time.Minute, time.Minute)
	total := 0
	for _, p := range pulses {
		total += p.Batch.Count
	}
	if total != 10 {
		t.Fatalf("total = %d, want all jobs submitted", total)
	}
}
