package sim

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"condorj2/internal/vtime"
)

func TestEngineStartsAtEpoch(t *testing.T) {
	e := New(1)
	if !e.Now().Equal(vtime.Epoch) {
		t.Fatalf("Now() = %v, want %v", e.Now(), vtime.Epoch)
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New(1)
	var fired time.Time
	e.After(5*time.Second, "tick", func() { fired = e.Now() })
	e.Run()
	want := vtime.Epoch.Add(5 * time.Second)
	if !fired.Equal(want) {
		t.Fatalf("event fired at %v, want %v", fired, want)
	}
	if !e.Now().Equal(want) {
		t.Fatalf("clock = %v, want %v", e.Now(), want)
	}
}

func TestSameInstantFiresInScheduleOrder(t *testing.T) {
	e := New(1)
	var order []int
	at := vtime.Epoch.Add(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		e.At(at, "evt", func() { order = append(order, i) })
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (full order %v)", i, got, i, order)
		}
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New(1)
	var order []time.Duration
	delays := []time.Duration{7 * time.Second, 2 * time.Second, 9 * time.Second, 2 * time.Second, 1 * time.Millisecond}
	for _, d := range delays {
		d := d
		e.After(d, "evt", func() { order = append(order, d) })
	}
	e.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events out of order: %v", order)
		}
	}
	if len(order) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(order), len(delays))
	}
}

func TestSchedulingInPastFiresNow(t *testing.T) {
	e := New(1)
	var fired time.Time
	e.After(time.Minute, "outer", func() {
		e.At(vtime.Epoch, "past", func() { fired = e.Now() })
	})
	e.Run()
	want := vtime.Epoch.Add(time.Minute)
	if !fired.Equal(want) {
		t.Fatalf("past event fired at %v, want clamped to %v", fired, want)
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	timer := e.After(time.Second, "evt", func() { fired = true })
	if !timer.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if timer.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestTickerFiresAtInterval(t *testing.T) {
	e := New(1)
	var at []time.Duration
	tk := e.Every(10*time.Second, "hb", func() {
		at = append(at, e.Now().Sub(vtime.Epoch))
	})
	e.RunUntil(vtime.Epoch.Add(35 * time.Second))
	tk.Stop()
	e.Run()
	want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second}
	if len(at) != len(want) {
		t.Fatalf("ticker fired %d times (%v), want %d", len(at), at, len(want))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestTickerStopInsideHandler(t *testing.T) {
	e := New(1)
	n := 0
	var tk *Ticker
	tk = e.Every(time.Second, "once", func() {
		n++
		tk.Stop()
	})
	e.Run()
	if n != 1 {
		t.Fatalf("ticker fired %d times after in-handler Stop, want 1", n)
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	e := New(1)
	deadline := vtime.Epoch.Add(time.Hour)
	e.After(2*time.Hour, "late", func() {})
	e.RunUntil(deadline)
	if !e.Now().Equal(deadline) {
		t.Fatalf("clock = %v, want %v", e.Now(), deadline)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (late event must remain)", e.Pending())
	}
}

func TestHaltStopsRun(t *testing.T) {
	e := New(1)
	n := 0
	for i := 0; i < 100; i++ {
		e.After(time.Duration(i)*time.Second, "evt", func() {
			n++
			if n == 10 {
				e.Halt()
			}
		})
	}
	e.Run()
	if n != 10 {
		t.Fatalf("fired %d events, want 10 after Halt", n)
	}
}

func TestDeterministicRNG(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same-seed engines diverged")
		}
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and every event fires exactly once.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		var fired []time.Time
		for _, d := range delays {
			e.After(time.Duration(d)*time.Millisecond, "evt", func() {
				fired = append(fired, e.Now())
			})
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never leaves the clock before the deadline and never
// fires an event scheduled after it.
func TestPropertyRunUntil(t *testing.T) {
	f := func(delays []uint16, horizon uint16) bool {
		e := New(3)
		deadline := vtime.Epoch.Add(time.Duration(horizon) * time.Millisecond)
		late := 0
		for _, d := range delays {
			at := vtime.Epoch.Add(time.Duration(d) * time.Millisecond)
			if at.After(deadline) {
				late++
			}
			e.At(at, "evt", func() {})
		}
		e.RunUntil(deadline)
		return e.Now().Equal(deadline) && e.Pending() == late
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(1)
		for j := 0; j < 1000; j++ {
			e.After(time.Duration(j)*time.Millisecond, "evt", func() {})
		}
		e.Run()
	}
}

func TestOnEventHookObservesDispatch(t *testing.T) {
	e := New(1)
	var names []string
	e.OnEvent = func(at time.Time, name string) { names = append(names, name) }
	e.After(time.Second, "first", func() {})
	e.After(2*time.Second, "second", func() {})
	e.Run()
	if len(names) != 2 || names[0] != "first" || names[1] != "second" {
		t.Fatalf("observed = %v", names)
	}
}

// RunRealtime fires events no earlier than their wall-clock instants, in
// order, returns nil on an empty queue and ctx's error when cancelled.
func TestRunRealtimeFollowsTheWallClock(t *testing.T) {
	start := time.Now()
	e := NewAt(start, 1)
	var fired []time.Duration
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond} {
		e.After(d, "evt", func() { fired = append(fired, time.Since(start)) })
	}
	if err := e.RunRealtime(context.Background()); err != nil {
		t.Fatalf("drained queue returned %v", err)
	}
	if len(fired) != 2 || fired[0] < 10*time.Millisecond || fired[1] < 30*time.Millisecond || fired[1] < fired[0] {
		t.Fatalf("fired at %v, want ≥10ms then ≥30ms", fired)
	}

	e.After(time.Hour, "never", func() { t.Error("an event an hour away fired") })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.RunRealtime(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, the unfired event must stay queued", e.Pending())
	}
}

// A handler that overruns (a blocked network call) must not be followed by
// a burst: what it schedules is paced from when it ran.
func TestRunRealtimeDoesNotBurstAfterAnOverrun(t *testing.T) {
	e := NewAt(time.Now(), 1)
	ticks := 0
	var tick func()
	tick = func() {
		if ticks++; ticks == 1 {
			time.Sleep(60 * time.Millisecond) // 12 periods late
		}
		e.After(5*time.Millisecond, "tick", tick)
	}
	e.After(0, "tick", tick)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	e.RunRealtime(ctx)
	// 60ms blocked + 40ms at one tick per 5ms: about 9, never the 20 a
	// catch-up would fire.
	if ticks > 12 {
		t.Fatalf("%d ticks in 100ms with a 60ms overrun: the engine replayed the missed periods", ticks)
	}
}
