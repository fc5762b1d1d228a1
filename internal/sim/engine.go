// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and a priority queue of timestamped
// events. Events scheduled for the same instant fire in scheduling order,
// which — together with a seeded random source — makes every simulation run
// bit-for-bit reproducible. Both cluster management systems in this
// repository (the CondorJ2 CAS and the Condor baseline) are written against
// vtime.Clock, so the engine can drive 10,000-node, multi-hour experiments
// (paper Figures 7-16) in milliseconds of wall time.
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"time"

	"condorj2/internal/vtime"
)

// Event is a unit of scheduled work.
type event struct {
	at   time.Time
	seq  uint64 // tie-break so same-instant events fire in scheduling order
	name string
	fn   func()
	idx  int  // heap index, -1 once popped
	dead bool // cancelled
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event scheduler. It implements
// vtime.Clock. Engines are not safe for concurrent use: all event handlers
// run on the goroutine that calls Run/RunUntil/RunRealtime/Step.
type Engine struct {
	now    time.Time
	queue  eventHeap
	seq    uint64
	rng    *rand.Rand
	halted bool

	// OnEvent, when set, observes every dispatched event (used by the
	// Table 1/2 data-flow tracers). It runs before the event's function.
	OnEvent func(at time.Time, name string)
}

var _ vtime.Clock = (*Engine)(nil)

// New creates an engine whose clock starts at vtime.Epoch, with a random
// source seeded by seed for reproducible runs.
func New(seed int64) *Engine {
	return NewAt(vtime.Epoch, seed)
}

// NewAt creates an engine whose clock starts at the given instant.
func NewAt(start time.Time, seed int64) *Engine {
	return &Engine{now: start, rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending reports how many events are scheduled and not yet fired.
func (e *Engine) Pending() int { return len(e.queue) }

// Timer identifies a scheduled event and allows cancellation.
type Timer struct{ ev *event }

// Stop cancels the timer. It reports whether the event had not yet fired.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.dead || t.ev.idx == -1 {
		return false
	}
	t.ev.dead = true
	return true
}

// At schedules fn to run at instant t. Scheduling in the past (or at the
// current instant) fires the event at the current instant, after all events
// already scheduled for that instant.
func (e *Engine) At(t time.Time, name string, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil event func")
	}
	if t.Before(e.now) {
		t = e.now
	}
	e.seq++
	ev := &event{at: t, seq: e.seq, name: name, fn: fn}
	heap.Push(&e.queue, ev)
	return &Timer{ev: ev}
}

// After schedules fn to run d from now. Negative d means now.
func (e *Engine) After(d time.Duration, name string, fn func()) *Timer {
	return e.At(e.now.Add(d), name, fn)
}

// Ticker repeatedly schedules a function at a fixed interval until stopped.
type Ticker struct {
	e        *Engine
	interval time.Duration
	name     string
	fn       func()
	timer    *Timer
	stopped  bool
}

// Every schedules fn to run every interval, with the first firing one
// interval from now. The returned Ticker can be stopped.
func (e *Engine) Every(interval time.Duration, name string, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	t := &Ticker{e: e, interval: interval, name: name, fn: fn}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.timer = t.e.After(t.interval, t.name, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.schedule()
		}
	})
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.timer != nil {
		t.timer.Stop()
	}
}

// Step fires the single next event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.dead {
			continue
		}
		if ev.at.After(e.now) {
			e.now = ev.at
		}
		if e.OnEvent != nil {
			e.OnEvent(e.now, ev.name)
		}
		ev.fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// RunUntil fires events with timestamps at or before deadline, advances the
// clock to deadline, and returns. Events scheduled after deadline remain
// queued.
func (e *Engine) RunUntil(deadline time.Time) {
	e.halted = false
	for !e.halted {
		next := e.peek()
		if next == nil || next.at.After(deadline) {
			break
		}
		e.Step()
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
}

// RunFor is RunUntil(now + d).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// RunRealtime drives the engine on the wall clock (an engine created with
// NewAt(time.Now(), ...)): it sleeps until the next event is due, then
// fires it, until the queue is empty (nil) or ctx is done (ctx's error).
// A handler that blocks — a network call — makes later events late; the
// clock is brought up to the wall clock before each one fires, so what a
// late handler schedules is paced from when it ran, not from when it was
// due, and a long outage is not followed by a burst of catch-up events.
func (e *Engine) RunRealtime(ctx context.Context) error {
	for {
		next := e.peek()
		if next == nil {
			return nil
		}
		if wait := time.Until(next.at); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		} else if err := ctx.Err(); err != nil {
			return err
		}
		if now := time.Now(); now.After(e.now) {
			e.now = now
		}
		e.Step()
	}
}

// Halt stops Run/RunUntil after the current event handler returns.
func (e *Engine) Halt() { e.halted = true }

func (e *Engine) peek() *event {
	for len(e.queue) > 0 {
		if e.queue[0].dead {
			heap.Pop(&e.queue)
			continue
		}
		return e.queue[0]
	}
	return nil
}
