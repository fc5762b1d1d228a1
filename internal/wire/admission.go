package wire

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Server-side admission control: a bounded in-flight gate on the Mux with
// per-action queue caps. Requests beyond the in-flight bound wait briefly
// in a per-action queue; when the queue is full or the wait expires, the
// server answers a typed Overloaded fault carrying RetryAfterMs instead of
// queueing without bound — bounded latency under overload, and backoff
// coordinated from the server side. Sheddable requests (periodic,
// delta-free heartbeats) that aged past a freshness window are dropped
// outright: a stale heartbeat's information is worthless, and the node
// will send a fresh one anyway.

// AdmissionConfig tunes the Mux's gate.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrently dispatched requests (<=0: 256).
	MaxInFlight int
	// MaxQueued bounds waiters per action (<=0: 2*MaxInFlight).
	MaxQueued int
	// QueueWait bounds how long one request may wait for an in-flight
	// slot before being rejected (<=0: 500ms).
	QueueWait time.Duration
	// RetryAfter is the backoff hint attached to Overloaded faults
	// (<=0: QueueWait).
	RetryAfter time.Duration
	// FreshFor is the staleness window for sheddable requests: one whose
	// envelope Sent timestamp is older than this is shed rather than
	// queued (<=0: 10s). Only consulted when the gate is contended.
	FreshFor time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 2 * c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 500 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = c.QueueWait
	}
	if c.FreshFor <= 0 {
		c.FreshFor = 10 * time.Second
	}
	return c
}

// AdmissionStats snapshots the gate's counters.
type AdmissionStats struct {
	// Admitted counts requests that got an in-flight slot.
	Admitted uint64
	// Queued counts requests that had to wait for a slot first.
	Queued uint64
	// Rejected counts requests turned away because an action's queue was
	// at its cap.
	Rejected uint64
	// QueueTimeouts counts requests whose queue wait expired.
	QueueTimeouts uint64
	// ShedStale counts sheddable requests dropped for staleness.
	ShedStale uint64
	// InFlight is the current dispatch concurrency (gauge).
	InFlight int64
	// PeakInFlight is the highest concurrency observed.
	PeakInFlight int64
}

type gate struct {
	cfg  AdmissionConfig
	slot chan struct{}

	mu     sync.Mutex
	queued map[string]int // per-action waiters

	shedMu    sync.RWMutex
	sheddable map[string]func(*Envelope) bool

	admitted, enqueued, rejected, timeouts, shed atomic.Uint64
	inFlight, peak                               atomic.Int64

	// now is stubbed by tests to age envelopes deterministically.
	now func() time.Time
}

// SetAdmission installs (or, with a zero MaxInFlight and all-zero config,
// replaces) the admission gate. Call before serving traffic.
func (m *Mux) SetAdmission(cfg AdmissionConfig) {
	cfg = cfg.withDefaults()
	g := &gate{
		cfg:       cfg,
		slot:      make(chan struct{}, cfg.MaxInFlight),
		queued:    make(map[string]int),
		sheddable: make(map[string]func(*Envelope) bool),
		now:       time.Now,
	}
	m.mu.Lock()
	if m.gate != nil {
		// Preserve shed classifiers across reconfiguration.
		m.gate.shedMu.RLock()
		for a, fn := range m.gate.sheddable {
			g.sheddable[a] = fn
		}
		m.gate.shedMu.RUnlock()
	}
	m.gate = g
	m.mu.Unlock()
}

// SetSheddable registers a classifier for one action: when the gate is
// contended and fn reports the decoded envelope carries no state change,
// a request older than the freshness window is shed instead of queued.
func (m *Mux) SetSheddable(action string, fn func(*Envelope) bool) {
	m.mu.RLock()
	g := m.gate
	m.mu.RUnlock()
	if g == nil {
		m.SetAdmission(AdmissionConfig{})
		m.mu.RLock()
		g = m.gate
		m.mu.RUnlock()
	}
	g.shedMu.Lock()
	g.sheddable[action] = fn
	g.shedMu.Unlock()
}

// AdmissionStats snapshots the gate's counters (zero value when no gate
// is installed).
func (m *Mux) AdmissionStats() AdmissionStats {
	m.mu.RLock()
	g := m.gate
	m.mu.RUnlock()
	if g == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		Admitted:      g.admitted.Load(),
		Queued:        g.enqueued.Load(),
		Rejected:      g.rejected.Load(),
		QueueTimeouts: g.timeouts.Load(),
		ShedStale:     g.shed.Load(),
		InFlight:      g.inFlight.Load(),
		PeakInFlight:  g.peak.Load(),
	}
}

// enter acquires an in-flight slot or returns the fault to answer with.
// An admitted envelope (nil fault) must be followed by exactly one leave
// when its dispatch ends.
func (g *gate) enter(ctx context.Context, env *Envelope) *Fault {
	select {
	case g.slot <- struct{}{}:
		g.admit()
		return nil
	default:
	}

	// Contended. Stale, delta-free requests are shed — their information
	// aged out in flight and the sender will produce a fresh one.
	if g.isStaleSheddable(env) {
		g.shed.Add(1)
		return &Fault{
			Code:         FaultOverloaded,
			Message:      fmt.Sprintf("wire: stale %s shed under load", env.Action),
			RetryAfterMs: g.cfg.RetryAfter.Milliseconds(),
		}
	}

	g.mu.Lock()
	if g.queued[env.Action] >= g.cfg.MaxQueued {
		g.mu.Unlock()
		g.rejected.Add(1)
		return &Fault{
			Code:         FaultOverloaded,
			Message:      fmt.Sprintf("wire: %s queue full (%d waiting)", env.Action, g.cfg.MaxQueued),
			RetryAfterMs: g.cfg.RetryAfter.Milliseconds(),
		}
	}
	g.queued[env.Action]++
	g.mu.Unlock()
	g.enqueued.Add(1)
	defer func() {
		g.mu.Lock()
		g.queued[env.Action]--
		g.mu.Unlock()
	}()

	timer := time.NewTimer(g.cfg.QueueWait)
	defer timer.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case g.slot <- struct{}{}:
		g.admit()
		return nil
	case <-timer.C:
		g.timeouts.Add(1)
		return &Fault{
			Code:         FaultOverloaded,
			Message:      fmt.Sprintf("wire: %s waited %s for capacity", env.Action, g.cfg.QueueWait),
			RetryAfterMs: g.cfg.RetryAfter.Milliseconds(),
		}
	case <-done:
		// The caller stopped waiting; answer with its own context error
		// code rather than Overloaded so it is not retried.
		g.timeouts.Add(1)
		return &Fault{Code: faultCode(ctx.Err()), Message: ctx.Err().Error()}
	}
}

// admit counts an envelope that took a slot.
func (g *gate) admit() {
	g.admitted.Add(1)
	n := g.inFlight.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
}

// leave gives back the slot an admitted envelope took.
func (g *gate) leave() {
	g.inFlight.Add(-1)
	<-g.slot
}

func (g *gate) isStaleSheddable(env *Envelope) bool {
	if env.Sent <= 0 {
		return false
	}
	age := g.now().Sub(time.UnixMilli(env.Sent))
	if age <= g.cfg.FreshFor {
		return false
	}
	g.shedMu.RLock()
	fn := g.sheddable[env.Action]
	g.shedMu.RUnlock()
	return fn != nil && fn(env)
}
