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

// AdmissionConfig tunes the Mux's gate. Its three values are all the gate
// takes: at most 2×MaxInFlight requests wait per action, and every
// Overloaded fault carries RetryAfterMs = QueueWait.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrently dispatched requests (<=0: 256).
	MaxInFlight int
	// QueueWait bounds how long one request may wait for an in-flight
	// slot before being rejected (<=0: 500ms).
	QueueWait time.Duration
	// FreshFor is the staleness window for sheddable requests: one whose
	// envelope Sent timestamp is older than this is shed rather than
	// queued (<=0: 10s). Only consulted when the gate is contended.
	FreshFor time.Duration
}

// WithDefaults returns c with each value <= 0 replaced by its default.
func (c AdmissionConfig) WithDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 500 * time.Millisecond
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

	// canShed, when non-nil, reports that a contended envelope carries
	// no state change, so it may be shed once older than FreshFor.
	canShed func(*Envelope) bool

	admitted, enqueued, rejected, timeouts, shed atomic.Uint64
	inFlight, peak                               atomic.Int64

	// now is stubbed by tests to age envelopes deterministically.
	now func() time.Time
}

// SetAdmission installs the admission gate, replacing any installed
// before; call it before serving traffic. canShed is the gate's one shed
// classifier, consulted only when the gate is contended: when it reports
// that an envelope carries no state change, a request older than FreshFor
// is shed instead of queued. A nil canShed sheds nothing.
func (m *Mux) SetAdmission(cfg AdmissionConfig, canShed func(*Envelope) bool) {
	cfg = cfg.WithDefaults()
	g := &gate{
		cfg:     cfg,
		slot:    make(chan struct{}, cfg.MaxInFlight),
		queued:  make(map[string]int),
		canShed: canShed,
		now:     time.Now,
	}
	m.mu.Lock()
	m.gate = g
	m.mu.Unlock()
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
		return g.overloaded("wire: stale %s shed under load", env.Action)
	}

	// Each action may queue twice as many waiters as can dispatch at once.
	maxQueued := 2 * g.cfg.MaxInFlight
	g.mu.Lock()
	if g.queued[env.Action] >= maxQueued {
		g.mu.Unlock()
		g.rejected.Add(1)
		return g.overloaded("wire: %s queue full (%d waiting)", env.Action, maxQueued)
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
	select {
	case g.slot <- struct{}{}:
		g.admit()
		return nil
	case <-timer.C:
		g.timeouts.Add(1)
		return g.overloaded("wire: %s waited %s for capacity", env.Action, g.cfg.QueueWait)
	case <-ctx.Done():
		// The caller stopped waiting; answer with its own context error
		// code rather than Overloaded so it is not retried.
		g.timeouts.Add(1)
		return &Fault{Code: faultCode(ctx.Err()), Message: ctx.Err().Error()}
	}
}

// overloaded is the fault of a turned-away envelope; every one carries
// the same backoff hint, QueueWait.
func (g *gate) overloaded(format string, args ...any) *Fault {
	return &Fault{
		Code:         FaultOverloaded,
		Message:      fmt.Sprintf(format, args...),
		RetryAfterMs: g.cfg.QueueWait.Milliseconds(),
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
	if g.canShed == nil || env.Sent <= 0 {
		return false
	}
	age := g.now().Sub(time.UnixMilli(env.Sent))
	return age > g.cfg.FreshFor && g.canShed(env)
}
