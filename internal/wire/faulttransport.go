package wire

import (
	"context"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
)

// FaultTransport is chaos-injection middleware for any Caller: it drops
// requests before they reach the server, drops replies after the server
// executed (the pair that makes idempotency keys load-bearing — a dropped
// reply means the retry re-presents an already-applied mutation),
// duplicates calls, and injects synthetic HTTP 5xx faults.
// All randomness flows from one seeded source, so a failing schedule is
// reproducible from its seed alone (CHAOS_SEED, like joinfuzz).
type FaultTransport struct {
	// Inner issues the real exchanges.
	Inner Caller

	// DropRequest is the probability the request is lost before the
	// server sees it.
	DropRequest float64
	// DropReply is the probability the reply is lost after the server
	// executed the request — the caller sees a transport error, but the
	// mutation happened.
	DropReply float64
	// Duplicate is the probability the call is issued twice back-to-back
	// (the first reply is discarded).
	Duplicate float64
	// Inject5xx is the probability a synthetic HTTP 503 fault is
	// returned without calling Inner.
	Inject5xx float64

	mu   sync.Mutex
	rand *mrand.Rand

	droppedReq, droppedReply, duplicated, injected, passed atomic.Uint64
}

// NewFaultTransport wraps inner with a fault injector seeded for
// reproducibility; configure the probability fields before use.
func NewFaultTransport(inner Caller, seed int64) *FaultTransport {
	return &FaultTransport{Inner: inner, rand: mrand.New(mrand.NewSource(seed))}
}

// FaultTransportStats snapshots injection counters.
type FaultTransportStats struct {
	DroppedRequests uint64
	DroppedReplies  uint64
	Duplicated      uint64
	Injected5xx     uint64
	Passed          uint64
}

// Stats snapshots how many faults of each kind were injected.
func (f *FaultTransport) Stats() FaultTransportStats {
	return FaultTransportStats{
		DroppedRequests: f.droppedReq.Load(),
		DroppedReplies:  f.droppedReply.Load(),
		Duplicated:      f.duplicated.Load(),
		Injected5xx:     f.injected.Load(),
		Passed:          f.passed.Load(),
	}
}

// roll draws the independent fault decisions for one call under the lock,
// keeping the schedule a pure function of the seed and call order.
func (f *FaultTransport) roll() (dropReq, dropReply, dup, inject bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rand == nil {
		f.rand = mrand.New(mrand.NewSource(1))
	}
	dropReq = f.DropRequest > 0 && f.rand.Float64() < f.DropRequest
	dropReply = f.DropReply > 0 && f.rand.Float64() < f.DropReply
	dup = f.Duplicate > 0 && f.rand.Float64() < f.Duplicate
	inject = f.Inject5xx > 0 && f.rand.Float64() < f.Inject5xx
	return
}

// Call implements Caller with fault injection around Inner.Call.
func (f *FaultTransport) Call(ctx context.Context, action string, req, resp any) error {
	dropReq, dropReply, dup, inject := f.roll()
	if inject {
		f.injected.Add(1)
		return &Fault{Code: "HTTP503", Message: "faulttransport: injected 503"}
	}
	if dropReq {
		f.droppedReq.Add(1)
		return fmt.Errorf("faulttransport: request dropped (%s)", action)
	}
	if dup {
		f.duplicated.Add(1)
		// First issue executes server-side; its reply is discarded.
		_ = f.Inner.Call(ctx, action, req, resp)
	}
	err := f.Inner.Call(ctx, action, req, resp)
	if dropReply {
		f.droppedReply.Add(1)
		return fmt.Errorf("faulttransport: reply dropped (%s)", action)
	}
	if err == nil {
		f.passed.Add(1)
	}
	return err
}
