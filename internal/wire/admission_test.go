package wire

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockMux returns a mux whose "work" and "other" handlers park until
// release is closed, so tests can hold in-flight slots at will.
func blockMux() (mux *Mux, entered chan struct{}, release chan struct{}) {
	mux = NewMux()
	entered = make(chan struct{}, 1024)
	release = make(chan struct{})
	h := func(ctx context.Context, env *Envelope, reply *Reply) error {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return ctx.Err()
		}
		return reply.Encode(&pingResp{Greeting: "done"})
	}
	mux.Handle("work", h)
	mux.Handle("other", h)
	return mux, entered, release
}

func TestAdmissionOverloadedFaultWhenQueueFull(t *testing.T) {
	mux, entered, release := blockMux()
	const wait = 1234 * time.Millisecond
	mux.SetAdmission(AdmissionConfig{MaxInFlight: 1, QueueWait: wait}, nil)
	local := &Local{Mux: mux}

	// Occupy the single in-flight slot.
	go local.Call(context.Background(), "work", &pingReq{}, nil)
	<-entered

	// Fill the action's two queue slots (2 × MaxInFlight).
	queuedErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			queuedErr <- local.Call(context.Background(), "work", &pingReq{}, nil)
		}()
	}
	waitFor(t, func() bool { return mux.AdmissionStats().Queued == 2 })

	// The next concurrent request must be rejected with a typed Overloaded
	// fault whose RetryAfterMs is the QueueWait.
	err := local.Call(context.Background(), "work", &pingReq{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.Code != FaultOverloaded || f.RetryAfterMs != wait.Milliseconds() {
		t.Fatalf("fault = %+v", f)
	}
	if !Retryable(err) {
		t.Fatal("Overloaded fault must classify retryable")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-queuedErr; err != nil {
			t.Fatalf("queued call: %v", err)
		}
	}
	st := mux.AdmissionStats()
	if st.Rejected != 1 || st.Admitted < 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAdmissionDerivedBounds checks the bounds the gate derives from
// MaxInFlight and QueueWait: each action queues 2 × MaxInFlight waiters,
// the next is rejected with RetryAfterMs = QueueWait, and the cap is per
// action, so another action still queues.
func TestAdmissionDerivedBounds(t *testing.T) {
	mux, entered, release := blockMux()
	const wait = 3 * time.Second
	mux.SetAdmission(AdmissionConfig{MaxInFlight: 1, QueueWait: wait}, nil)
	local := &Local{Mux: mux}
	done := make(chan error, 4)
	call := func(action string) {
		go func() { done <- local.Call(context.Background(), action, &pingReq{}, nil) }()
	}
	call("work")
	<-entered

	call("work")
	call("work")
	waitFor(t, func() bool { return mux.AdmissionStats().Queued == 2 })

	err := local.Call(context.Background(), "work", &pingReq{}, nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultOverloaded || f.RetryAfterMs != wait.Milliseconds() {
		t.Fatalf("third waiter: err = %v, want Overloaded with RetryAfterMs %d", err, wait.Milliseconds())
	}

	call("other")
	waitFor(t, func() bool { return mux.AdmissionStats().Queued == 3 })
	if st := mux.AdmissionStats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}

	close(release)
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("admitted or queued call: %v", err)
		}
	}
}

func TestAdmissionQueueWaitTimesOut(t *testing.T) {
	mux, entered, release := blockMux()
	defer close(release)
	mux.SetAdmission(AdmissionConfig{
		MaxInFlight: 1,
		QueueWait:   30 * time.Millisecond,
	}, nil)
	local := &Local{Mux: mux}
	go local.Call(context.Background(), "work", &pingReq{}, nil)
	<-entered

	start := time.Now()
	err := local.Call(context.Background(), "work", &pingReq{}, nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultOverloaded {
		t.Fatalf("err = %v, want Overloaded after queue wait", err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("rejected after %v, before QueueWait elapsed", el)
	}
	if st := mux.AdmissionStats(); st.QueueTimeouts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAdmissionShedsStaleSheddable(t *testing.T) {
	mux, entered, release := blockMux()
	defer close(release)
	mux.SetAdmission(AdmissionConfig{
		MaxInFlight: 1,
		QueueWait:   time.Second,
		FreshFor:    50 * time.Millisecond,
	}, func(env *Envelope) bool { return env.Action == "work" })
	local := &Local{Mux: mux}
	go local.Call(context.Background(), "work", &pingReq{}, nil)
	<-entered

	// Age envelopes artificially: the gate's clock runs a minute ahead,
	// so every freshly sent request looks stale.
	mux.mu.RLock()
	g := mux.gate
	mux.mu.RUnlock()
	g.now = func() time.Time { return time.Now().Add(time.Minute) }

	err := local.Call(context.Background(), "work", &pingReq{}, nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultOverloaded {
		t.Fatalf("err = %v, want shed Overloaded", err)
	}
	if f.RetryAfterMs != 1000 {
		t.Fatalf("RetryAfterMs = %d", f.RetryAfterMs)
	}
	if st := mux.AdmissionStats(); st.ShedStale != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A fresh envelope (young clock) queues instead of being shed.
	g.now = time.Now
	done := make(chan error, 1)
	go func() { done <- local.Call(context.Background(), "work", &pingReq{}, nil) }()
	waitFor(t, func() bool { return mux.AdmissionStats().Queued == 1 })
}

func TestAdmissionBoundsConcurrency(t *testing.T) {
	const maxInFlight = 4
	mux := NewMux()
	var cur, peak atomic.Int64
	mux.Handle("work", func(ctx context.Context, env *Envelope, reply *Reply) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return reply.Encode(&pingResp{})
	})
	mux.SetAdmission(AdmissionConfig{
		MaxInFlight: maxInFlight,
		QueueWait:   5 * time.Second,
	}, nil)
	local := &Local{Mux: mux}

	// Twice as many callers as slots: the gate is contended throughout,
	// yet however the callers interleave, fewer than the action's queue
	// cap (2 × MaxInFlight) can be waiting, so no call may be turned away.
	const callers, calls = 2 * maxInFlight, 4
	var wg sync.WaitGroup
	var failed atomic.Uint64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				if err := local.Call(context.Background(), "work", &pingReq{}, nil); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d calls failed within the queue cap", failed.Load())
	}
	if p := peak.Load(); p > maxInFlight {
		t.Fatalf("observed concurrency %d > MaxInFlight %d", p, maxInFlight)
	}
	st := mux.AdmissionStats()
	if st.Admitted != callers*calls || st.InFlight != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PeakInFlight > maxInFlight {
		t.Fatalf("PeakInFlight = %d", st.PeakInFlight)
	}
}

func TestAdmissionCallerCancelWhileQueued(t *testing.T) {
	mux, entered, release := blockMux()
	defer close(release)
	mux.SetAdmission(AdmissionConfig{
		MaxInFlight: 1,
		QueueWait:   10 * time.Second,
	}, nil)
	local := &Local{Mux: mux}
	go local.Call(context.Background(), "work", &pingReq{}, nil)
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- local.Call(ctx, "work", &pingReq{}, nil) }()
	waitFor(t, func() bool { return mux.AdmissionStats().Queued == 1 })
	cancel()
	err := <-done
	var f *Fault
	if !errors.As(err, &f) || f.Code != "Canceled" {
		t.Fatalf("err = %v, want Canceled fault", err)
	}
	if Retryable(err) {
		t.Fatal("caller's own cancellation must not classify retryable")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}
