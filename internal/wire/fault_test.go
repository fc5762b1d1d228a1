package wire

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// countMux counts handler executions of "bump" — server-side ground truth
// for what actually ran regardless of what the flaky transport reported.
func countMux() (*Mux, *atomic.Uint64) {
	mux := NewMux()
	var execs atomic.Uint64
	mux.Handle("bump", Typed(func(_ context.Context, req *pingReq, resp *pingResp) error {
		execs.Add(1)
		resp.Doubled = req.N * 2
		return nil
	}))
	return mux, &execs
}

func TestFaultTransportSeedReproducible(t *testing.T) {
	run := func(seed int64) FaultTransportStats {
		mux, _ := countMux()
		ft := NewFaultTransport(&Local{Mux: mux}, seed)
		ft.DropRequest = 0.2
		ft.DropReply = 0.1
		ft.Duplicate = 0.1
		ft.Inject5xx = 0.1
		for i := 0; i < 300; i++ {
			_ = ft.Call(context.Background(), "bump", &pingReq{N: i}, nil)
		}
		return ft.Stats()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := run(43)
	if a == c {
		t.Fatalf("different seeds produced identical schedule: %+v", a)
	}
	if a.DroppedRequests == 0 || a.DroppedReplies == 0 || a.Duplicated == 0 || a.Injected5xx == 0 {
		t.Fatalf("expected every fault kind at these rates: %+v", a)
	}
}

func TestFaultTransportDropReplyExecutesServerSide(t *testing.T) {
	mux, execs := countMux()
	ft := NewFaultTransport(&Local{Mux: mux}, 1)
	ft.DropReply = 1.0
	err := ft.Call(context.Background(), "bump", &pingReq{N: 1}, nil)
	if err == nil {
		t.Fatal("dropped reply must surface as an error")
	}
	if execs.Load() != 1 {
		t.Fatalf("execs = %d: drop-reply must execute server-side (that's what makes dedup load-bearing)", execs.Load())
	}
	if !Retryable(err) {
		t.Fatalf("transport error %v must classify retryable", err)
	}
}

func TestFaultTransportDropRequestNeverReachesServer(t *testing.T) {
	mux, execs := countMux()
	ft := NewFaultTransport(&Local{Mux: mux}, 1)
	ft.DropRequest = 1.0
	if err := ft.Call(context.Background(), "bump", &pingReq{N: 1}, nil); err == nil {
		t.Fatal("dropped request must surface as an error")
	}
	if execs.Load() != 0 {
		t.Fatalf("execs = %d, want 0", execs.Load())
	}
}

func TestFaultTransportDuplicateRunsTwice(t *testing.T) {
	mux, execs := countMux()
	ft := NewFaultTransport(&Local{Mux: mux}, 1)
	ft.Duplicate = 1.0
	var resp pingResp
	if err := ft.Call(context.Background(), "bump", &pingReq{N: 21}, &resp); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 2 {
		t.Fatalf("execs = %d, want 2", execs.Load())
	}
	if resp.Doubled != 42 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestFaultTransportInject5xxIsRetryableFault(t *testing.T) {
	mux, execs := countMux()
	ft := NewFaultTransport(&Local{Mux: mux}, 1)
	ft.Inject5xx = 1.0
	err := ft.Call(context.Background(), "bump", &pingReq{}, nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != "HTTP503" {
		t.Fatalf("err = %v", err)
	}
	if !Retryable(err) {
		t.Fatal("injected 503 must classify retryable")
	}
	if execs.Load() != 0 {
		t.Fatalf("execs = %d, want 0", execs.Load())
	}
}

func TestRetryerDefeatsFaultTransport(t *testing.T) {
	// End-to-end: a 30% drop/dup/5xx transport under a Retryer completes
	// all but the rare call whose every attempt failed. Such a call ends
	// exhausted with a retryable error, never as a terminal one, and the
	// server-side execution count stays >= completed calls (duplicates
	// happen; dedup is core's job).
	mux, execs := countMux()
	ft := NewFaultTransport(&Local{Mux: mux}, 7)
	ft.DropRequest = 0.15
	ft.DropReply = 0.1
	ft.Duplicate = 0.05
	ft.Inject5xx = 0.05
	r := &Retryer{Caller: ft, Policy: RetryPolicy{Sleep: instantSleep}}
	const calls = 200
	var failed uint64
	for i := 0; i < calls; i++ {
		var resp pingResp
		if err := r.Call(context.Background(), "bump", &pingReq{N: i}, &resp); err != nil {
			if !Retryable(err) {
				t.Fatalf("call %d: %v", i, err)
			}
			failed++
			continue
		}
		if resp.Doubled != i*2 {
			t.Fatalf("call %d: resp = %+v", i, resp)
		}
	}
	st := r.Stats()
	if failed != st.Exhausted || st.Terminal != 0 || failed > calls/50 {
		t.Fatalf("%d of %d calls failed: stats %+v", failed, calls, st)
	}
	if execs.Load() < calls-failed {
		t.Fatalf("execs = %d < %d completed calls", execs.Load(), calls-failed)
	}
	if st.Retries == 0 {
		t.Fatalf("expected retries at these fault rates: %+v", st)
	}
}
