package core

// Overload-path benchmarks for the admission gate and the retry wrapper.
//
// BenchmarkHeartbeatOverload offers heartbeat traffic at 2× the gate's
// in-flight capacity — half fresh (queues for a slot), half stale and
// delta-free (shed when contended) — and verifies the overload contract:
// concurrency never exceeds MaxInFlight, and every turned-away request
// gets a typed Overloaded fault carrying RetryAfterMs. The shed and
// overload rates are reported as benchmark metrics.
//
// BenchmarkRetryHappyPath measures what the Retryer costs when nothing
// fails: the same call direct vs wrapped. Acceptance is <2% overhead.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorj2/internal/wire"
)

// benchCAS assembles an in-memory CAS with `machines` registered nodes
// of `vmsPer` scheduling slots each. More slots per node make each
// heartbeat proportionally more expensive — handy for keeping the gate
// genuinely contended on small CI machines.
func benchCAS(b *testing.B, machines, vmsPer int) *CAS {
	b.Helper()
	cas, err := New(Options{PoolSize: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cas.Close() })
	for i := 0; i < machines; i++ {
		req := benchHeartbeat(i, vmsPer)
		req.Boot = true
		if _, err := cas.Service.Heartbeat(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	return cas
}

func benchHeartbeat(machine, vmsPer int) *HeartbeatRequest {
	req := &HeartbeatRequest{
		Machine: fmt.Sprintf("bench%d", machine),
		Arch:    "x86", OpSys: "linux", TotalMemoryMB: 4096,
		VMs: idleVMs(vmsPer),
	}
	return req
}

func BenchmarkHeartbeatOverload(b *testing.B) {
	const capacity = 4
	const workers = 2 * capacity // offered load: 2× in-flight capacity
	const vmsPer = 16

	cas := benchCAS(b, workers, vmsPer)
	cas.SetAdmission(wire.AdmissionConfig{
		MaxInFlight: capacity,
		QueueWait:   2 * time.Millisecond,
		FreshFor:    time.Second,
	})

	// Stale traffic is framed by hand: the envelope's Sent stamp aged far
	// past FreshFor, so a contended gate sheds it instead of queueing.
	stale := make([][]byte, workers)
	for i := range stale {
		payload, err := wire.Pack(nil, benchHeartbeat(i, vmsPer))
		if err != nil {
			b.Fatal(err)
		}
		stale[i] = frameEnvelope(wire.Envelope{
			Action:  ActionHeartbeat,
			Sent:    time.Now().Add(-time.Minute).UnixMilli(),
			Payload: payload,
		})
	}
	local := &wire.Local{Mux: cas.Mux}
	srv := httptest.NewServer(cas.Mux)
	defer srv.Close()
	conns := make([]*rawFrames, workers)
	for w := 0; w < workers; w += 2 {
		conns[w] = dialFrames(b, srv.URL)
	}

	var served, overloaded, malformed atomic.Int64
	noteFault := func(f *wire.Fault) {
		if f.Code == wire.FaultOverloaded && f.RetryAfterMs > 0 {
			overloaded.Add(1)
		} else {
			malformed.Add(1)
		}
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fresh := w%2 == 1
			req := benchHeartbeat(w, vmsPer)
			for i := 0; i < per; i++ {
				if fresh {
					// Live node traffic: stamped with the current time by the
					// transport, so it queues (never sheds) and is rejected
					// only past the queue cap / wait.
					var resp HeartbeatResponse
					err := local.Call(context.Background(), ActionHeartbeat, req, &resp)
					var f *wire.Fault
					switch {
					case err == nil:
						served.Add(1)
					case errors.As(err, &f):
						noteFault(f)
					default:
						malformed.Add(1)
					}
					continue
				}
				reply, err := conns[w].exchange(stale[w])
				if err != nil {
					malformed.Add(1)
					continue
				}
				if reply.Action != "Fault" {
					served.Add(1)
					continue
				}
				var f wire.Fault
				if wire.DecodePayload(reply, &f) != nil {
					malformed.Add(1)
					continue
				}
				noteFault(&f)
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()

	st := cas.AdmissionStats()
	if st.PeakInFlight > capacity {
		b.Fatalf("queueing not bounded: peak in-flight %d > capacity %d", st.PeakInFlight, capacity)
	}
	if n := malformed.Load(); n > 0 {
		b.Fatalf("%d turned-away requests lacked a typed Overloaded fault with RetryAfterMs", n)
	}
	total := served.Load() + overloaded.Load()
	b.ReportMetric(float64(overloaded.Load())/float64(total), "overloaded/op")
	b.ReportMetric(float64(st.ShedStale)/float64(total), "shed/op")
	b.ReportMetric(float64(st.Queued)/float64(total), "queued/op")
	b.ReportMetric(float64(st.PeakInFlight), "peak-inflight")
}

// BenchmarkRetryHappyPath: the Retryer on a call that never fails. The
// wrapper's cost is one classification check and a stats increment — it
// must stay within 2% of the direct path.
func BenchmarkRetryHappyPath(b *testing.B) {
	cas := benchCAS(b, 1, 2)
	local := &wire.Local{Mux: cas.Mux}
	req := benchHeartbeat(0, 2)

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var resp HeartbeatResponse
			if err := local.Call(context.Background(), ActionHeartbeat, req, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("retryer", func(b *testing.B) {
		r := &wire.Retryer{Caller: local}
		for i := 0; i < b.N; i++ {
			var resp HeartbeatResponse
			if err := r.Call(context.Background(), ActionHeartbeat, req, &resp); err != nil {
				b.Fatal(err)
			}
		}
		if rs := r.Stats(); rs.Retries != 0 {
			b.Fatalf("happy path retried %d times", rs.Retries)
		}
	})
}
