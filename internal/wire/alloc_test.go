//go:build !race

package wire_test

// Under the race detector sync.Pool drops a share of what is put back, so
// allocation counts there say nothing about the codec.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"condorj2/internal/core"
	"condorj2/internal/wire"
)

// TestHeartbeatRoundTripAllocs guards the heartbeat path's allocation
// count: one 4-VM heartbeat request and its 4-command response (encode,
// decode, dispatch, encode, decode) with a stub handler, through
// wire.Local and through a Client on a framed loopback connection, both
// ends counted. Measured 570 allocations and 41 KB per round trip on the
// standard library's XML, 17 and 0.8 KB on a compiled codec, 15 since the
// two envelopes decode into their pooled buffers, and 10 since the exchange
// owns its messages: the request value and its VM list are recycled by
// Typed, the reply's commands are filled into a recycled list, and the
// two action names — the request's, looked up as it lies in the frame,
// and the reply's, built once per route and compared in place by the
// caller — are no longer strings made per call. What remains is the
// caller's command list and one string per Machine, State and Command;
// the packed payload kept the count at 10. A net/http request per call
// cost 107. The budget leaves room for a field
// or two, not for a per-exchange message value, a reflective encoder or a
// per-call HTTP exchange.
func TestHeartbeatRoundTripAllocs(t *testing.T) {
	const budget = 14
	reply := &core.HeartbeatResponse{}
	req := &core.HeartbeatRequest{Machine: "node-0417"}
	for seq := int64(0); seq < 4; seq++ {
		req.VMs = append(req.VMs, core.VMStatus{Seq: seq, State: "idle"})
		reply.Commands = append(reply.Commands, core.VMCommand{Seq: seq, Command: core.CmdOK})
	}
	mux := wire.NewMux()
	mux.Handle(core.ActionHeartbeat, wire.Typed(func(_ context.Context, _ *core.HeartbeatRequest, resp *core.HeartbeatResponse) error {
		resp.Commands = append(resp.Commands, reply.Commands...)
		return nil
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer mux.Close()
	for name, caller := range map[string]wire.Caller{
		"local":  &wire.Local{Mux: mux},
		"framed": &wire.Client{URL: srv.URL},
	} {
		var resp core.HeartbeatResponse
		allocs := testing.AllocsPerRun(200, func() {
			resp = core.HeartbeatResponse{}
			if err := caller.Call(context.Background(), core.ActionHeartbeat, req, &resp); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(&resp, reply) {
			t.Fatalf("%s: response %+v, want %+v", name, resp, reply)
		}
		if allocs > budget {
			t.Fatalf("%s: %v allocations per heartbeat round trip, budget %d", name, allocs, budget)
		}
		t.Logf("%s: %v allocations per heartbeat round trip", name, allocs)
	}
}

// TestListDecodeAllocs: a decoded list is allocated once, at its final
// length. A 1,000-job queue listing costs the Jobs slice, of capacity
// 1,000, and its two strings per job; a submit naming 1,000 input
// datasets costs the ID slice and the owner string. Grown one item at a
// time the listing climbed through about a dozen capacities.
func TestListDecodeAllocs(t *testing.T) {
	const n = 1000
	var queue core.QueueStatusResponse
	sub := core.SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60}
	for i := int64(1); i <= n; i++ {
		queue.Jobs = append(queue.Jobs, core.QueueJob{ID: i, Owner: "alice", State: "idle", LengthSec: 30})
		sub.InputDatasets = append(sub.InputDatasets, i)
	}
	for _, c := range []struct {
		name   string
		in     any
		out    func() any
		list   func(any) (length, capacity int)
		allocs float64
	}{
		{"QueueStatusResponse", &queue, func() any { return &core.QueueStatusResponse{} },
			func(v any) (int, int) { jobs := v.(*core.QueueStatusResponse).Jobs; return len(jobs), cap(jobs) }, 1 + 2*n},
		{"SubmitRequest", &sub, func() any { return &core.SubmitRequest{} },
			func(v any) (int, int) { ids := v.(*core.SubmitRequest).InputDatasets; return len(ids), cap(ids) }, 2},
	} {
		raw, err := wire.Encode("list", c.in)
		if err != nil {
			t.Fatal(err)
		}
		env, err := wire.DecodeEnvelope(raw)
		if err != nil {
			t.Fatal(err)
		}
		var out any
		allocs := testing.AllocsPerRun(20, func() {
			out = c.out()
			if err := wire.DecodePayload(env, out); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(out, c.in) {
			t.Fatalf("%s: decoded a different value", c.name)
		}
		if length, capacity := c.list(out); length != n || capacity != n {
			t.Fatalf("%s: list of length %d, capacity %d; want %d, %d", c.name, length, capacity, n, n)
		}
		// The target itself is one more allocation.
		if allocs > c.allocs+1 {
			t.Fatalf("%s: %v allocations to decode, want %v", c.name, allocs, c.allocs+1)
		}
		t.Logf("%s: %v allocations to decode", c.name, allocs)
	}
}

// TestAdmittedRoundTripAllocs: an envelope the admission gate admits
// allocates exactly what one on an ungated mux does — taking and giving
// back its slot builds nothing per call.
func TestAdmittedRoundTripAllocs(t *testing.T) {
	req := &core.HeartbeatRequest{Machine: "node-0417"}
	roundTrip := func(mux *wire.Mux) float64 {
		mux.Handle(core.ActionHeartbeat, wire.Typed(func(context.Context, *core.HeartbeatRequest, *core.HeartbeatResponse) error {
			return nil
		}))
		caller := &wire.Local{Mux: mux}
		return testing.AllocsPerRun(200, func() {
			var resp core.HeartbeatResponse
			if err := caller.Call(context.Background(), core.ActionHeartbeat, req, &resp); err != nil {
				t.Fatal(err)
			}
		})
	}
	ungated := roundTrip(wire.NewMux())
	mux := wire.NewMux()
	mux.SetAdmission(wire.AdmissionConfig{}, nil)
	admitted := roundTrip(mux)
	if n := mux.AdmissionStats().Admitted; n == 0 {
		t.Fatal("the gate admitted nothing")
	}
	if admitted != ungated {
		t.Fatalf("an admitted round trip allocates %v times, an ungated one %v", admitted, ungated)
	}
}
