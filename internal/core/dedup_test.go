package core

import (
	"context"
	"encoding/xml"
	"sync"
	"testing"
	"time"

	"condorj2/internal/wire"
)

// call sends one keyed (or unkeyed, key "") exchange through the CAS mux
// over the in-process transport.
func call(t *testing.T, cas *CAS, key, action string, req, resp any) error {
	t.Helper()
	ctx := context.Background()
	if key != "" {
		ctx = wire.WithIdempotencyKey(ctx, key)
	}
	return (&wire.Local{Mux: cas.Mux}).Call(ctx, action, req, resp)
}

func TestKeyedSubmitDeduplicates(t *testing.T) {
	cas, _ := newTestCAS(t)

	req := &SubmitRequest{Owner: "alice", Count: 3, LengthSec: 60}
	var first SubmitResponse
	if err := call(t, cas, "k-submit-1", ActionSubmitJob, req, &first); err != nil {
		t.Fatal(err)
	}

	// The retry must not enqueue three more jobs: same key, same answer.
	var second SubmitResponse
	if err := call(t, cas, "k-submit-1", ActionSubmitJob, req, &second); err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("replayed response %+v differs from original %+v", second, first)
	}
	var total int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&total)
	if total != 3 {
		t.Fatalf("jobs = %d after retry, want 3 (no double submit)", total)
	}
	if got := cas.Service.DedupStats().Replays; got != 1 {
		t.Fatalf("replays = %d, want 1", got)
	}

	// A different key is a different logical call.
	var third SubmitResponse
	if err := call(t, cas, "k-submit-2", ActionSubmitJob, req, &third); err != nil {
		t.Fatal(err)
	}
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&total)
	if total != 6 {
		t.Fatalf("jobs = %d after fresh key, want 6", total)
	}
}

func TestUnkeyedSubmitStillExecutesEachTime(t *testing.T) {
	cas, _ := newTestCAS(t)
	req := &SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60}
	for i := 0; i < 2; i++ {
		var resp SubmitResponse
		if err := call(t, cas, "", ActionSubmitJob, req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	var total int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&total)
	if total != 2 {
		t.Fatalf("jobs = %d, want 2 (unkeyed calls are independent)", total)
	}
}

// TestKeyedAcceptMatchDeduplicates covers the claim path: a retried
// acceptMatch must replay OK instead of reporting "match no longer
// exists" (the first execution deletes the match tuple).
func TestKeyedAcceptMatchDeduplicates(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	if _, err := s.Submit(context.Background(), &SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60}); err != nil {
		t.Fatal(err)
	}
	beat(t, s, "node1", true, idleVMs(1)...)
	if _, err := s.ScheduleCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	hb := beat(t, s, "node1", false, idleVMs(1)...)
	if len(hb.Commands) != 1 || hb.Commands[0].Command != CmdMatchInfo {
		t.Fatalf("expected MATCHINFO, got %+v", hb.Commands)
	}
	cmd := hb.Commands[0]
	req := &AcceptMatchRequest{Machine: "node1", Seq: cmd.Seq, MatchID: cmd.MatchID, JobID: cmd.JobID}

	var first AcceptMatchResponse
	if err := call(t, cas, "k-accept", ActionAcceptMatch, req, &first); err != nil {
		t.Fatal(err)
	}
	if !first.OK {
		t.Fatalf("first accept refused: %s", first.Reason)
	}
	var second AcceptMatchResponse
	if err := call(t, cas, "k-accept", ActionAcceptMatch, req, &second); err != nil {
		t.Fatal(err)
	}
	if !second.OK {
		t.Fatalf("retried accept answered %+v, want replayed OK", second)
	}
	var runs int
	cas.Pool.QueryRow(`SELECT count(*) FROM runs`).Scan(&runs)
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
}

// TestConcurrentSameKeyExecutesOnce races many carriers of one key; the
// reply row's primary key must let exactly one execution commit.
func TestConcurrentSameKeyExecutesOnce(t *testing.T) {
	cas, _ := newTestCAS(t)
	req := &SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60}

	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	resps := make([]SubmitResponse, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = call(t, cas, "k-race", ActionSubmitJob, req, &resps[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
		if resps[i] != resps[0] {
			t.Fatalf("racer %d got %+v, racer 0 got %+v", i, resps[i], resps[0])
		}
	}
	var total int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&total)
	if total != 1 {
		t.Fatalf("jobs = %d, want 1 (key executed once)", total)
	}
}

func TestGCRepliesAgesOutOldKeys(t *testing.T) {
	cas, clk := newTestCAS(t)
	req := &SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60}
	var resp SubmitResponse
	if err := call(t, cas, "k-old", ActionSubmitJob, req, &resp); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Hour)
	if err := call(t, cas, "k-new", ActionSubmitJob, req, &resp); err != nil {
		t.Fatal(err)
	}

	n, err := cas.Service.GCReplies(context.Background(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("GCReplies removed %d rows, want 1", n)
	}
	// The aged-out key is forgotten: a retry of it re-executes.
	if err := call(t, cas, "k-old", ActionSubmitJob, req, &resp); err != nil {
		t.Fatal(err)
	}
	var total int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&total)
	if total != 3 {
		t.Fatalf("jobs = %d, want 3 (GC'd key re-executed)", total)
	}
	if got := cas.Service.DedupStats().RepliesDeleted; got != 1 {
		t.Fatalf("RepliesDeleted = %d, want 1", got)
	}
}

func TestHeartbeatSheddableClassifier(t *testing.T) {
	env := func(key string, req *HeartbeatRequest) *wire.Envelope {
		payload, err := wire.MarshalPayload(req)
		if err != nil {
			t.Fatal(err)
		}
		return &wire.Envelope{Action: ActionHeartbeat, Key: key, Payload: payload}
	}
	plain := &HeartbeatRequest{Machine: "n1", VMs: []VMStatus{{Seq: 0, State: "idle"}}}
	boot := &HeartbeatRequest{Machine: "n1", Boot: true, VMs: []VMStatus{{Seq: 0, State: "idle"}}}
	completed := &HeartbeatRequest{Machine: "n1", VMs: []VMStatus{
		{Seq: 0, State: "claimed", JobID: 7, Phase: "completed"},
	}}

	if !HeartbeatSheddable(env("", plain)) {
		t.Fatal("plain delta-free heartbeat should be sheddable")
	}
	if HeartbeatSheddable(env("", boot)) {
		t.Fatal("boot registration must not be shed")
	}
	if HeartbeatSheddable(env("", completed)) {
		t.Fatal("completion report must not be shed")
	}
	if HeartbeatSheddable(env("some-key", plain)) {
		t.Fatal("keyed heartbeat must not be shed")
	}
	if HeartbeatSheddable(&wire.Envelope{Action: ActionHeartbeat, Payload: []byte("<garbage")}) {
		t.Fatal("undecodable heartbeat must not be shed")
	}
}

type parked struct {
	XMLName xml.Name `xml:"Parked"`
}

// TestMuxShedsStaleHeartbeats wires classifier + gate end to end: with
// the server saturated, an aged delta-free heartbeat is answered with a
// typed Overloaded fault carrying RetryAfterMs instead of being queued.
func TestMuxShedsStaleHeartbeats(t *testing.T) {
	cas, _ := newTestCAS(t)
	beat(t, cas.Service, "node1", true, idleVMs(1)...)
	cas.SetAdmission(wire.AdmissionConfig{
		MaxInFlight: 1, MaxQueued: 4,
		QueueWait: 2 * time.Second, RetryAfter: 250 * time.Millisecond,
		FreshFor: time.Minute,
	})

	// Occupy the single in-flight slot with a parked call.
	release := make(chan struct{})
	done := make(chan struct{})
	cas.Mux.Handle("park", func(ctx context.Context, env *wire.Envelope) (any, error) {
		<-release
		return &parked{}, nil
	})
	go func() {
		defer close(done)
		(&wire.Local{Mux: cas.Mux}).Call(context.Background(), "park", &parked{}, nil)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for cas.AdmissionStats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked call never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// A delta-free heartbeat whose Sent stamp aged past FreshFor. Local
	// stamps Sent with the current time, so frame the envelope by hand.
	payload, err := wire.MarshalPayload(&HeartbeatRequest{
		Machine: "node1", VMs: []VMStatus{{Seq: 0, State: "idle"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := xml.Marshal(wire.Envelope{
		Action:  ActionHeartbeat,
		Sent:    time.Now().Add(-time.Hour).UnixMilli(),
		Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := wire.Decode(cas.Mux.Dispatch(context.Background(), raw))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Action != "Fault" {
		t.Fatalf("stale heartbeat under load answered %q, want Fault", reply.Action)
	}
	var fault wire.Fault
	if err := wire.DecodePayload(reply, &fault); err != nil {
		t.Fatal(err)
	}
	if fault.Code != wire.FaultOverloaded {
		t.Fatalf("fault code %q, want %q", fault.Code, wire.FaultOverloaded)
	}
	if fault.RetryAfterMs != 250 {
		t.Fatalf("RetryAfterMs = %d, want 250", fault.RetryAfterMs)
	}
	if got := cas.AdmissionStats().ShedStale; got != 1 {
		t.Fatalf("ShedStale = %d, want 1", got)
	}

	close(release)
	<-done
}
