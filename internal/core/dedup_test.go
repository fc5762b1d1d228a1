package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"condorj2/internal/sqldb"
	"condorj2/internal/vtime"
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

// TestKeyReusedForAnotherActionIsRefused: a key's stored reply answers
// only the action that stored it. Presented with another action, the key
// gets a terminal KeyReused fault and nothing runs.
func TestKeyReusedForAnotherActionIsRefused(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	refused := func(err error) {
		t.Helper()
		f, ok := wire.AsFault(err)
		if !ok || f.Code != FaultKeyReused {
			t.Fatalf("err = %v, want a %s fault", err, FaultKeyReused)
		}
		if wire.Retryable(err) {
			t.Fatalf("%s must be terminal for the retry policy", FaultKeyReused)
		}
	}

	var sub SubmitResponse
	if err := call(t, cas, "k-1", ActionSubmitJob, &SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60}, &sub); err != nil {
		t.Fatal(err)
	}
	beat(t, s, "node1", true, idleVMs(1)...)
	if _, err := s.ScheduleCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	cmd := beat(t, s, "node1", false, idleVMs(1)...).Commands[0]
	accept := &AcceptMatchRequest{Machine: "node1", Seq: cmd.Seq, MatchID: cmd.MatchID, JobID: cmd.JobID}
	var acc AcceptMatchResponse
	refused(call(t, cas, "k-1", ActionAcceptMatch, accept, &acc))
	if n := count(t, cas, `SELECT count(*) FROM runs`); n != 0 {
		t.Fatalf("runs = %d after the refused accept, want 0", n)
	}

	if err := call(t, cas, "k-2", ActionAcceptMatch, accept, &acc); err != nil || !acc.OK {
		t.Fatalf("accept = %+v, %v", acc, err)
	}
	var hb HeartbeatResponse
	refused(call(t, cas, "k-2", ActionHeartbeat, &HeartbeatRequest{Machine: "node1", VMs: idleVMs(1)}, &hb))
	if got := s.DedupStats().Replays; got != 0 {
		t.Fatalf("replays = %d, want 0", got)
	}
}

// TestKeyedRegisterDatasetDeduplicates: a retried registration answers
// with the dataset the first one registered, not a UNIQUE violation.
func TestKeyedRegisterDatasetDeduplicates(t *testing.T) {
	cas, _ := newTestCAS(t)
	req := &RegisterDatasetRequest{Name: "genome", Version: 2}
	var first, second RegisterDatasetResponse
	if err := call(t, cas, "k-ds", ActionRegisterData, req, &first); err != nil {
		t.Fatal(err)
	}
	if err := call(t, cas, "k-ds", ActionRegisterData, req, &second); err != nil {
		t.Fatalf("retried registration: %v", err)
	}
	if second != first || first.ID == 0 {
		t.Fatalf("retry answered %+v, first %+v", second, first)
	}
	if n := count(t, cas, `SELECT count(*) FROM datasets WHERE name = 'genome'`); n != 1 {
		t.Fatalf("datasets = %d, want 1", n)
	}
}

// TestKeyedConfigSetDeduplicates: a retried configSet writes one history
// row, not two.
func TestKeyedConfigSetDeduplicates(t *testing.T) {
	cas, _ := newTestCAS(t)
	req := &ConfigSetRequest{Name: "probe_key", Value: "7"}
	for i := 0; i < 2; i++ {
		var resp ConfigSetResponse
		if err := call(t, cas, "k-cfg", ActionConfigSet, req, &resp); err != nil || !resp.OK {
			t.Fatalf("call %d: %+v, %v", i, resp, err)
		}
	}
	if n := count(t, cas, `SELECT count(*) FROM config_history WHERE name = 'probe_key'`); n != 1 {
		t.Fatalf("config_history rows = %d, want 1", n)
	}
}

// replyRecorder is an HTTP transport that keeps every reply envelope: it
// tees the upgraded connection its round trip hands over and splits the
// frames read from it.
type replyRecorder struct {
	mu      sync.Mutex
	pending []byte // read, not yet a whole frame
	bodies  [][]byte
}

func (r *replyRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if rwc, ok := resp.Body.(io.ReadWriteCloser); ok && resp.StatusCode == http.StatusSwitchingProtocols {
		resp.Body = &teeConn{ReadWriteCloser: rwc, rec: r}
	}
	return resp, nil
}

// record appends what a framed connection read and files each frame it
// completes, uvarint(len) ‖ envelope, as one reply body.
func (r *replyRecorder) record(p []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending = append(r.pending, p...)
	for {
		n, k := binary.Uvarint(r.pending)
		if k <= 0 || uint64(len(r.pending)-k) < n {
			return
		}
		r.bodies = append(r.bodies, bytes.Clone(r.pending[k:k+int(n)]))
		r.pending = r.pending[k+int(n):]
	}
}

// teeConn is an upgraded connection whose reads a replyRecorder sees.
type teeConn struct {
	io.ReadWriteCloser
	rec *replyRecorder
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.rec.record(p[:n])
	return n, err
}

// TestKeyedReplayIsByteIdentical sends every keyed action twice under one
// key over HTTP: the replay, answered from the reply store, must carry the
// original reply's payload byte for byte.
func TestKeyedReplayIsByteIdentical(t *testing.T) {
	cas, _ := newTestCAS(t)
	srv := httptest.NewServer(cas.HTTPHandler())
	defer srv.Close()
	rec := &replyRecorder{}
	client := &wire.Client{URL: srv.URL + "/services", HTTP: &http.Client{Transport: rec}}
	twice := func(key, action string, req, resp any) {
		t.Helper()
		ctx := wire.WithIdempotencyKey(context.Background(), key)
		if err := client.Call(ctx, action, req, resp); err != nil {
			t.Fatalf("%s: %v", action, err)
		}
		if err := client.Call(ctx, action, req, nil); err != nil {
			t.Fatalf("%s replayed: %v", action, err)
		}
		n := len(rec.bodies)
		if n < 2 {
			t.Fatalf("%s: recorded %d reply frames, want at least 2", action, n)
		}
		first, err := readEnvelope(rec.bodies[n-2])
		if err != nil {
			t.Fatal(err)
		}
		replay, err := readEnvelope(rec.bodies[n-1])
		if err != nil {
			t.Fatal(err)
		}
		if replay.Action != action+"Response" || !bytes.Equal(replay.Payload, first.Payload) {
			t.Fatalf("%s replayed %s %q, first reply %s %q", action, replay.Action, replay.Payload, first.Action, first.Payload)
		}
	}

	twice("k-sub", ActionSubmitJob, &SubmitRequest{Owner: "web <&>", Count: 2, LengthSec: 30}, &SubmitResponse{})
	twice("k-boot", ActionHeartbeat, &HeartbeatRequest{Machine: "n1", Boot: true, TotalMemoryMB: 1024, VMs: idleVMs(2)}, &HeartbeatResponse{})
	if _, err := cas.Service.ScheduleCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	var hb HeartbeatResponse
	twice("k-beat", ActionHeartbeat, &HeartbeatRequest{Machine: "n1", VMs: idleVMs(2)}, &hb)
	if len(hb.Commands) != 2 || hb.Commands[0].Command != CmdMatchInfo {
		t.Fatalf("beat after the cycle = %+v, want MATCHINFO", hb)
	}
	cmd := hb.Commands[0]
	twice("k-acc", ActionAcceptMatch, &AcceptMatchRequest{Machine: "n1", Seq: cmd.Seq, MatchID: cmd.MatchID, JobID: cmd.JobID}, &AcceptMatchResponse{})
	twice("k-cfg", ActionConfigSet, &ConfigSetRequest{Name: "probe_key", Value: "v"}, &ConfigSetResponse{})
	twice("k-ds", ActionRegisterData, &RegisterDatasetRequest{Name: "d", Version: 1}, &RegisterDatasetResponse{})
	if got := cas.Service.DedupStats().Replays; got != 6 {
		t.Fatalf("replays = %d, want 6", got)
	}
}

// TestReplayAnswersWithTheStoredBytes: the reply store keeps a keyed
// reply as the payload its first answer carried, and a replay answers with
// that row as it lies — no unpack and no encode between the store and the
// frame. The first answer's payload, the stored row and the replay's
// payload are one byte string.
func TestReplayAnswersWithTheStoredBytes(t *testing.T) {
	cas, _ := newTestCAS(t)
	srv := httptest.NewServer(cas.HTTPHandler())
	defer srv.Close()
	rec := &replyRecorder{}
	client := &wire.Client{URL: srv.URL + "/services", HTTP: &http.Client{Transport: rec}}
	ctx := wire.WithIdempotencyKey(context.Background(), "k-stored")
	req := &HeartbeatRequest{Machine: "n1", Boot: true, TotalMemoryMB: 1024, VMs: idleVMs(4)}
	for range 2 {
		if err := client.Call(ctx, ActionHeartbeat, req, &HeartbeatResponse{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.bodies) != 2 {
		t.Fatalf("recorded %d reply frames, want 2", len(rec.bodies))
	}
	_, stored, hit, err := cas.Service.lookupReply(context.Background(), "k-stored")
	if err != nil || !hit {
		t.Fatalf("stored reply: hit %v, %v", hit, err)
	}
	for i, body := range rec.bodies {
		env, err := readEnvelope(body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(env.Payload, stored) {
			t.Fatalf("answer %d carried %x; the store holds %x", i, env.Payload, stored)
		}
	}
	if got := cas.Service.DedupStats().Replays; got != 1 {
		t.Fatalf("replays = %d, want 1", got)
	}
}

// walCAS assembles a WAL-backed CAS (MemVFS, SyncGroup — the daemon's
// layout) on a fake clock.
func walCAS(t testing.TB) *CAS {
	t.Helper()
	eng, err := sqldb.Open(sqldb.Options{VFS: sqldb.NewMemVFS(), Path: "cas.wal", Sync: sqldb.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	cas, err := New(Options{Engine: eng, Clock: &fakeClock{t: vtime.Epoch}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cas.Close()
		eng.Close()
	})
	return cas
}

// runningPool registers nodes × 4 VMs and runs a job on every VM; it
// returns each node's completion heartbeat.
func runningPool(t testing.TB, s *Service, nodes int) []*HeartbeatRequest {
	t.Helper()
	ctx := context.Background()
	if _, err := s.Submit(ctx, &SubmitRequest{Owner: "alice", Count: 4 * nodes, LengthSec: 60}); err != nil {
		t.Fatal(err)
	}
	reqs := make([]*HeartbeatRequest, nodes)
	for i := range reqs {
		reqs[i] = &HeartbeatRequest{Machine: fmt.Sprintf("node-%04d", i), Boot: true, TotalMemoryMB: 2048, VMs: idleVMs(4)}
		if _, err := s.Heartbeat(ctx, reqs[i]); err != nil {
			t.Fatal(err)
		}
		reqs[i].Boot = false
	}
	for {
		st, err := s.ScheduleCycle(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Matched == 0 {
			break
		}
	}
	for _, req := range reqs {
		resp, err := s.Heartbeat(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		req.VMs = nil
		for _, cmd := range resp.Commands {
			if cmd.Command != CmdMatchInfo {
				t.Fatalf("%s: %+v, want MATCHINFO for every VM", req.Machine, cmd)
			}
			acc, err := s.AcceptMatch(ctx, &AcceptMatchRequest{Machine: req.Machine, Seq: cmd.Seq, MatchID: cmd.MatchID, JobID: cmd.JobID})
			if err != nil || !acc.OK {
				t.Fatalf("accept: %+v, %v", acc, err)
			}
			req.VMs = append(req.VMs, VMStatus{Seq: cmd.Seq, State: "claimed", JobID: cmd.JobID, Phase: "completed"})
		}
	}
	return reqs
}

// TestKeyedReplyRecordSize: the reply a 4-VM completion beat stores is
// one insert into wire_replies, logged in the beat's commit group. The
// same beat, keyed on one CAS and unkeyed on an identical one, commits
// groups that differ by exactly that record.
func TestKeyedReplyRecordSize(t *testing.T) {
	const budget = 110 // bytes, before framing; 345 when the reply was stored as XML
	group := func(key string) int {
		cas := walCAS(t)
		req := runningPool(t, cas.Service, 1)[0]
		from := cas.Engine.DurableLSN()
		ctx := context.Background()
		if key != "" {
			ctx = withPendingReply(ctx, key, ActionHeartbeat)
		}
		resp, err := cas.Service.Heartbeat(ctx, req)
		if err != nil || len(resp.Commands) != 4 || resp.Commands[3].Command != CmdOK {
			t.Fatalf("completion beat: %+v, %v", resp, err)
		}
		run, durable, err := cas.Engine.CommittedSince(from, 0)
		if err != nil || len(run) == 0 || durable != from+1 {
			t.Fatalf("one beat committed LSNs %d to %d (a %d-byte run), want one group; %v", from+1, durable, len(run), err)
		}
		return len(run)
	}
	key := wire.NewIdempotencyKey()
	record := group(key) - group("")
	t.Logf("wire_replies insert record: %d bytes with a %d-byte key", record, len(key))
	if record > budget {
		t.Errorf("a 4-VM completion beat's reply record is %d bytes, budget %d", record, budget)
	}
}

func TestHeartbeatSheddableClassifier(t *testing.T) {
	env := func(key string, req *HeartbeatRequest) *wire.Envelope {
		payload, err := wire.Pack(nil, req)
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
	// The classifier sees every contended envelope: another action is
	// never shed, even one whose payload would pass for a delta-free beat.
	submit := env("", plain)
	submit.Action, submit.Sent = ActionSubmitJob, time.Now().Add(-time.Hour).UnixMilli()
	if HeartbeatSheddable(submit) {
		t.Fatal("a stale, unkeyed submitJob must not be shed")
	}
}

type parked struct{}

// frameEnvelope lays env out by hand as a frame carries it: the action and
// the key, each uvarint(len) ‖ bytes, then Sent and Budget as uvarints,
// then the payload.
func frameEnvelope(env wire.Envelope) []byte {
	b := binary.AppendUvarint(nil, uint64(len(env.Action)))
	b = append(b, env.Action...)
	b = binary.AppendUvarint(b, uint64(len(env.Key)))
	b = append(b, env.Key...)
	b = binary.AppendUvarint(b, uint64(env.Sent))
	b = binary.AppendUvarint(b, uint64(env.Budget))
	return append(b, env.Payload...)
}

// readEnvelope reads back what frameEnvelope lays out. The Payload
// aliases body.
func readEnvelope(body []byte) (*wire.Envelope, error) {
	rest, whole := body, true
	number := func() uint64 {
		x, n := binary.Uvarint(rest)
		whole = whole && n > 0
		rest = rest[max(n, 0):]
		return x
	}
	text := func() string {
		n := number()
		if !whole || n > uint64(len(rest)) {
			whole = false
			return ""
		}
		s := string(rest[:n])
		rest = rest[n:]
		return s
	}
	env := &wire.Envelope{Action: text(), Key: text(), Sent: int64(number()), Budget: int64(number())}
	if !whole {
		return nil, fmt.Errorf("envelope %q: cut short", body)
	}
	env.Payload = rest
	return env, nil
}

// rawFrames is one connection to a CAS upgraded to frames, carrying
// envelopes framed by hand: with the header a test sets, not the one a
// wire.Caller would stamp.
type rawFrames struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
}

func dialFrames(tb testing.TB, url string) *rawFrames {
	tb.Helper()
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		tb.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "condorj2-frames/3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		resp.Body.Close()
		tb.Fatalf("upgrade answered %s", resp.Status)
	}
	tb.Cleanup(func() { rwc.Close() })
	return &rawFrames{rwc: rwc, br: bufio.NewReader(rwc)}
}

// exchange sends raw as one frame and decodes the reply envelope.
func (f *rawFrames) exchange(raw []byte) (*wire.Envelope, error) {
	if _, err := f.rwc.Write(append(binary.AppendUvarint(nil, uint64(len(raw))), raw...)); err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(f.br)
	if err != nil {
		return nil, err
	}
	reply := make([]byte, n)
	if _, err := io.ReadFull(f.br, reply); err != nil {
		return nil, err
	}
	return readEnvelope(reply)
}

// TestMuxShedsStaleHeartbeats wires classifier + gate end to end: with
// the server saturated, an aged delta-free heartbeat is answered with a
// typed Overloaded fault carrying RetryAfterMs instead of being queued.
func TestMuxShedsStaleHeartbeats(t *testing.T) {
	cas, _ := newTestCAS(t)
	beat(t, cas.Service, "node1", true, idleVMs(1)...)
	cas.SetAdmission(wire.AdmissionConfig{
		MaxInFlight: 1, QueueWait: 2 * time.Second, FreshFor: time.Minute,
	})

	// Occupy the single in-flight slot with a parked call.
	release := make(chan struct{})
	done := make(chan struct{})
	cas.Mux.Handle("park", func(ctx context.Context, env *wire.Envelope, reply *wire.Reply) error {
		<-release
		return reply.Encode(&parked{})
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

	// A delta-free heartbeat whose Sent stamp aged past FreshFor. A Caller
	// stamps Sent with the current time, so frame the envelope by hand.
	payload, err := wire.Pack(nil, &HeartbeatRequest{
		Machine: "node1", VMs: []VMStatus{{Seq: 0, State: "idle"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := frameEnvelope(wire.Envelope{
		Action:  ActionHeartbeat,
		Sent:    time.Now().Add(-time.Hour).UnixMilli(),
		Payload: payload,
	})
	srv := httptest.NewServer(cas.Mux)
	defer srv.Close()
	reply, err := dialFrames(t, srv.URL).exchange(raw)
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
	if fault.RetryAfterMs != 2000 {
		t.Fatalf("RetryAfterMs = %d, want the QueueWait, 2000", fault.RetryAfterMs)
	}
	if got := cas.AdmissionStats().ShedStale; got != 1 {
		t.Fatalf("ShedStale = %d, want 1", got)
	}

	close(release)
	<-done
}
