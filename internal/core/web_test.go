package core

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"condorj2/internal/wire"
)

func TestWebServicesOverHTTP(t *testing.T) {
	cas, _ := newTestCAS(t)
	srv := httptest.NewServer(cas.HTTPHandler())
	defer srv.Close()

	client := &wire.Client{URL: srv.URL + "/services"}
	var sub SubmitResponse
	if err := client.Call(context.Background(), ActionSubmitJob, &SubmitRequest{Owner: "web", Count: 2, LengthSec: 30}, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.FirstJobID != 1 || sub.LastJobID != 2 {
		t.Fatalf("submit = %+v", sub)
	}

	var hb HeartbeatResponse
	err := client.Call(context.Background(), ActionHeartbeat, &HeartbeatRequest{
		Machine: "webnode", Boot: true, Arch: "x86", OpSys: "linux",
		TotalMemoryMB: 1024, VMs: idleVMs(1),
	}, &hb)
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Commands) != 1 || hb.Commands[0].Command != CmdOK {
		t.Fatalf("heartbeat = %+v", hb)
	}

	var qs QueueStatusResponse
	if err := client.Call(context.Background(), ActionQueueStatus, &QueueStatusRequest{Owner: "web"}, &qs); err != nil {
		t.Fatal(err)
	}
	if len(qs.Jobs) != 2 {
		t.Fatalf("queue = %+v", qs)
	}

	// Service errors surface as faults.
	err = client.Call(context.Background(), ActionSubmitJob, &SubmitRequest{Owner: "", Count: 1, LengthSec: 1}, &sub)
	var fault *wire.Fault
	if !asFault(err, &fault) {
		t.Fatalf("err = %v, want fault", err)
	}
}

func asFault(err error, target **wire.Fault) bool {
	for err != nil {
		if f, ok := err.(*wire.Fault); ok {
			*target = f
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestWebsitePages(t *testing.T) {
	cas, _ := newTestCAS(t)
	cas.Service.Submit(context.Background(), &SubmitRequest{Owner: "alice", Count: 2, LengthSec: 60})
	beat(t, cas.Service, "node1", true, idleVMs(2)...)
	srv := httptest.NewServer(cas.HTTPHandler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	home := get("/")
	if !strings.Contains(home, "Pool Status") || !strings.Contains(home, "idle") {
		t.Fatalf("home page:\n%s", home)
	}
	queue := get("/queue?owner=alice")
	if !strings.Contains(queue, "alice") {
		t.Fatal("queue page missing jobs")
	}
	cfg := get("/config")
	if !strings.Contains(cfg, "schedule_batch") {
		t.Fatal("config page missing entries")
	}
	get("/users")

	// Submit through the web form, then confirm it in the queue.
	resp, err := http.PostForm(srv.URL+"/submit", url.Values{
		"owner": {"bob"}, "count": {"1"}, "length_sec": {"120"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	queue = get("/queue?owner=bob")
	if !strings.Contains(queue, "bob") {
		t.Fatal("web-submitted job missing")
	}

	// Config update through the form round-trips.
	resp, err = http.PostForm(srv.URL+"/config", url.Values{
		"name": {"schedule_batch"}, "value": {"42"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cfg = get("/config")
	if !strings.Contains(cfg, "42") {
		t.Fatal("config update not visible")
	}
}

// TestWebsiteWritesAreLeaderGated: the web site's forms write through the
// same gate as the web services, so a follower (or a demoted leader)
// answers them 503 naming the leader and writes nothing, while its pages
// keep serving.
func TestWebsiteWritesAreLeaderGated(t *testing.T) {
	cas, _ := newTestCAS(t)
	srv := httptest.NewServer(cas.HTTPHandler())
	defer srv.Close()
	const leader = "http://leader.example:8642/services"
	cas.Service.SetNotLeader(leader)

	post := func(path string, form url.Values) (int, string) {
		t.Helper()
		resp, err := http.PostForm(srv.URL+path, form)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for i, w := range []struct {
		path string
		form url.Values
	}{
		{"/submit", url.Values{"owner": {"bob"}, "count": {"1"}, "length_sec": {"120"}}},
		{"/config", url.Values{"name": {"schedule_batch"}, "value": {"42"}}},
	} {
		code, body := post(w.path, w.form)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, leader) {
			t.Fatalf("POST %s on a follower = %d %q, want 503 naming %s", w.path, code, body, leader)
		}
		if got := cas.Service.notLeaderRejects.Load(); got != uint64(i+1) {
			t.Fatalf("notLeaderRejects = %d after POST %s, want %d", got, w.path, i+1)
		}
	}
	var jobs, batch int64
	if err := cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&jobs); err != nil {
		t.Fatal(err)
	}
	if err := cas.Pool.QueryRow(`SELECT count(*) FROM config WHERE name = 'schedule_batch' AND value = '42'`).Scan(&batch); err != nil {
		t.Fatal(err)
	}
	if jobs != 0 || batch != 0 {
		t.Fatalf("a gated form wrote: %d jobs, %d config rows set to 42", jobs, batch)
	}
	if resp, err := http.Get(srv.URL + "/"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET / on a follower = %v %v, want 200", resp, err)
	} else {
		resp.Body.Close()
	}

	cas.Service.ClearNotLeader()
	if code, body := post("/submit", url.Values{"owner": {"bob"}, "count": {"1"}, "length_sec": {"120"}}); code != 200 {
		t.Fatalf("POST /submit on the leader = %d %q", code, body)
	}
}

func TestProvenanceAnswersPaperQuestion(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service

	// Register two external input datasets.
	in1, err := s.RegisterDataset(context.Background(), &RegisterDatasetRequest{Name: "genome-reads"})
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := s.RegisterDataset(context.Background(), &RegisterDatasetRequest{Name: "reference", Version: 3})

	// Submit a job consuming them and producing "alignment".
	sub, err := s.Submit(context.Background(), &SubmitRequest{
		Owner: "scientist", Count: 1, LengthSec: 60,
		Executable: "aligner", ExecutableVersion: "2.1",
		InputDatasets: []int64{in1.ID, in2.ID},
		Output:        "alignment",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Run the job to completion.
	beat(t, s, "node1", true, idleVMs(1)...)
	s.ScheduleCycle(context.Background())
	resp := beat(t, s, "node1", false, idleVMs(1)...)
	cmd := resp.Commands[0]
	s.AcceptMatch(context.Background(), &AcceptMatchRequest{Machine: "node1", Seq: 0, MatchID: cmd.MatchID, JobID: cmd.JobID})
	beat(t, s, "node1", false, VMStatus{Seq: 0, State: "claimed", JobID: cmd.JobID, Phase: "completed"})

	// The paper's question: "What executable and input data generated this
	// particular output data set and which versions were used?"
	prov, err := s.Provenance(context.Background(), &ProvenanceRequest{Dataset: "alignment"})
	if err != nil {
		t.Fatal(err)
	}
	if prov.ProducedByJob != sub.FirstJobID {
		t.Fatalf("producer = %d, want %d", prov.ProducedByJob, sub.FirstJobID)
	}
	if prov.Executable != "aligner" || prov.ExecutableVersion != "2.1" {
		t.Fatalf("executable = %s@%s", prov.Executable, prov.ExecutableVersion)
	}
	if prov.Owner != "scientist" {
		t.Fatalf("owner = %s", prov.Owner)
	}
	if len(prov.Inputs) != 2 {
		t.Fatalf("inputs = %v", prov.Inputs)
	}
	joined := strings.Join(prov.Inputs, " ")
	if !strings.Contains(joined, "genome-reads@v1") || !strings.Contains(joined, "reference@v3") {
		t.Fatalf("inputs = %v", prov.Inputs)
	}

	// Resubmitting with the same output name bumps the version.
	s.Submit(context.Background(), &SubmitRequest{Owner: "scientist", Count: 1, LengthSec: 60, Output: "alignment"})
	prov2, err := s.Provenance(context.Background(), &ProvenanceRequest{Dataset: "alignment"})
	if err != nil {
		t.Fatal(err)
	}
	if prov2.Version != 2 {
		t.Fatalf("latest version = %d", prov2.Version)
	}
	prov1, _ := s.Provenance(context.Background(), &ProvenanceRequest{Dataset: "alignment", Version: 1})
	if prov1.Version != 1 {
		t.Fatalf("pinned version = %d", prov1.Version)
	}
	if _, err := s.Provenance(context.Background(), &ProvenanceRequest{Dataset: "nope"}); err == nil {
		t.Fatal("missing dataset provenance succeeded")
	}
}

// TestProvenanceReportsFailedOwnerLookup: the producing job has no history
// row, so the owner comes from jobs — and when that lookup fails, the
// answer is the failure, not a success with no owner.
func TestProvenanceReportsFailedOwnerLookup(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	ctx := context.Background()
	if _, err := s.Submit(ctx, &SubmitRequest{Owner: "scientist", Count: 1, LengthSec: 60, Output: "alignment"}); err != nil {
		t.Fatal(err)
	}
	if prov, err := s.Provenance(ctx, &ProvenanceRequest{Dataset: "alignment"}); err != nil || prov.Owner != "scientist" {
		t.Fatalf("live producer: %+v, %v; want owner scientist", prov, err)
	}
	if _, err := cas.Engine.Exec(`DROP TABLE jobs`); err != nil {
		t.Fatal(err)
	}
	prov, err := s.Provenance(ctx, &ProvenanceRequest{Dataset: "alignment"})
	if err == nil || !strings.Contains(err.Error(), "jobs") {
		t.Fatalf("owner lookup on a dropped jobs table answered %+v, %v; want its error", prov, err)
	}
}

func TestStartStopScheduler(t *testing.T) {
	cas, _ := newTestCAS(t)
	cas.StartScheduler()
	cas.StartScheduler() // idempotent
	cas.StopScheduler()
	cas.StopScheduler() // idempotent
}

// TestCASCloseSeversFramedConnections: an http.Server does not track the
// connections it hands over, so closing the CAS must close them: after
// Close no goroutine still serves one — nothing keeps the closed CAS
// reachable — and its clients' next calls fail instead of reaching it.
// Earlier tests' connections may outlive them, so the count is against
// the test's start.
func TestCASCloseSeversFramedConnections(t *testing.T) {
	served := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "wire.(*Mux).serveFrames")
	}
	before := served()
	cas, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cas.HTTPHandler())
	defer srv.Close()
	clients := []*wire.Client{{URL: srv.URL + "/services"}, {URL: srv.URL + "/services"}}
	for _, c := range clients {
		if err := c.Call(context.Background(), ActionPoolStatus, &PoolStatusRequest{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := cas.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); served() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d framed connections served after Close, %d before the test", served(), before)
		}
	}
	for _, c := range clients {
		if err := c.Call(context.Background(), ActionPoolStatus, &PoolStatusRequest{}, nil); err == nil {
			t.Fatal("a call reached the closed CAS")
		}
	}
}
