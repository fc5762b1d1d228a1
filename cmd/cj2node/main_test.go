package main

import (
	"bytes"
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorj2/internal/cluster"
	"condorj2/internal/core"
)

// TestRunCompletesAJobInRealTime is the smoke test of this command's
// wiring — HTTP client, the wrapper that logs its failures, wall-clock
// engine, agent: an in-process CAS behind httptest, one 1-second job
// submitted, matched, run and completed, then the agent cancelled through
// its context.
func TestRunCompletesAJobInRealTime(t *testing.T) {
	cas, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cas.Close()
	srv := httptest.NewServer(cas.HTTPHandler())
	defer srv.Close()
	if _, err := cas.Service.Submit(context.Background(), &core.SubmitRequest{Owner: "smoke", Count: 1, LengthSec: 1}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exited := make(chan error, 1)
	go func() {
		exited <- run(ctx, srv.URL+"/services",
			cluster.NodeConfig{Name: "smoke1", VMs: 1, SetupCost: 10 * time.Millisecond},
			cluster.StartdConfig{HeartbeatInterval: time.Second, IdlePoll: 20 * time.Millisecond, CallTimeout: 5 * time.Second})
	}()

	completed := func() (n int) {
		cas.Pool.QueryRow(`SELECT count(*) FROM job_history WHERE outcome = 'completed' AND machine = 'smoke1'`).Scan(&n)
		return n
	}
	for deadline := time.Now().Add(20 * time.Second); completed() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the job did not complete")
		}
		if _, err := cas.Service.ScheduleCycle(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	select {
	case err := <-exited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	var left int
	cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&left)
	if n := completed(); n != 1 || left != 0 {
		t.Fatalf("%d completed history rows, %d jobs left; want 1 and 0", n, left)
	}
}

// TestRunSendsOneRequestPerChainStep: against a CAS that answers every
// POST with 503, the agent's chain is its only retry. Over a few idle
// polls each step sends one request, which the agent logs as one failed
// exchange; a retrying wrapper under the agent would send several.
func TestRunSendsOneRequestPerChainStep(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	var logged lockedBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	const poll = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 5*poll+poll/2)
	defer cancel()
	err := run(ctx, srv.URL+"/services", cluster.NodeConfig{Name: "down1", VMs: 1},
		cluster.StartdConfig{HeartbeatInterval: time.Hour, IdlePoll: poll, CallTimeout: 5 * time.Second})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run returned %v, want its context's deadline", err)
	}
	sent, steps := requests.Load(), int64(strings.Count(logged.String(), " failed: "))
	if sent < 3 || sent != steps {
		t.Fatalf("%d requests for %d failed exchanges, want one each and at least 3; log:\n%s", sent, steps, logged.String())
	}
}

// TestRunPollWaitsOutTheChain: an idle node against a CAS that answers
// every POST with 503 sends one request per step of its retry chain and
// nothing beside it — the idle poll waits while a retry is armed. Over
// 2.05 s at a 100 ms poll the steps fall at 0, 0.1, 0.3, 0.7 and 1.5 s:
// five requests, where an idle poll re-armed after every failed exchange
// adds one per poll (25 in all). Each failed exchange logs one line.
func TestRunPollWaitsOutTheChain(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	var logged lockedBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	const poll = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 2050*time.Millisecond)
	defer cancel()
	err := run(ctx, srv.URL+"/services", cluster.NodeConfig{Name: "down1", VMs: 1},
		cluster.StartdConfig{HeartbeatInterval: time.Hour, IdlePoll: poll, CallTimeout: 5 * time.Second})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run returned %v, want its context's deadline", err)
	}
	out := logged.String()
	sent, lines := requests.Load(), strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if sent < 4 || sent > 6 {
		t.Fatalf("%d requests in 2.05 s, want the chain's 5; log:\n%s", sent, out)
	}
	if int64(len(lines)) != sent {
		t.Fatalf("%d requests logged on %d lines, want one line each; log:\n%s", sent, len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, " failed: ") || !strings.HasSuffix(l, ": down") {
			t.Fatalf("log line %q is not one whole failed exchange; log:\n%s", l, out)
		}
	}
}

// lockedBuffer is a log destination safe for concurrent writers.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
