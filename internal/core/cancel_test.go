package core

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"condorj2/internal/wire"
)

// TestServiceHonorsCanceledContext pushes a cancelled context through a
// web-service handler and requires a Canceled fault — the wire-to-engine
// propagation the context-first API exists for.
func TestServiceHonorsCanceledContext(t *testing.T) {
	cas, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cas.Close()
	local := &wire.Local{Mux: cas.Mux}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = local.Call(ctx, ActionSubmitJob, &SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60}, &SubmitResponse{})
	var f *wire.Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected *wire.Fault, got %T: %v", err, err)
	}
	if f.Code != "Canceled" {
		t.Fatalf("fault code = %q, want Canceled", f.Code)
	}
	// Nothing committed.
	st, err := cas.Service.PoolStatus(context.Background(), &PoolStatusRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 0 {
		t.Fatalf("cancelled submit left jobs behind: %+v", st.Jobs)
	}
	// The same call with a live context works.
	if err := local.Call(context.Background(), ActionSubmitJob,
		&SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60}, &SubmitResponse{}); err != nil {
		t.Fatal(err)
	}
}

// TestConfigSetAppliesEngineTimeouts drives the Options → ConfigSet →
// engine path: setting the timeout config keys on a live CAS adjusts the
// embedded engine immediately, and the values persist into a CAS rebuilt
// over the same engine.
func TestConfigSetAppliesEngineTimeouts(t *testing.T) {
	cas, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cas.Close()

	if _, err := cas.Service.ConfigSet(context.Background(),
		&ConfigSetRequest{Name: ConfigStmtTimeoutMs, Value: "1500"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cas.Service.ConfigSet(context.Background(),
		&ConfigSetRequest{Name: ConfigLockTimeoutMs, Value: "250"}); err != nil {
		t.Fatal(err)
	}
	if got := cas.Engine.StmtTimeout(); got != 1500*time.Millisecond {
		t.Fatalf("live stmt timeout = %v, want 1.5s", got)
	}
	if got := cas.Engine.LockTimeout(); got != 250*time.Millisecond {
		t.Fatalf("live lock timeout = %v, want 250ms", got)
	}

	// A restart over the same engine re-reads the persisted config.
	cas2, err := New(Options{Engine: cas.Engine})
	if err != nil {
		t.Fatal(err)
	}
	defer cas2.Close()
	if got := cas2.Engine.StmtTimeout(); got != 1500*time.Millisecond {
		t.Fatalf("reassembled stmt timeout = %v, want 1.5s", got)
	}
}

// TestWebsiteRequestContext sanity-checks that a cancelled request
// context fails a website page instead of hanging it.
func TestWebsiteRequestContext(t *testing.T) {
	cas, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cas.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = cas.Service.PoolStatus(ctx, &PoolStatusRequest{})
	if err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("PoolStatus under cancelled ctx returned %v", err)
	}
}

// TestBaseContextCancelReachesFramedStatement serves the CAS as condorj2d
// does, every request context descending from one base context, and
// parks a framed call's statement on a row lock: cancelling the base
// context cancels the lock wait, and the call fails with Canceled.
func TestBaseContextCancelReachesFramedStatement(t *testing.T) {
	cas, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cas.Close()
	baseCtx, cancelInFlight := context.WithCancel(context.Background())
	defer cancelInFlight()
	srv := httptest.NewUnstartedServer(cas.HTTPHandler())
	srv.Config.BaseContext = func(net.Listener) context.Context { return baseCtx }
	srv.Start()
	defer srv.Close()
	client := &wire.Client{URL: srv.URL + "/services"}
	ctx := context.Background()
	if err := client.Call(ctx, ActionConfigSet, &ConfigSetRequest{Name: "probe", Value: "1"}, nil); err != nil {
		t.Fatal(err)
	}

	tx, err := cas.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`UPDATE config SET value = '2' WHERE name = 'probe'`); err != nil {
		t.Fatal(err)
	}
	waited := cas.Engine.LockStats().Waited
	called := make(chan error, 1)
	go func() {
		called <- client.Call(ctx, ActionConfigSet, &ConfigSetRequest{Name: "probe", Value: "3"}, nil)
	}()
	for cas.Engine.LockStats().Waited == waited {
		time.Sleep(time.Millisecond)
	}
	cancelInFlight()
	err = <-called
	if f, ok := wire.AsFault(err); !ok || f.Code != "Canceled" {
		t.Fatalf("framed statement after the base context's cancel: %v, want a Canceled fault", err)
	}
	if n := cas.Engine.CancelStats().LockWaitCancels; n != 1 {
		t.Fatalf("lock-wait cancels = %d, want 1", n)
	}
}
