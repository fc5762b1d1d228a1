package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"condorj2/internal/core"
)

// TestCallTimeoutBoundsTheWholeCall: -call-timeout is the deadline of a
// call with its retries. Against a CAS that answers every POST with 503,
// the call gives up when its 300 ms are spent, not after the retry
// budget's backoff.
func TestCallTimeoutBoundsTheWholeCall(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	const timeout = 300 * time.Millisecond
	start := time.Now()
	err := newClient(srv.URL, timeout).Call(context.Background(), core.ActionPoolStatus, &core.PoolStatusRequest{}, &core.PoolStatusResponse{})
	if err == nil {
		t.Fatal("a call against an always-503 CAS succeeded")
	}
	if took := time.Since(start); took > timeout+200*time.Millisecond {
		t.Fatalf("the call took %v with a %v -call-timeout", took, timeout)
	}
}
