package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

type sleepReq struct {
	Ms int
}

type sleepResp struct {
	OK bool
}

// sleepMux answers "sleep" by waiting the requested time or returning the
// handler context's error — a stand-in for a statement blocked in the
// engine.
func sleepMux() *Mux {
	mux := NewMux()
	mux.Handle("sleep", Typed(func(ctx context.Context, req *sleepReq, resp *sleepResp) error {
		select {
		case <-time.After(time.Duration(req.Ms) * time.Millisecond):
			resp.OK = true
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}))
	return mux
}

// TestClientDeadlinePropagates proves the wire contract end to end over
// HTTP: the client's context deadline rides the envelope as its budget,
// the server re-arms it on the handler context, and the handler's
// cancellation comes back as a typed fault.
func TestClientDeadlinePropagates(t *testing.T) {
	srv := httptest.NewServer(sleepMux())
	defer srv.Close()
	client := &Client{URL: srv.URL}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := client.Call(ctx, "sleep", &sleepReq{Ms: 5000}, &sleepResp{})
	if err == nil {
		t.Fatal("call with a 50ms budget against a 5s handler succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline-bounded call took %v", elapsed)
	}
	// Within budget the call works.
	var resp sleepResp
	if err := client.Call(context.Background(), "sleep", &sleepReq{Ms: 1}, &resp); err != nil || !resp.OK {
		t.Fatalf("in-budget call: resp=%+v err=%v", resp, err)
	}
}

// TestServerHonorsDeadlineBudget drives the header's budget directly,
// through dispatch under a context with no deadline and over a frame: the
// server must fail the handler within the declared budget even though the
// caller itself would wait forever.
func TestServerHonorsDeadlineBudget(t *testing.T) {
	mux := sleepMux()
	data := rawEnvelope(t, Envelope{Action: "sleep", Budget: 30}, &sleepReq{Ms: 5000})
	wantDeadlineFault := func(how string, reply []byte, took time.Duration) {
		t.Helper()
		if took > 3*time.Second {
			t.Fatalf("%s: server ignored the budget (took %v)", how, took)
		}
		env, err := DecodeEnvelope(reply)
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if env.Action != "Fault" {
			t.Fatalf("%s: expected a Fault envelope, got %s", how, env.Action)
		}
		var f Fault
		if err := DecodePayload(env, &f); err != nil {
			t.Fatal(err)
		}
		if f.Code != "DeadlineExceeded" {
			t.Fatalf("%s: fault code = %q, want DeadlineExceeded", how, f.Code)
		}
	}

	start := time.Now()
	reply := dispatchBytes(mux, data)
	wantDeadlineFault("dispatch", reply, time.Since(start))

	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer mux.Close()
	cc, err := (&Client{URL: srv.URL}).take(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.rwc.Close()
	start = time.Now()
	if _, err := cc.rwc.Write(append(binary.AppendUvarint(nil, uint64(len(data))), data...)); err != nil {
		t.Fatal(err)
	}
	in := newBuffer()
	defer in.release()
	if err := in.readFrame(cc.br); err != nil {
		t.Fatal(err)
	}
	wantDeadlineFault("frame", in.b, time.Since(start))
}

// rawEnvelope encodes an envelope with hdr's header as it is.
func rawEnvelope(t *testing.T, hdr Envelope, payload any) []byte {
	t.Helper()
	b := newBuffer()
	defer b.release()
	if err := b.encode(hdr, payload); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(b.b)
}

// TestLocalPropagatesContext requires the sim transport to deliver the
// caller's context to the handler exactly like the HTTP path.
func TestLocalPropagatesContext(t *testing.T) {
	local := &Local{Mux: sleepMux()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := local.Call(ctx, "sleep", &sleepReq{Ms: 5000}, &sleepResp{})
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected *Fault, got %T: %v", err, err)
	}
	if f.Code != "Canceled" {
		t.Fatalf("fault code = %q, want Canceled", f.Code)
	}
}

// TestClientMapsHTTPStatusToFault turns a non-200 response into a typed
// fault carrying the status code, and the body, without the newline
// http.Error ends it with, into its message: a log line quoting the fault
// stays one line.
func TestClientMapsHTTPStatusToFault(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	client := &Client{URL: srv.URL}
	err := client.Call(context.Background(), "sleep", &sleepReq{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected *Fault, got %T: %v", err, err)
	}
	if f.Code != "HTTP503" {
		t.Fatalf("fault code = %q, want HTTP503", f.Code)
	}
	if !strings.HasSuffix(f.Message, ": overloaded") || strings.ContainsAny(f.Message, "\r\n") {
		t.Fatalf("fault message %q, want it to end in the body's one line", f.Message)
	}
}

// TestClientBudgetIsTheContextDeadline: a call's context is its only
// deadline. Without one the envelope carries no budget; with one it
// carries what is left of it, and the call ends with it.
func TestClientBudgetIsTheContextDeadline(t *testing.T) {
	mux := sleepMux()
	budgets := make(chan int64, 1)
	mux.Handle("budget", func(_ context.Context, env *Envelope, reply *Reply) error {
		budgets <- env.Budget
		return reply.Encode(&sleepResp{OK: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer mux.Close()
	client := &Client{URL: srv.URL}

	if err := client.Call(context.Background(), "budget", &sleepReq{}, nil); err != nil {
		t.Fatal(err)
	}
	if b := <-budgets; b != 0 {
		t.Fatalf("a call without a deadline sent a %d ms budget", b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := client.Call(ctx, "budget", &sleepReq{}, nil); err != nil {
		t.Fatal(err)
	}
	if b := <-budgets; b <= 0 || b > 2000 {
		t.Fatalf("a call with 2 s left sent a %d ms budget", b)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := client.Call(ctx, "sleep", &sleepReq{Ms: 5000}, &sleepResp{})
	if f, ok := AsFault(err); !errors.Is(err, context.DeadlineExceeded) && !(ok && f.Code == "DeadlineExceeded") {
		t.Fatalf("a call past its context's deadline: err = %v, want the deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("a call with a 50 ms deadline took %v", elapsed)
	}
}
