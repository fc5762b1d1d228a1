package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

type pingReq struct {
	Name string
	N    int
}

type pingResp struct {
	Greeting string
	Doubled  int
}

func pingMux() *Mux {
	mux := NewMux()
	mux.Handle("ping", Typed(func(_ context.Context, req *pingReq, resp *pingResp) error {
		if req.Name == "boom" {
			return errors.New("simulated service failure")
		}
		resp.Greeting, resp.Doubled = "hello "+req.Name, req.N*2
		return nil
	}))
	return mux
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data, err := Encode("ping", &pingReq{Name: "startd", N: 21})
	if err != nil {
		t.Fatal(err)
	}
	env, err := DecodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if env.Action != "ping" {
		t.Fatalf("action = %q", env.Action)
	}
	var req pingReq
	if err := DecodePayload(env, &req); err != nil {
		t.Fatal(err)
	}
	if req.Name != "startd" || req.N != 21 {
		t.Fatalf("payload = %+v", req)
	}
}

func TestLocalTransport(t *testing.T) {
	var calls int
	local := &Local{Mux: pingMux(), OnCall: func(action string, reqB, respB int) {
		calls++
		if action != "ping" || reqB <= 0 || respB <= 0 {
			t.Errorf("OnCall(%s, %d, %d)", action, reqB, respB)
		}
	}}
	var resp pingResp
	if err := local.Call(context.Background(), "ping", &pingReq{Name: "node1", N: 5}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Greeting != "hello node1" || resp.Doubled != 10 {
		t.Fatalf("resp = %+v", resp)
	}
	if calls != 1 {
		t.Fatalf("OnCall fired %d times", calls)
	}
}

func TestHTTPTransport(t *testing.T) {
	srv := httptest.NewServer(pingMux())
	defer srv.Close()
	client := &Client{URL: srv.URL}
	var resp pingResp
	if err := client.Call(context.Background(), "ping", &pingReq{Name: "web", N: 3}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Greeting != "hello web" || resp.Doubled != 6 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestServiceFault(t *testing.T) {
	local := &Local{Mux: pingMux()}
	err := local.Call(context.Background(), "ping", &pingReq{Name: "boom"}, &pingResp{})
	var fault *Fault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if fault.Code != "ServiceError" || !strings.Contains(fault.Message, "simulated") {
		t.Fatalf("fault = %+v", fault)
	}
}

func TestUnknownAction(t *testing.T) {
	local := &Local{Mux: pingMux()}
	err := local.Call(context.Background(), "nosuch", &pingReq{}, nil)
	var fault *Fault
	if !errors.As(err, &fault) || fault.Code != "UnknownAction" {
		t.Fatalf("err = %v", err)
	}
}

func TestNilResponseIgnoresPayload(t *testing.T) {
	local := &Local{Mux: pingMux()}
	if err := local.Call(context.Background(), "ping", &pingReq{Name: "x"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPRejectsGet(t *testing.T) {
	srv := httptest.NewServer(pingMux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

// TestPostWithoutUpgradeRefused: the Mux serves frames only. A POST that
// does not ask to upgrade gets 426 naming the protocol to ask for, and no
// handler runs.
func TestPostWithoutUpgradeRefused(t *testing.T) {
	mux, execs := countMux()
	srv := httptest.NewServer(mux)
	defer srv.Close()
	env, _ := Encode("bump", &pingReq{N: 1})
	resp, err := srv.Client().Post(srv.URL, "application/octet-stream", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != frameProto {
		t.Fatalf("plain POST: status %d, Upgrade %q; want 426 and %q", resp.StatusCode, resp.Header.Get("Upgrade"), frameProto)
	}
	if n := execs.Load(); n != 0 {
		t.Fatalf("the handler ran %d times for a refused POST", n)
	}
}

// TestOldFrameProtocolRefused: a peer built when payloads were XML asks
// to upgrade to the frames of that layout, condorj2-frames/2. It is
// refused before any frame is read, with 426 naming the protocol to ask
// for in the Upgrade header and in the body its Client words the HTTP426
// fault with.
func TestOldFrameProtocolRefused(t *testing.T) {
	mux, execs := countMux()
	srv := httptest.NewServer(mux)
	defer srv.Close()
	req, err := http.NewRequest(http.MethodPost, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "condorj2-frames/2")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != "condorj2-frames/3" || !strings.Contains(string(body), "condorj2-frames/3") {
		t.Fatalf("old upgrade: status %d, Upgrade %q, body %q; want 426 naming condorj2-frames/3", resp.StatusCode, resp.Header.Get("Upgrade"), body)
	}
	if n := execs.Load(); n != 0 {
		t.Fatalf("the handler ran %d times for a refused upgrade", n)
	}
}

// dispatchBytes runs the envelope in data through the Mux's dispatch and
// returns the response envelope.
func dispatchBytes(m *Mux, data []byte) []byte {
	out := newBuffer()
	defer out.release()
	m.dispatch(context.Background(), &buffer{b: data}, out)
	return bytes.Clone(out.b)
}

func TestBadEnvelope(t *testing.T) {
	env, err := DecodeEnvelope(dispatchBytes(pingMux(), []byte("this is not an envelope")))
	if err != nil {
		t.Fatal(err)
	}
	var f Fault
	if env.Action != "Fault" || DecodePayload(env, &f) != nil || f.Code != "BadEnvelope" {
		t.Fatalf("reply %s %+v, want a BadEnvelope fault", env.Action, f)
	}
}

func TestMuxActions(t *testing.T) {
	mux := pingMux()
	mux.Handle("other", Typed(func(context.Context, *pingReq, *pingResp) error { return nil }))
	if got := len(mux.Actions()); got != 2 {
		t.Fatalf("actions = %d", got)
	}
}

// Property: any name and N round-trip through envelope encoding, byte
// for byte: the packed payload carries a string's bytes as they are,
// invalid UTF-8 and control characters included.
func TestPropertyEnvelopeRoundTrip(t *testing.T) {
	f := func(raw []byte, n int) bool {
		name := string(raw)
		data, err := Encode("ping", &pingReq{Name: name, N: n})
		if err != nil {
			return false
		}
		env, err := DecodeEnvelope(data)
		if err != nil {
			return false
		}
		var req pingReq
		if err := DecodePayload(env, &req); err != nil {
			return false
		}
		return req.Name == name && req.N == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// An envelope over maxBody is refused whole, in either direction, with a
// typed fault that is not retried — not cut to size and mis-decoded.
func TestOversizeRequestRejected(t *testing.T) {
	mux := NewMux()
	mux.Handle("ping", Typed(func(_ context.Context, req *pingReq, resp *pingResp) error {
		resp.Doubled = len(req.Name)
		return nil
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := &Client{URL: srv.URL}
	big := strings.Repeat("x", maxBody+1)

	err := client.Call(context.Background(), "ping", &pingReq{Name: big}, &pingResp{})
	if f, ok := AsFault(err); !ok || f.Code != "HTTP413" || Retryable(err) {
		t.Fatalf("oversize request: err = %.200v, want a terminal HTTP413 fault", err)
	}

	// The bound is inclusive: an envelope of exactly maxBody goes through.
	// The call's header adds its send stamp, a uvarint of this many bytes,
	// and the name's length grows from one byte to a uvarint of this many.
	frame, _ := Encode("ping", &pingReq{})
	sent := len(binary.AppendUvarint(nil, uint64(time.Now().UnixMilli())))
	length := len(binary.AppendUvarint(nil, maxBody))
	fits := maxBody - len(frame) - (sent - 1) - (length - 1)
	var got pingResp
	if err := client.Call(context.Background(), "ping", &pingReq{Name: big[:fits]}, &got); err != nil || got.Doubled != fits {
		t.Fatalf("request of exactly maxBody: err = %.200v, server saw a %d-byte name, want %d", err, got.Doubled, fits)
	}
	if err := client.Call(context.Background(), "ping", &pingReq{Name: big[:fits+1]}, &got); err == nil {
		t.Fatal("request one byte over maxBody went through")
	}
}

// A reply over maxBody is refused from its declared length: whether the
// mux encoded it, or a peer declares one byte more than maxBody and sends
// nothing after.
func TestOversizeReplyRejected(t *testing.T) {
	mux := NewMux()
	mux.Handle("ping", Typed(func(_ context.Context, _ *pingReq, resp *pingResp) error {
		resp.Greeting = strings.Repeat("y", maxBody)
		return nil
	}))
	defer mux.Close()
	for name, h := range map[string]http.Handler{
		"encoded": mux,
		"declared": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, rw, err := w.(http.Hijacker).Hijack()
			if err != nil {
				return
			}
			defer conn.Close()
			conn.Write(switchedToFrames)
			var req buffer
			if req.readFrame(rw.Reader) == nil {
				conn.Write(binary.AppendUvarint(nil, maxBody+1))
				io.Copy(io.Discard, rw) // until the client hangs up
			}
		}),
	} {
		srv := httptest.NewServer(h)
		err := (&Client{URL: srv.URL}).Call(context.Background(), "ping", &pingReq{}, &pingResp{})
		if f, ok := AsFault(err); !ok || f.Code != "ReplyTooLarge" || Retryable(err) {
			t.Errorf("%s: oversize reply: err = %.200v, want a terminal ReplyTooLarge fault", name, err)
		}
		srv.Close()
	}
}
