package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// FuzzFrame feeds the frame reader what a peer could send: truncated
// lengths and envelopes, lengths at and past maxBody, frames back to
// back. It must never panic, never accept a frame over maxBody, hand back
// each accepted envelope exactly as it arrived, and grow its buffer with
// the bytes that arrived, not with the length a frame declares. An
// envelope whose header decodes names an action and encodes again to
// exactly the frame's bytes.
func FuzzFrame(f *testing.F) {
	frame := func(body []byte) []byte { return append(binary.AppendUvarint(nil, uint64(len(body))), body...) }
	env, err := appendPayload(appendHeader(nil, &Envelope{Action: "ping", Key: "k", Sent: 1_700_000_000_000, Budget: 250}), &pingReq{Name: "x", N: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame(env))
	f.Add(append(frame(env), frame(appendHeader(nil, &Envelope{Action: "b"}))...))
	f.Add(frame(nil))
	f.Add([]byte{0x80})                                                       // truncated length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}) // overflowing length
	f.Add(frame(env)[:20])                                                    // truncated envelope
	f.Add(binary.AppendUvarint(nil, maxBody))                                 // declares maxBody, sends nothing
	f.Add(append(binary.AppendUvarint(nil, maxBody), env...))
	f.Add(binary.AppendUvarint(nil, maxBody+1))
	f.Add(append(frame(env), binary.AppendUvarint(nil, maxBody+1)...))
	f.Add(frame([]byte("\x01a\x80\x00\x00"))) // a header cut short
	// Declares 15,873 bytes, sends 3,520: a buffer grown by append passed
	// twice what arrived once size classes rounded it up.
	f.Add(append([]byte("\x81|"), bytes.Repeat([]byte{'x'}, 3520)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var b buffer
		for {
			err := b.readFrame(r)
			if err != nil {
				if r.Len() > 0 && !errors.Is(err, errBodyTooLarge) && !strings.Contains(err.Error(), "overflow") {
					t.Fatalf("frame refused with %d bytes unread: %v", r.Len(), err)
				}
				break
			}
			if len(b.b) > maxBody {
				t.Fatalf("accepted a %d-byte frame", len(b.b))
			}
			end := len(data) - r.Len()
			if !bytes.Equal(b.b, data[end-len(b.b):end]) {
				t.Fatalf("frame read back %q, sent %q", b.b, data[end-len(b.b):end])
			}
			env, err := DecodeEnvelope(b.b)
			if err != nil {
				continue
			}
			if again := append(appendHeader(nil, env), env.Payload...); env.Action == "" || !bytes.Equal(again, b.b) {
				t.Fatalf("frame %q decoded as %+v, which encodes to %q", b.b, env, again)
			}
		}
		if arrived := len(data); cap(b.b) > 2*arrived+1024 {
			t.Fatalf("buffer grew to %d bytes on %d arrived", cap(b.b), arrived)
		}
	})
}

// framedServers counts goroutines serving framed connections.
func framedServers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "wire.(*Mux).serveFrames")
}

// waitFramedServers fails t unless the goroutines serving framed
// connections are back to at most before within a few seconds. Earlier
// tests' connections may outlive them, so a test counts against its own
// start.
func waitFramedServers(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); framedServers() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d framed connections served, %d before the test", framedServers(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMuxShutdownDrainsFramedConnections: a framed call in flight when
// Shutdown starts gets its reply, and Shutdown waits for it; an idle
// connection closes at once; after it, no connection is served.
func TestMuxShutdownDrainsFramedConnections(t *testing.T) {
	before := framedServers()
	mux := pingMux()
	entered, release := make(chan struct{}), make(chan struct{})
	mux.Handle("hold", Typed(func(_ context.Context, req *pingReq, resp *pingResp) error {
		close(entered)
		<-release
		resp.Doubled = req.N * 2
		return nil
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx := context.Background()
	idle, busy := &Client{URL: srv.URL}, &Client{URL: srv.URL}
	if err := idle.Call(ctx, "ping", &pingReq{}, nil); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	var resp pingResp
	go func() { held <- busy.Call(ctx, "hold", &pingReq{N: 21}, &resp) }()
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- mux.Shutdown(ctx) }()
	if _, err := idle.idle[0].br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection at shutdown: read %v, want EOF", err)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with a call in hand", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-held; err != nil || resp.Doubled != 42 {
		t.Fatalf("call in flight at shutdown: %+v, %v", resp, err)
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if _, err := busy.idle[0].br.ReadByte(); err != io.EOF {
		t.Fatalf("drained connection after its reply: read %v, want EOF", err)
	}
	waitFramedServers(t, before)
}

// TestRetryerRedialsAfterServerRestart: a server that restarts on the same
// address leaves its callers holding dead connections. A Retryer-wrapped
// Client's next call fails once on its dead connection, is re-sent on a
// fresh one, and its action runs once.
func TestRetryerRedialsAfterServerRestart(t *testing.T) {
	mux, execs := countMux()
	defer mux.Close()
	serve := func(addr string) (*http.Server, string) {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		return srv, ln.Addr().String()
	}
	srv, addr := serve("127.0.0.1:0")
	ret := &Retryer{
		Caller: &Client{URL: "http://" + addr},
		Keyed:  func(string) bool { return true },
		Policy: RetryPolicy{Sleep: func(context.Context, time.Duration) error { return nil }},
	}
	ctx := context.Background()
	if err := ret.Call(ctx, "bump", &pingReq{N: 1}, nil); err != nil {
		t.Fatal(err)
	}

	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := mux.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	srv, _ = serve(addr)
	defer srv.Close()

	var resp pingResp
	if err := ret.Call(ctx, "bump", &pingReq{N: 2}, &resp); err != nil || resp.Doubled != 4 {
		t.Fatalf("call after the restart: %+v, %v", resp, err)
	}
	if st := ret.Stats(); st.Retries != 1 {
		t.Fatalf("retries = %d, want 1: the dead connection once, then a fresh one", st.Retries)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("the action ran %d times over two calls", n)
	}
}
