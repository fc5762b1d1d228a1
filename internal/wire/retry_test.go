package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
	"time"
)

// flakyCaller fails the first fail calls with err, then succeeds.
type flakyCaller struct {
	mu    sync.Mutex
	fail  int
	err   error
	calls int
	keys  []string
}

func (c *flakyCaller) Call(ctx context.Context, action string, req, resp any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	c.keys = append(c.keys, IdempotencyKeyFromContext(ctx))
	if c.calls <= c.fail {
		return c.err
	}
	return nil
}

func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("dial tcp: connection refused"), true},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), false},
		{fmt.Errorf("wrap: %w", context.Canceled), false},
		{&Fault{Code: "HTTP503"}, true},
		{&Fault{Code: "HTTP500"}, true},
		{&Fault{Code: FaultOverloaded, RetryAfterMs: 50}, true},
		{&Fault{Code: "HTTP404"}, false},
		{&Fault{Code: "ServiceError", Message: "unknown VM"}, false},
		{&Fault{Code: "DeadlineExceeded"}, false},
		{fmt.Errorf("transport: %w", &Fault{Code: "HTTP502"}), true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRetryerRecoversFromTransportErrors(t *testing.T) {
	c := &flakyCaller{fail: 2, err: errors.New("connection reset")}
	r := &Retryer{
		Caller: c,
		Policy: RetryPolicy{Sleep: instantSleep, Rand: mrand.New(mrand.NewSource(1))},
	}
	if err := r.Call(context.Background(), "ping", nil, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if c.calls != 3 {
		t.Fatalf("calls = %d, want 3", c.calls)
	}
	st := r.Stats()
	if st.Calls != 1 || st.Attempts != 3 || st.Retries != 2 || st.Exhausted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryerTerminalFaultNotRetried(t *testing.T) {
	c := &flakyCaller{fail: 10, err: &Fault{Code: "ServiceError", Message: "no such job"}}
	r := &Retryer{Caller: c, Policy: RetryPolicy{Sleep: instantSleep}}
	err := r.Call(context.Background(), "ping", nil, nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != "ServiceError" {
		t.Fatalf("err = %v", err)
	}
	if c.calls != 1 {
		t.Fatalf("calls = %d, want 1 (terminal faults must not be retried)", c.calls)
	}
	if st := r.Stats(); st.Terminal != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryerExhaustsAttemptBudget(t *testing.T) {
	c := &flakyCaller{fail: 100, err: errors.New("down")}
	r := &Retryer{Caller: c, Policy: RetryPolicy{Sleep: instantSleep}}
	if err := r.Call(context.Background(), "ping", nil, nil); err == nil {
		t.Fatal("expected error after exhausting attempts")
	}
	if c.calls != retryAttempts {
		t.Fatalf("calls = %d, want %d", c.calls, retryAttempts)
	}
	if st := r.Stats(); st.Exhausted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryerBudgetAwareNeverSleepsPastDeadline(t *testing.T) {
	// A server hint far beyond the ctx budget: the first retry would land
	// past the deadline, so the retryer must give up immediately instead
	// of sleeping.
	c := &flakyCaller{fail: 100, err: &Fault{Code: FaultOverloaded, RetryAfterMs: int64(time.Hour / time.Millisecond)}}
	r := &Retryer{
		Caller: c,
		Policy: RetryPolicy{Sleep: func(ctx context.Context, d time.Duration) error {
			t.Errorf("slept %v with 50ms of budget", d)
			return ctx.Err()
		}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := r.Call(ctx, "ping", nil, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("retryer slept %v past a 50ms budget", el)
	}
	if st := r.Stats(); st.Exhausted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryerHonorsRetryAfterHint(t *testing.T) {
	// The hint is past the first retry's jitter ceiling, so it decides.
	hint := 2 * retryBaseDelay
	c := &flakyCaller{fail: 1, err: &Fault{Code: FaultOverloaded, RetryAfterMs: int64(hint / time.Millisecond)}}
	var slept []time.Duration
	r := &Retryer{
		Caller: c,
		Policy: RetryPolicy{
			Sleep: func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			},
		},
	}
	if err := r.Call(context.Background(), "ping", nil, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if len(slept) != 1 || slept[0] != hint {
		t.Fatalf("slept = %v, want one delay of the server hint, %v", slept, hint)
	}
	if st := r.Stats(); st.RetryAfterWaits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryerAutoKeyStableAcrossRetries(t *testing.T) {
	c := &flakyCaller{fail: 2, err: errors.New("flap")}
	r := &Retryer{
		Caller: c,
		Policy: RetryPolicy{Sleep: instantSleep},
		Keyed:  func(action string) bool { return action == "submitJob" },
	}
	if err := r.Call(context.Background(), "submitJob", nil, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if len(c.keys) != 3 {
		t.Fatalf("keys = %v", c.keys)
	}
	if c.keys[0] == "" {
		t.Fatal("keyed action got no idempotency key")
	}
	if c.keys[0] != c.keys[1] || c.keys[1] != c.keys[2] {
		t.Fatalf("retries changed the key: %v", c.keys)
	}

	// A second logical call draws a fresh key.
	c2 := &flakyCaller{}
	r.Caller = c2
	if err := r.Call(context.Background(), "submitJob", nil, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if c2.keys[0] == "" || c2.keys[0] == c.keys[0] {
		t.Fatalf("second call reused the first call's key %q", c2.keys[0])
	}

	// Unkeyed actions stay bare.
	c3 := &flakyCaller{}
	r.Caller = c3
	if err := r.Call(context.Background(), "heartbeat", nil, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if c3.keys[0] != "" {
		t.Fatalf("unkeyed action carried key %q", c3.keys[0])
	}
}

func TestRetryerRespectsCallerProvidedKey(t *testing.T) {
	c := &flakyCaller{}
	r := &Retryer{Caller: c, Keyed: func(string) bool { return true }}
	ctx := WithIdempotencyKey(context.Background(), "caller-key")
	if err := r.Call(ctx, "submitJob", nil, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if c.keys[0] != "caller-key" {
		t.Fatalf("key = %q, want caller-key", c.keys[0])
	}
}

func TestDelayFullJitterBounds(t *testing.T) {
	p := &RetryPolicy{Rand: mrand.New(mrand.NewSource(7))}
	for retry := 1; retry <= 8; retry++ {
		ceil := min(retryBaseDelay<<(retry-1), retryMaxDelay)
		for i := 0; i < 50; i++ {
			d := p.Delay(retry, 0)
			if d < 0 || d > ceil {
				t.Fatalf("Delay(%d) = %v outside [0, %v]", retry, d, ceil)
			}
		}
	}
	// Hint floors the draw.
	if d := p.Delay(1, 500*time.Millisecond); d < 500*time.Millisecond {
		t.Fatalf("hinted delay %v below floor", d)
	}
}

func TestEnvelopeCarriesKeyAndSent(t *testing.T) {
	mux := NewMux()
	var gotKey string
	var gotSent int64
	mux.Handle("poke", func(ctx context.Context, env *Envelope, reply *Reply) error {
		gotKey, gotSent = env.Key, env.Sent
		return reply.Encode(&pingResp{})
	})
	local := &Local{Mux: mux}
	ctx := WithIdempotencyKey(context.Background(), "k-123")
	before := time.Now().UnixMilli()
	if err := local.Call(ctx, "poke", &pingReq{}, nil); err != nil {
		t.Fatal(err)
	}
	if gotKey != "k-123" {
		t.Fatalf("server saw key %q", gotKey)
	}
	if gotSent < before || gotSent > time.Now().UnixMilli() {
		t.Fatalf("sent = %d not in call window", gotSent)
	}
}

// TestReplayedReplyFramedVerbatim: a reply kept packed and answered with
// EncodePacked frames into the same response envelope, byte for byte, as
// the original; a second answer to the exchange is refused.
func TestReplayedReplyFramedVerbatim(t *testing.T) {
	orig := &pingResp{Greeting: "replayed <&> \xff", Doubled: -42}
	packed, err := Pack(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	mux := NewMux()
	mux.Handle("fresh", func(ctx context.Context, env *Envelope, reply *Reply) error { return reply.Encode(orig) })
	mux.Handle("replay", func(ctx context.Context, env *Envelope, reply *Reply) error {
		if err := reply.EncodePacked(packed); err != nil {
			return err
		}
		if reply.EncodePacked(packed) == nil || reply.Encode(orig) == nil {
			t.Error("a replayed reply was answered twice")
		}
		return nil
	})
	fresh, _ := Encode("fresh", &pingReq{})
	replay, _ := Encode("replay", &pingReq{})
	want := dispatchBytes(mux, fresh)
	got := dispatchBytes(mux, replay)
	want = append(appendHeader(nil, &Envelope{Action: "replayResponse"}), want[len(appendHeader(nil, &Envelope{Action: "freshResponse"})):]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed envelope\n %q\nfresh envelope\n %q", got, want)
	}
}

func TestHandlerFaultPassthrough(t *testing.T) {
	mux := NewMux()
	mux.Handle("ping", func(ctx context.Context, env *Envelope, reply *Reply) error {
		return &Fault{Code: FaultOverloaded, Message: "busy", RetryAfterMs: 77}
	})
	err := (&Local{Mux: mux}).Call(context.Background(), "ping", &pingReq{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v", err)
	}
	if f.Code != FaultOverloaded || f.RetryAfterMs != 77 {
		t.Fatalf("fault = %+v (typed fault fields must survive the wire)", f)
	}
	if RetryAfterHint(err) != 77*time.Millisecond {
		t.Fatalf("hint = %v", RetryAfterHint(err))
	}
}

func TestNewIdempotencyKeyUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		k := NewIdempotencyKey()
		if len(k) != 32 {
			t.Fatalf("key %q not 32 hex chars", k)
		}
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
	}
}
