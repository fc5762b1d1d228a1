package wire

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"math"
	mrand "math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Client-side fault tolerance: Retryable classifies errors into
// retryable (transport failures, HTTP 5xx, server Overloaded) and
// terminal (service faults, the caller's own cancellation), and Retryer
// wraps any Caller with exponential backoff + full jitter. The policy is
// budget-aware — it never schedules a retry past the calling context's
// deadline — and server-coordinated: a fault carrying RetryAfterMs floors
// the next delay, so an overloaded server paces its own clients.
//
// Exactly-once for mutating actions comes from idempotency keys: Retryer
// stamps keyed actions with one key per logical call, every retry reuses
// it, and the server's durable reply store answers a repeated key by
// replaying the original response (see core's dedup layer).

type idemKeyCtx struct{}

// WithIdempotencyKey returns a context whose wire calls carry key in the
// envelope. All retries of one logical exchange must share one key.
func WithIdempotencyKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, idemKeyCtx{}, key)
}

// IdempotencyKeyFromContext extracts the key installed by
// WithIdempotencyKey ("" when absent).
func IdempotencyKeyFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	k, _ := ctx.Value(idemKeyCtx{}).(string)
	return k
}

// NewIdempotencyKey generates a fresh random key (128 bits, hex).
func NewIdempotencyKey() string {
	var b [16]byte
	rand.Read(b[:]) // since Go 1.24 it never returns an error
	return hex.EncodeToString(b[:])
}

// FaultOverloaded is the fault code admission control returns when it
// sheds or rejects a request; it always carries RetryAfterMs.
const FaultOverloaded = "Overloaded"

// FaultNotLeader is the fault code a replication follower returns for a
// mutating action; the fault's Leader field carries the redirect address
// when known. Terminal for Retryable — blind retries against the same
// follower cannot succeed; the caller must re-dial the leader.
const FaultNotLeader = "NotLeader"

// FaultStaleTerm is the fencing rejection for a repl.Ship (or lease
// renewal) carrying a term older than the receiver's: the sender was
// deposed and must demote itself. Terminal for Retryable.
const FaultStaleTerm = "StaleTerm"

// Retryable classifies an error from Caller.Call: true means a retry of
// the same exchange may succeed. Transport errors (the request may never
// have reached the server, or the response was lost), HTTP 5xx statuses,
// and Overloaded faults are retryable; service faults are terminal (the
// server decided), as are the caller's own cancellation and deadline.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var f *Fault
	if errors.As(err, &f) {
		switch {
		case f.Code == FaultOverloaded:
			return true
		case strings.HasPrefix(f.Code, "HTTP5"):
			return true
		}
		return false
	}
	// Anything else is a transport-level failure.
	return true
}

// RetryAfterHint extracts a server-sent backoff floor from err (0 when
// none).
func RetryAfterHint(err error) time.Duration {
	var f *Fault
	if errors.As(err, &f) && f.RetryAfterMs > 0 {
		return time.Duration(f.RetryAfterMs) * time.Millisecond
	}
	return 0
}

// A Retryer makes at most retryAttempts tries of a call, the first
// included. The jitter ceiling of the first retry is retryBaseDelay and
// doubles per retry up to retryMaxDelay.
const (
	retryAttempts  = 5
	retryBaseDelay = 200 * time.Millisecond
	retryMaxDelay  = 5 * time.Second
)

// RetryPolicy holds a Retryer's test seams; the zero value draws jitter
// from a process-wide source and sleeps on a timer.
type RetryPolicy struct {
	// Rand supplies jitter; nil uses a process-wide seeded source. Tests
	// inject a fixed-seed source for reproducible schedules.
	Rand *mrand.Rand
	// Sleep waits out a backoff delay; nil sleeps on a timer, returning
	// early with ctx's error if it fires first. Tests inject instant
	// sleeps.
	Sleep func(ctx context.Context, d time.Duration) error

	mu sync.Mutex // guards Rand (mrand.Rand is not concurrency-safe)
}

// jitterRand is the process-wide fallback jitter source.
var jitterRand = struct {
	mu sync.Mutex
	r  *mrand.Rand
}{r: mrand.New(mrand.NewSource(time.Now().UnixNano()))}

// Delay computes the backoff before retry number retry (1-based), using
// full jitter: uniform in [0, min(retryMaxDelay, retryBaseDelay<<retry-1)],
// floored by the server's RetryAfter hint when present.
func (p *RetryPolicy) Delay(retry int, hint time.Duration) time.Duration {
	ceil := min(float64(retryBaseDelay)*math.Pow(2, float64(retry-1)), float64(retryMaxDelay))
	var f float64
	if p.Rand != nil {
		p.mu.Lock()
		f = p.Rand.Float64()
		p.mu.Unlock()
	} else {
		jitterRand.mu.Lock()
		f = jitterRand.r.Float64()
		jitterRand.mu.Unlock()
	}
	d := time.Duration(f * ceil)
	if d < hint {
		d = hint
	}
	return d
}

func (p *RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryStats snapshots a Retryer's counters.
type RetryStats struct {
	// Calls counts logical Call invocations.
	Calls uint64
	// Attempts counts wire exchanges issued (>= Calls).
	Attempts uint64
	// Retries counts re-issued exchanges (Attempts - Calls, minus calls
	// still in flight).
	Retries uint64
	// Exhausted counts calls that failed after the attempt budget or the
	// ctx budget ran out mid-backoff.
	Exhausted uint64
	// Terminal counts calls that failed on a non-retryable error.
	Terminal uint64
	// RetryAfterWaits counts backoffs floored by a server RetryAfterMs
	// hint — retries the server itself scheduled.
	RetryAfterWaits uint64
}

// Retryer wraps a Caller with RetryPolicy-driven retries and automatic
// idempotency keys for mutating actions. Safe for concurrent use.
type Retryer struct {
	// Caller issues the actual exchanges.
	Caller Caller
	// Policy holds the test seams; the zero value is usable.
	Policy RetryPolicy
	// Keyed reports whether an action mutates state and must carry an
	// idempotency key so retries are exactly-once. nil = no auto keys
	// (callers may still install one via WithIdempotencyKey).
	Keyed func(action string) bool

	calls, attempts, retries, exhausted, terminal, hinted atomic.Uint64
}

// Stats snapshots the retry counters.
func (r *Retryer) Stats() RetryStats {
	return RetryStats{
		Calls:           r.calls.Load(),
		Attempts:        r.attempts.Load(),
		Retries:         r.retries.Load(),
		Exhausted:       r.exhausted.Load(),
		Terminal:        r.terminal.Load(),
		RetryAfterWaits: r.hinted.Load(),
	}
}

// Call implements Caller: issue the exchange, retrying retryable failures
// under exponential backoff with full jitter until it succeeds, turns
// terminal, exhausts the attempt budget, or would overrun ctx's deadline.
func (r *Retryer) Call(ctx context.Context, action string, req, resp any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	r.calls.Add(1)
	if IdempotencyKeyFromContext(ctx) == "" && r.Keyed != nil && r.Keyed(action) {
		ctx = WithIdempotencyKey(ctx, NewIdempotencyKey())
	}
	var err error
	for attempt := 1; ; attempt++ {
		r.attempts.Add(1)
		err = r.Caller.Call(ctx, action, req, resp)
		if err == nil {
			return nil
		}
		if !Retryable(err) {
			r.terminal.Add(1)
			return err
		}
		if attempt >= retryAttempts {
			r.exhausted.Add(1)
			return err
		}
		hint := RetryAfterHint(err)
		delay := r.Policy.Delay(attempt, hint)
		if hint > 0 && delay >= hint {
			r.hinted.Add(1)
		}
		// Budget-aware: never schedule a retry the caller won't wait for.
		if dl, has := ctx.Deadline(); has && time.Now().Add(delay).After(dl) {
			r.exhausted.Add(1)
			return err
		}
		r.retries.Add(1)
		if serr := r.Policy.sleep(ctx, delay); serr != nil {
			r.exhausted.Add(1)
			return err
		}
	}
}
