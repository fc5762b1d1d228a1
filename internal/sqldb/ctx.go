package sqldb

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Context-first execution. Every public entry point of the engine accepts
// a context.Context and every blocking point inside it — lock waits, table
// and index scans, join probes, group-commit syncs — observes
// cancellation. The paper's CAS is an always-on application
// server: every daemon interaction is a web-service call against the
// operational store, so a slow or stuck statement must never wedge a
// heartbeat path or a shutdown. The ctx-less names (Begin, Exec, Query)
// remain as thin context.Background wrappers.
//
// Semantics at each blocking point:
//
//   - Lock waits: a cancelled (or timed-out) waiter wakes promptly, its
//     queue entry and waits-for edges are removed — no ghost deadlock
//     cycles — and the statement returns ErrCanceled / ErrDeadlineExceeded
//     / ErrLockTimeout. Locks already held stay held until the caller
//     resolves the transaction (strict 2PL).
//   - Scans and joins: cooperative checkpoints every ctxCheckRows rows.
//     The uncancelled hot path pays one counter increment and a branch
//     per row.
//   - Group-commit syncs: a committer whose batch is still queued (no
//     flush has drained it) retracts it and aborts the transaction —
//     nothing reached the log. Once a batch is in flight the wait is no
//     longer cancellable: the commit record may already be durable, so
//     the only honest answer is the flush's real outcome.

// ErrCanceled is returned when a statement's context is cancelled. It
// wraps context.Canceled, so errors.Is(err, context.Canceled) holds.
var ErrCanceled = fmt.Errorf("sqldb: statement canceled: %w", context.Canceled)

// ErrDeadlineExceeded is returned when a statement's deadline passes
// (the caller's, or the engine's default statement timeout). It wraps
// context.DeadlineExceeded.
var ErrDeadlineExceeded = fmt.Errorf("sqldb: statement deadline exceeded: %w", context.DeadlineExceeded)

// ErrLockTimeout is returned when a lock wait exceeds the configured
// lock-wait timeout. Unlike ErrDeadlock, the victim was not chosen to
// break a cycle — the lock was simply held too long — so retrying after
// a backoff is reasonable.
var ErrLockTimeout = errors.New("sqldb: lock wait timeout")

// mapCtxErr translates a context error into the engine's taxonomy.
func mapCtxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	}
	return err
}

// IsCancellation reports whether err is one of the cancellation-taxonomy
// errors (canceled, deadline exceeded, lock-wait timeout). Deadlock and
// serialization faults are not cancellations.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrLockTimeout)
}

// CancelStats snapshots the engine's cancellation counters. The metrics
// layer polls this to chart cancellation traffic alongside lock
// contention, and condorj2d logs it at shutdown.
type CancelStats struct {
	// StatementsCanceled counts statements aborted by context
	// cancellation.
	StatementsCanceled uint64
	// DeadlinesExceeded counts statements aborted by a deadline (the
	// caller's or the default statement timeout).
	DeadlinesExceeded uint64
	// LockWaitTimeouts counts lock waits aborted by the lock-wait
	// timeout.
	LockWaitTimeouts uint64
	// LockWaitCancels counts lock waits aborted by context cancellation
	// or deadline (a subset of the statement counters above).
	LockWaitCancels uint64
	// CommitRetractions counts group-commit batches retracted before any
	// write because the committer's context fired while still queued.
	CommitRetractions uint64
}

// CancelStats snapshots the cancellation counters.
func (db *DB) CancelStats() CancelStats {
	return CancelStats{
		StatementsCanceled: db.stmtsCanceled.Load(),
		DeadlinesExceeded:  db.deadlinesExceeded.Load(),
		LockWaitTimeouts:   db.locks.lockTimeouts.Load(),
		LockWaitCancels:    db.locks.lockCancels.Load(),
		CommitRetractions:  db.commitRetractions.Load(),
	}
}

// noteStmtErr classifies a statement's outcome into the cancellation
// counters (called once per failed statement at the API boundary).
func (db *DB) noteStmtErr(err error) {
	switch {
	case err == nil:
	case errors.Is(err, ErrDeadlineExceeded):
		db.deadlinesExceeded.Add(1)
	case errors.Is(err, context.Canceled):
		db.stmtsCanceled.Add(1)
	}
}

// SetStmtTimeout sets the default per-statement deadline applied when a
// caller's context carries none (0 disables). Runtime-settable so
// ConfigSet can adjust a live server.
func (db *DB) SetStmtTimeout(d time.Duration) { db.stmtTimeout.Store(int64(d)) }

// StmtTimeout reports the default per-statement deadline.
func (db *DB) StmtTimeout() time.Duration { return time.Duration(db.stmtTimeout.Load()) }

// SetLockTimeout sets the maximum time a statement may block in one lock
// wait before failing with ErrLockTimeout (0 = wait forever). Runtime-
// settable so ConfigSet can adjust a live server.
func (db *DB) SetLockTimeout(d time.Duration) { db.locks.timeout.Store(int64(d)) }

// LockTimeout reports the lock-wait timeout.
func (db *DB) LockTimeout() time.Duration { return time.Duration(db.locks.timeout.Load()) }

// stmtCtx applies the default statement timeout to a caller context that
// has no deadline of its own. The returned cancel func must always be
// called (it is a no-op when no timeout was applied).
func (db *DB) stmtCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	d := time.Duration(db.stmtTimeout.Load())
	if d <= 0 {
		return ctx, func() {}
	}
	if _, has := ctx.Deadline(); has {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// ctxCheckRows is how many rows pass between polls of the context. Every
// row loop calls check once per row: a full scan per row it visits, an
// index scan per entry it resolves, and the loops past the scans (hash
// tables, groups, DML targets) per row they handle. A power of two: the
// checkpoint test compiles to a mask. 64 keeps worst-case cancellation latency to a handful of
// microseconds while the uncancelled hot path pays ~1/64 of a ctx.Err
// call per row (BenchmarkScanCtxOverhead holds this under 2%).
const ctxCheckRows = 64

// cancelCheck is the per-query cooperative checkpoint state: a row
// counter plus the transaction's context.
type cancelCheck struct {
	ticks uint
	ctx   context.Context
}

// check returns the mapped context error every ctxCheckRows calls; nil
// otherwise. Inlines to an increment, a mask test and a rare call.
func (c *cancelCheck) check() error {
	c.ticks++
	if c.ticks&(ctxCheckRows-1) != 0 {
		return nil
	}
	return c.slow()
}

func (c *cancelCheck) slow() error {
	if c.ctx == nil {
		return nil
	}
	if err := c.ctx.Err(); err != nil {
		return mapCtxErr(err)
	}
	return nil
}

// ctxErr reports the transaction's current statement context state,
// mapped into the engine taxonomy.
func (tx *Tx) ctxErr() error {
	if tx.ctx == nil {
		return nil
	}
	if err := tx.ctx.Err(); err != nil {
		return mapCtxErr(err)
	}
	return nil
}

// effCtx picks the effective context for one statement: the statement's
// own when it is cancellable or carries a deadline, otherwise the
// transaction's base context (from BeginTx). database/sql issues
// tx.Exec(...) as ExecContext(context.Background(), ...), so without the
// fallback a deadline on BeginTx would never reach the engine.
func (tx *Tx) effCtx(ctx context.Context) context.Context {
	if ctx == nil || ctx.Done() == nil {
		return tx.base
	}
	return ctx
}
