package sqldb

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// The cancellation suite exercises every blocking point the context-first
// API promises to unwind: lock waits (cancel and timeout, with waits-for
// hygiene), scans and joins, the group-commit durability wait, and
// read-only snapshots pinning the GC watermark. Run under -race in CI.

// TestCancelDuringLockWait parks a writer behind a held X lock, cancels
// its context, and requires a prompt ErrCanceled. It then proves the
// cancelled waiter left no ghost waits-for edges: a lock request that
// would close a cycle through the retracted edge must block normally (no
// spurious deadlock) and complete once the victim rolls back.
func TestCancelDuringLockWait(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0), (2, 0)`)

	txA, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txA.Rollback()
	if _, err := txA.Exec(`UPDATE t SET v = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}

	txB, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txB.Rollback()
	// B holds row 2 and then blocks on A's row 1.
	if _, err := txB.Exec(`UPDATE t SET v = 2 WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	waitedBase := db.LockStats().Waited
	go func() {
		_, err := txB.ExecContext(ctx, `UPDATE t SET v = 2 WHERE id = 1`)
		errCh <- err
	}()
	waitForBlockedLock(t, db, waitedBase)
	start := time.Now()
	cancel()
	select {
	case err = <-errCh:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled lock wait did not return")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked statement returned %v, want ErrCanceled", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancelled waiter took %v to wake", waited)
	}
	if cs := db.CancelStats(); cs.LockWaitCancels == 0 {
		t.Fatalf("LockWaitCancels = %d, want > 0", cs.LockWaitCancels)
	}

	// Would-be deadlock: A requests B's row 2. If B's retracted wait left
	// a ghost edge B→A, this would be reported as a deadlock cycle; with
	// clean edges A simply waits until B rolls back.
	aErr := make(chan error, 1)
	go func() {
		_, err := txA.Exec(`UPDATE t SET v = 1 WHERE id = 2`)
		aErr <- err
	}()
	select {
	case err := <-aErr:
		t.Fatalf("A's request resolved while B still held row 2 (err=%v); ghost deadlock state", err)
	case <-time.After(50 * time.Millisecond):
		// Blocked, as a clean waits-for graph requires.
	}
	if err := txB.Rollback(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-aErr:
		if err != nil {
			t.Fatalf("A's update after B's rollback: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("A never acquired the lock released by B's rollback")
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLockWaitTimeout bounds a lock wait with the engine-level timeout:
// the waiter fails with ErrLockTimeout within roughly the deadline and
// the holder is unaffected.
func TestLockWaitTimeout(t *testing.T) {
	db := New()
	defer db.Close()
	db.SetLockTimeout(50 * time.Millisecond)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0)`)

	txA, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txA.Rollback()
	if _, err := txA.Exec(`UPDATE t SET v = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = db.Exec(`UPDATE t SET v = 2 WHERE id = 1`)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("blocked statement returned %v, want ErrLockTimeout", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("timed-out waiter took %v", waited)
	}
	if cs := db.CancelStats(); cs.LockWaitTimeouts == 0 {
		t.Fatalf("LockWaitTimeouts = %d, want > 0", cs.LockWaitTimeouts)
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	// The lock table must be clean: the next writer proceeds immediately.
	if _, err := db.Exec(`UPDATE t SET v = 3 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
}

// waitForBlockedLock polls the lock stats until a request has blocked
// beyond the base count (captured before the waiter started).
func waitForBlockedLock(t *testing.T, db *DB, base uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if db.LockStats().Waited > base {
			// Waited counts the enqueue; give the waiter a beat to park
			// in its select.
			time.Sleep(5 * time.Millisecond)
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no lock request blocked")
}

// fillWide populates a two-column table with n rows for scan/join tests.
func fillWide(t testing.TB, db *DB, table string, n int) {
	t.Helper()
	mustExecB(t, db, fmt.Sprintf(`CREATE TABLE %s (id INTEGER PRIMARY KEY, k INTEGER)`, table))
	var sb strings.Builder
	flush := func() {
		if sb.Len() == 0 {
			return
		}
		mustExecB(t, db, fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, sb.String()))
		sb.Reset()
	}
	for i := 0; i < n; i++ {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%97)
		if i%500 == 499 {
			flush()
		}
	}
	flush()
}

func mustExecB(t testing.TB, db *DB, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// cancelMidQuery runs query on db with a context cancelled shortly after
// the statement starts and requires a cancellation error well before the
// query could finish on its own.
func cancelMidQuery(t *testing.T, db *DB, query string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	_, err := db.QueryContext(ctx, query)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("query returned %v after %v, want ErrCanceled", err, elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled query took %v to unwind", elapsed)
	}
}

// TestCancelMidScan cancels a nested-loop cross join mid-flight: the
// cooperative checkpoints inside the scan loops must surface ErrCanceled
// long before the O(n²) work completes.
func TestCancelMidScan(t *testing.T) {
	db := New()
	defer db.Close()
	fillWide(t, db, "a", 3000)
	fillWide(t, db, "b", 3000)
	cancelMidQuery(t, db, `SELECT count(*) FROM a, b WHERE a.k < b.k`)
}

// TestCancelMidHashJoin cancels a hash equi-join mid-flight.
func TestCancelMidHashJoin(t *testing.T) {
	db := New()
	defer db.Close()
	fillWide(t, db, "a", 20000)
	fillWide(t, db, "b", 20000)
	cancelMidQuery(t, db, `SELECT count(*) FROM a JOIN b ON a.k = b.k`)
}

// TestCancelMidAggregation cancels a GROUP BY query after the input scan
// has finished but before group assembly (HAVING + projection + sort-key
// evaluation) begins, via the deterministic test hook between the two
// phases. The per-group cooperative checkpoints must surface ErrCanceled;
// before they existed, assembly ran to completion ignoring the dead
// context. Aggregation has one path, the push stage in executor.go.
func TestCancelMidAggregation(t *testing.T) {
	t.Run("hash-batched", func(t *testing.T) {
		db := New()
		defer db.Close()
		fillWide(t, db, "t", 5000) // k = i % 97 → 97 groups

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		testHookAggAssembly = cancel
		defer func() { testHookAggAssembly = nil }()

		_, err := db.QueryContext(ctx, `SELECT k, count(*), sum(id) FROM t GROUP BY k`)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("mid-aggregation cancel returned %v, want ErrCanceled", err)
		}
	})
}

// TestCancelDuringGroupCommit parks a follower in the group-commit queue
// behind a leader whose fsync is artificially slow, cancels the
// follower, and requires: the follower's transaction aborts (its row
// never becomes visible or durable), the leader's commit survives, and
// the retraction is counted.
func TestCancelDuringGroupCommit(t *testing.T) {
	vfs := &FaultVFS{Inner: NewMemVFS(), SyncDelay: 150 * time.Millisecond}
	db, err := Open(Options{VFS: vfs, Path: "wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)

	// Leader: slow flush in flight.
	leadErr := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO t VALUES (1)`)
		leadErr <- err
	}()
	// Let the leader reach its fsync.
	time.Sleep(30 * time.Millisecond)

	// Follower: enqueues while the flush is in flight; its 40ms deadline
	// fires long before the leader's 150ms fsync returns, so the batch is
	// still queued and must be retracted.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	err = tx.CommitContext(ctx)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("follower commit returned %v, want ErrDeadlineExceeded", err)
	}
	if err := <-leadErr; err != nil {
		t.Fatalf("leader commit: %v", err)
	}
	if cs := db.CancelStats(); cs.CommitRetractions == 0 {
		t.Fatalf("CommitRetractions = %d, want > 0", cs.CommitRetractions)
	}
	// The follower's insert must be fully aborted: invisible in memory...
	rows, err := db.Query(`SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].Int64() != 1 {
		t.Fatalf("post-retraction rows = %v, want only id 1", rows.Data)
	}
	// ...its locks released (a new writer claims id 2 without blocking)...
	if _, err := db.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and absent from the recovered log.
	db2, err := Open(Options{VFS: vfs.Inner, Path: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err = db2.Query(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int64(); got != 2 {
		t.Fatalf("recovered %d rows, want 2 (leader's insert + post-retraction insert)", got)
	}
}

// TestCanceledSnapshotReleasesWatermark cancels a read-only snapshot
// transaction and requires that, once resolved, its pin on the GC
// watermark is gone: the reclamation queue drains fully.
func TestCanceledSnapshotReleasesWatermark(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ro, err := db.BeginTx(ctx, TxOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Query(`SELECT count(*) FROM t`); err != nil {
		t.Fatal(err)
	}
	// Delete everything; the snapshot pins the old versions.
	mustExec(t, db, `DELETE FROM t`)
	db.Vacuum()
	if vs := db.VersionStats(); vs.PendingGC == 0 {
		t.Fatal("expected GC backlog pinned by the live snapshot")
	}
	cancel()
	if _, err := ro.Query(`SELECT count(*) FROM t`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("query on cancelled snapshot returned %v, want ErrCanceled", err)
	}
	if err := ro.Rollback(); err != nil {
		t.Fatal(err)
	}
	db.Vacuum()
	if vs := db.VersionStats(); vs.PendingGC != 0 {
		t.Fatalf("PendingGC = %d after cancelled snapshot resolved, want 0", vs.PendingGC)
	}
}

// TestCanceledSnapshotViaDatabaseSQL drives the same watermark release
// through database/sql: cancelling the BeginTx context makes the pool
// roll the transaction back without any explicit call.
func TestCanceledSnapshotViaDatabaseSQL(t *testing.T) {
	db := New()
	defer db.Close()
	pool := sql.OpenDB(db.Connector())
	defer pool.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)

	ctx, cancel := context.WithCancel(context.Background())
	tx, err := pool.BeginTx(ctx, &sql.TxOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := tx.QueryRow(`SELECT count(*) FROM t`).Scan(&n); err != nil || n != 1 {
		t.Fatalf("snapshot read: n=%d err=%v", n, err)
	}
	if vs := db.VersionStats(); vs.ActiveSnapshots != 1 {
		t.Fatalf("ActiveSnapshots = %d, want 1", vs.ActiveSnapshots)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for db.VersionStats().ActiveSnapshots != 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled sql.Tx never released its snapshot")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStmtTimeoutDefault applies the engine-level default statement
// deadline to a context-free call.
func TestStmtTimeoutDefault(t *testing.T) {
	db := New()
	defer db.Close()
	fillWide(t, db, "a", 3000)
	fillWide(t, db, "b", 3000)
	db.SetStmtTimeout(20 * time.Millisecond)
	_, err := db.Query(`SELECT count(*) FROM a, b WHERE a.k < b.k`)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("query returned %v, want ErrDeadlineExceeded", err)
	}
	if cs := db.CancelStats(); cs.DeadlinesExceeded == 0 {
		t.Fatalf("DeadlinesExceeded = %d, want > 0", cs.DeadlinesExceeded)
	}
	// Fast statements still fit the budget.
	db.SetStmtTimeout(5 * time.Second)
	if _, err := db.Query(`SELECT count(*) FROM a WHERE id = 7`); err != nil {
		t.Fatal(err)
	}
}

// TestStmtTimeoutInsideTransaction proves the default statement deadline
// binds statements issued on an open transaction (the service layer's
// entire workload runs through transactions), not just autocommit calls.
func TestStmtTimeoutInsideTransaction(t *testing.T) {
	db := New()
	defer db.Close()
	fillWide(t, db, "a", 3000)
	fillWide(t, db, "b", 3000)
	db.SetStmtTimeout(20 * time.Millisecond)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Query(`SELECT count(*) FROM a, b WHERE a.k < b.k`); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("transactional query returned %v, want ErrDeadlineExceeded", err)
	}
	// The transaction itself survives; a cheap statement still runs.
	if _, err := tx.Query(`SELECT count(*) FROM a WHERE id = 7`); err != nil {
		t.Fatal(err)
	}
}

// TestDriverCancellation checks the database/sql surface end to end: a
// pre-cancelled context fails immediately, and a mid-scan cancellation
// unwinds with an error database/sql maps back to context.Canceled.
func TestDriverCancellation(t *testing.T) {
	db := New()
	defer db.Close()
	pool := sql.OpenDB(db.Connector())
	defer pool.Close()
	fillWide(t, db, "a", 3000)
	fillWide(t, db, "b", 3000)

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := pool.ExecContext(pre, `INSERT INTO a VALUES (99999, 0)`); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled exec returned %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(10*time.Millisecond, cancel)
	_, err := pool.QueryContext(ctx, `SELECT count(*) FROM a, b WHERE a.k < b.k`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan cancel returned %v, want context.Canceled", err)
	}
	if cs := db.CancelStats(); cs.StatementsCanceled == 0 {
		t.Fatalf("StatementsCanceled = %d, want > 0", cs.StatementsCanceled)
	}
}

// BenchmarkScanCtxOverhead measures the cooperative-checkpoint cost on
// the uncancelled hot scan path: a full-table aggregate under the
// background context (checkpoints resolve against an uncancellable ctx)
// versus a live cancellable context that never fires. The acceptance
// budget is ≤2% regression versus the checkpoint-free baseline.
func BenchmarkScanCtxOverhead(b *testing.B) {
	db := New()
	defer db.Close()
	fillWide(b, db, "t", 100000)
	const q = `SELECT count(*), sum(k) FROM t`
	b.Run("background", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cancellable", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryContext(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
