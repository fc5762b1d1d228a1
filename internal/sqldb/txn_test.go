package sqldb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExplicitCommitVisible(t *testing.T) {
	db := newJobsDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO jobs (owner) VALUES ('a')`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, `SELECT count(*) FROM jobs`)
	if rows.Data[0][0].Int64() != 1 {
		t.Fatal("committed row not visible")
	}
}

func TestRollbackUndoesAllMutations(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner, state) VALUES ('keep', 'idle')`)
	tx, _ := db.Begin()
	if _, err := tx.Exec(`INSERT INTO jobs (owner) VALUES ('new')`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE jobs SET state = 'running' WHERE owner = 'keep'`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DELETE FROM jobs WHERE owner = 'keep'`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, `SELECT owner, state FROM jobs`)
	if rows.Len() != 1 || rows.Data[0][0].Text() != "keep" || rows.Data[0][1].Text() != "idle" {
		t.Fatalf("after rollback: %v", rows.Data)
	}
	// Indexes must be restored too.
	rows = mustQuery(t, db, `SELECT count(*) FROM jobs WHERE state = 'idle'`)
	if rows.Data[0][0].Int64() != 1 {
		t.Fatal("index out of sync after rollback")
	}
}

func TestRollbackRestoresUniqueKeySpace(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE m (name TEXT PRIMARY KEY)`)
	tx, _ := db.Begin()
	if _, err := tx.Exec(`INSERT INTO m VALUES ('n1')`); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	// The rolled-back key must be insertable again.
	mustExec(t, db, `INSERT INTO m VALUES ('n1')`)
}

func TestTxDoneErrors(t *testing.T) {
	db := newJobsDB(t)
	tx, _ := db.Begin()
	tx.Commit()
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit err = %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("rollback after commit err = %v", err)
	}
	if _, err := tx.Exec(`INSERT INTO jobs (owner) VALUES ('x')`); !errors.Is(err, ErrTxDone) {
		t.Fatalf("exec after commit err = %v", err)
	}
}

func TestConcurrentIncrementsSerialize(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE counter (id INTEGER PRIMARY KEY, n INTEGER)`)
	mustExec(t, db, `INSERT INTO counter VALUES (1, 0)`)
	const workers, iters = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for {
					tx, err := db.Begin()
					if err != nil {
						t.Error(err)
						return
					}
					row, err := tx.QueryRow(`SELECT n FROM counter WHERE id = 1`)
					if err == nil {
						_, err = tx.Exec(`UPDATE counter SET n = ? WHERE id = 1`, row[0].Int64()+1)
					}
					if err == nil {
						err = tx.Commit()
					} else {
						tx.Rollback()
					}
					if err == nil {
						break
					}
					if !errors.Is(err, ErrDeadlock) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					// Deadlock: retry.
				}
			}
		}()
	}
	wg.Wait()
	rows := mustQuery(t, db, `SELECT n FROM counter WHERE id = 1`)
	if got := rows.Data[0][0].Int64(); got != workers*iters {
		t.Fatalf("counter = %d, want %d (lost updates!)", got, workers*iters)
	}
}

func TestDeadlockDetected(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (x INTEGER)`)
	mustExec(t, db, `CREATE TABLE b (x INTEGER)`)
	mustExec(t, db, `INSERT INTO a VALUES (1)`)
	mustExec(t, db, `INSERT INTO b VALUES (1)`)

	tx1, _ := db.Begin()
	tx2, _ := db.Begin()
	if _, err := tx1.Exec(`UPDATE a SET x = 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(`UPDATE b SET x = 2`); err != nil {
		t.Fatal(err)
	}
	// tx1 wants b (held by tx2) while tx2 wants a (held by tx1). Lock
	// acquisition is serialized by the lock manager, so exactly one of the
	// two requests observes the cycle and fails with ErrDeadlock; the other
	// proceeds once the victim rolls back.
	errCh1 := make(chan error, 1)
	errCh2 := make(chan error, 1)
	go func() {
		_, err := tx1.Exec(`UPDATE b SET x = 3`)
		errCh1 <- err
	}()
	go func() {
		_, err := tx2.Exec(`UPDATE a SET x = 3`)
		errCh2 <- err
	}()
	select {
	case err := <-errCh1:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("tx1 victim error = %v, want ErrDeadlock", err)
		}
		tx1.Rollback()
		if err := <-errCh2; err != nil {
			t.Fatalf("tx2 should proceed after victim aborted: %v", err)
		}
		if err := tx2.Commit(); err != nil {
			t.Fatal(err)
		}
	case err := <-errCh2:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("tx2 victim error = %v, want ErrDeadlock", err)
		}
		tx2.Rollback()
		if err := <-errCh1; err != nil {
			t.Fatalf("tx1 should proceed after victim aborted: %v", err)
		}
		if err := tx1.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSharedReadersDoNotBlock(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('a')`)
	tx1, _ := db.Begin()
	tx2, _ := db.Begin()
	if _, err := tx1.Query(`SELECT * FROM jobs`); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tx2.Query(`SELECT * FROM jobs`)
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("concurrent shared read blocked/failed: %v", err)
	}
	tx1.Commit()
	tx2.Commit()
}

func TestWriterWaitsForReader(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('a')`)
	reader, _ := db.Begin()
	if _, err := reader.Query(`SELECT * FROM jobs`); err != nil {
		t.Fatal(err)
	}
	writeDone := make(chan struct{})
	go func() {
		mustExec(t, db, `UPDATE jobs SET owner = 'b'`)
		close(writeDone)
	}()
	select {
	case <-writeDone:
		t.Fatal("writer proceeded while reader held shared lock")
	default:
	}
	reader.Commit()
	<-writeDone
}

func TestDDLRejectedInExplicitTx(t *testing.T) {
	db := New()
	tx, _ := db.Begin()
	defer tx.Rollback()
	if _, err := tx.Exec(`CREATE TABLE t (x INTEGER)`); err == nil {
		t.Fatal("DDL inside explicit transaction accepted")
	}
}

func TestLockUpgrade(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('a')`)
	tx, _ := db.Begin()
	if _, err := tx.Query(`SELECT * FROM jobs`); err != nil {
		t.Fatal(err)
	}
	// Upgrade S → X within the same transaction must succeed immediately
	// when no other holders exist.
	if _, err := tx.Exec(`UPDATE jobs SET owner = 'b'`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseRacesBegin: goroutines begin and finish transactions while
// Close runs. A BeginTx is either refused ("database is closed") or waited
// for: when Close returns, no transaction that began is still open, and —
// under the race detector — registering in the WaitGroup never runs
// concurrently with Close waiting on it from zero.
// TestCloseWaitIsBounded: transactions that never finish hold Close for
// closeWait, no longer. Close then names each of them and leaves the files
// open: new transactions are refused, but the open ones can still finish,
// a writer's commit reaching the log; a later Close waits again, and once
// none is open it shuts the store.
func TestCloseWaitIsBounded(t *testing.T) {
	vfs := NewMemVFS()
	db, err := Open(Options{VFS: vfs, Path: "t.wal"})
	if err != nil {
		t.Fatal(err)
	}
	db.closeWait = 50 * time.Millisecond
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	ctx := context.Background()
	w, err := db.BeginTx(ctx, TxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	r, err := db.BeginTx(ctx, TxOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	writer := fmt.Sprintf("tx %d (read-write, open ", w.id)
	reader := fmt.Sprintf("tx %d (read-only, open ", r.id)

	start := time.Now()
	err = db.Close()
	if err == nil {
		t.Fatal("Close returned nil with two transactions open")
	}
	if waited := time.Since(start); waited < db.closeWait {
		t.Errorf("Close gave up after %v, before its %v wait", waited, db.closeWait)
	}
	for _, want := range []string{"2 transactions still open", writer, reader, "files left open"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Close: %v; want it to name %q", err, want)
		}
	}
	if strings.Index(err.Error(), writer) > strings.Index(err.Error(), reader) {
		t.Errorf("Close: %v; want the oldest transaction first", err)
	}
	if _, err := db.BeginTx(ctx, TxOptions{}); err == nil || !strings.Contains(err.Error(), "database is closed") {
		t.Fatalf("BeginTx after a Close that timed out: %v; want refused", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("a writer commits after Close left the files open: %v", err)
	}
	if err := db.Close(); err == nil || strings.Contains(err.Error(), writer) || !strings.Contains(err.Error(), reader) {
		t.Fatalf("second Close: %v; want it to wait again and name the reader alone", err)
	}
	if err := r.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close with nothing open: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close after the store shut: %v", err)
	}

	db, err = Open(Options{VFS: vfs, Path: "t.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := mustQuery(t, db, `SELECT count(*) FROM t`).Data[0][0].Int64(); n != 1 {
		t.Fatalf("%d rows after reopening, want the writer's 1", n)
	}
}

func TestCloseRacesBegin(t *testing.T) {
	for round := 0; round < 50; round++ {
		db := New()
		mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER NOT NULL)`)
		mustExec(t, db, `INSERT INTO t VALUES (1, 0)`)
		var open atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(readOnly bool) {
				defer wg.Done()
				<-start
				for {
					tx, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: readOnly})
					if err != nil {
						if !strings.Contains(err.Error(), "database is closed") {
							t.Errorf("BeginTx: %v", err)
						}
						return
					}
					open.Add(1)
					if _, err := tx.Query(`SELECT n FROM t WHERE id = 1`); err != nil {
						t.Errorf("a transaction Close should be waiting for ran against a closing store: %v", err)
					}
					open.Add(-1)
					tx.Rollback()
				}
			}(g%2 == 0)
		}
		close(start)
		runtime.Gosched()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if n := open.Load(); n != 0 {
			t.Fatalf("round %d: Close returned with %d transactions open", round, n)
		}
		wg.Wait()
	}
}
