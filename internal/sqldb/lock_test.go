package sqldb

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The row-locking protocol under test: index-driven statements take
// intention locks on the table plus S/X locks on the individual rows they
// touch, so transactions working on disjoint rows of the same table
// proceed concurrently, while same-row writers still conflict and
// deadlocks spanning row and table granularity are still detected.

func lockFixture(t *testing.T, rows int) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, n INTEGER NOT NULL)`)
	for i := 1; i <= rows; i++ {
		mustExec(t, db, `INSERT INTO kv VALUES (?, 0)`, i)
	}
	return db
}

// waitDone reports whether ch closes within the deadline.
func waitDone(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

func TestDisjointRowWritersDoNotBlock(t *testing.T) {
	db := lockFixture(t, 4)
	tx1, _ := db.Begin()
	if _, err := tx1.Exec(`UPDATE kv SET n = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// With table-granularity locking tx2 would block behind tx1's
	// uncommitted write; row locks on disjoint ids must not conflict.
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx2, _ := db.Begin()
		if _, err := tx2.Exec(`UPDATE kv SET n = 2 WHERE id = 2`); err != nil {
			t.Error(err)
		}
		if err := tx2.Commit(); err != nil {
			t.Error(err)
		}
	}()
	if !waitDone(done, 5*time.Second) {
		t.Fatal("disjoint-row writer blocked behind an uncommitted writer on another row")
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSameRowWritersConflict(t *testing.T) {
	db := lockFixture(t, 2)
	tx1, _ := db.Begin()
	if _, err := tx1.Exec(`UPDATE kv SET n = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		mustExec(t, db, `UPDATE kv SET n = 2 WHERE id = 1`)
	}()
	if waitDone(done, 50*time.Millisecond) {
		t.Fatal("same-row writer proceeded against an uncommitted write")
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if !waitDone(done, 5*time.Second) {
		t.Fatal("same-row writer never granted after commit")
	}
	// Strict 2PL: the blocked writer applied after the first committed.
	row := mustQuery(t, db, `SELECT n FROM kv WHERE id = 1`)
	if row.Data[0][0].Int64() != 2 {
		t.Fatalf("n = %v, want 2", row.Data[0][0])
	}
}

// A plain Query is a snapshot read: it neither observes an uncommitted
// write (no dirty read) nor waits for it (no reader stall) — it returns
// the last committed value immediately. An explicit read-write
// transaction still takes S locks and blocks, preserving serializability
// for transactions that may go on to write (TestWriterWaitsForReader).
func TestSnapshotReadSkipsUncommittedWriteWithoutBlocking(t *testing.T) {
	db := lockFixture(t, 2)
	tx1, _ := db.Begin()
	if _, err := tx1.Exec(`UPDATE kv SET n = 7 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	got := make(chan int64, 1)
	go func() {
		row, err := db.QueryRow(`SELECT n FROM kv WHERE id = 1`)
		if err != nil {
			t.Error(err)
			got <- -1
			return
		}
		got <- row[0].Int64()
	}()
	select {
	case n := <-got:
		if n == 7 {
			t.Fatal("snapshot read returned the uncommitted write (dirty read)")
		}
		if n != 0 {
			t.Fatalf("snapshot read = %d, want last committed value 0", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot read blocked behind an uncommitted row write")
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	row, err := db.QueryRow(`SELECT n FROM kv WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int64() != 7 {
		t.Fatalf("read %d after commit, want 7", row[0].Int64())
	}
}

func TestRowLevelDeadlockDetected(t *testing.T) {
	db := lockFixture(t, 2)
	tx1, _ := db.Begin()
	tx2, _ := db.Begin()
	if _, err := tx1.Exec(`UPDATE kv SET n = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(`UPDATE kv SET n = 1 WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	err1 := make(chan error, 1)
	err2 := make(chan error, 1)
	go func() {
		_, err := tx1.Exec(`UPDATE kv SET n = 2 WHERE id = 2`)
		err1 <- err
	}()
	go func() {
		_, err := tx2.Exec(`UPDATE kv SET n = 2 WHERE id = 1`)
		err2 <- err
	}()
	// Exactly one of the two crossing row requests observes the cycle.
	select {
	case err := <-err1:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("tx1 victim error = %v, want ErrDeadlock", err)
		}
		tx1.Rollback()
		if err := <-err2; err != nil {
			t.Fatalf("tx2 after victim abort: %v", err)
		}
		if err := tx2.Commit(); err != nil {
			t.Fatal(err)
		}
	case err := <-err2:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("tx2 victim error = %v, want ErrDeadlock", err)
		}
		tx2.Rollback()
		if err := <-err1; err != nil {
			t.Fatalf("tx1 after victim abort: %v", err)
		}
		if err := tx1.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRowTableDeadlockDetected crosses granularities: one transaction holds
// a row X lock and wants a whole-table lock, the other holds that table
// lock and wants the row. The waits-for graph spans both granularities, so
// exactly one is chosen as victim.
func TestRowTableDeadlockDetected(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (id INTEGER PRIMARY KEY, n INTEGER)`)
	mustExec(t, db, `CREATE TABLE b (n INTEGER)`) // no index: full-scan writes
	mustExec(t, db, `INSERT INTO a VALUES (1, 0)`)
	mustExec(t, db, `INSERT INTO b VALUES (0)`)

	tx1, _ := db.Begin()
	tx2, _ := db.Begin()
	// tx1: row X on a(1) via the pk index.
	if _, err := tx1.Exec(`UPDATE a SET n = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// tx2: table X on b via full scan.
	if _, err := tx2.Exec(`UPDATE b SET n = 1`); err != nil {
		t.Fatal(err)
	}
	err1 := make(chan error, 1)
	err2 := make(chan error, 1)
	go func() {
		_, err := tx1.Exec(`UPDATE b SET n = 2`) // wants table X on b
		err1 <- err
	}()
	go func() {
		_, err := tx2.Exec(`UPDATE a SET n = 2 WHERE id = 1`) // wants row X on a(1)
		err2 <- err
	}()
	select {
	case err := <-err1:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("tx1 victim error = %v, want ErrDeadlock", err)
		}
		tx1.Rollback()
		if err := <-err2; err != nil {
			t.Fatalf("tx2 after victim abort: %v", err)
		}
		tx2.Commit()
	case err := <-err2:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("tx2 victim error = %v, want ErrDeadlock", err)
		}
		tx2.Rollback()
		if err := <-err1; err != nil {
			t.Fatalf("tx1 after victim abort: %v", err)
		}
		tx1.Commit()
	}
}

// TestDisjointRowStress runs one writer goroutine per row; because the rows
// are disjoint no transaction ever conflicts, so every increment must
// commit without a single deadlock retry.
func TestDisjointRowStress(t *testing.T) {
	const workers, iters = 8, 50
	db := lockFixture(t, workers)
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				row, err := tx.QueryRow(`SELECT n FROM kv WHERE id = ?`, id)
				if err == nil {
					_, err = tx.Exec(`UPDATE kv SET n = ? WHERE id = ?`, row[0].Int64()+1, id)
				}
				if err == nil {
					err = tx.Commit()
				} else {
					tx.Rollback()
				}
				if err != nil {
					t.Errorf("worker %d: %v (disjoint rows must not conflict)", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rows := mustQuery(t, db, `SELECT count(*) FROM kv WHERE n = ?`, iters)
	if got := rows.Data[0][0].Int64(); got != workers {
		t.Fatalf("%d rows reached %d increments, want all %d", got, iters, workers)
	}
	if stats := db.LockStats(); stats.Deadlocks != 0 {
		t.Fatalf("deadlocks = %d on disjoint rows, want 0", stats.Deadlocks)
	}
}

// TestConcurrentInsertersDisjoint: inserts only ever touch fresh rows, so
// concurrent bulk inserters under table IX locks never conflict.
func TestConcurrentInsertersDisjoint(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE log (id INTEGER PRIMARY KEY AUTOINCREMENT, who TEXT NOT NULL)`)
	const workers, iters = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			who := fmt.Sprintf("w%d", id)
			for i := 0; i < iters; i++ {
				if _, err := db.Exec(`INSERT INTO log (who) VALUES (?)`, who); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rows := mustQuery(t, db, `SELECT count(*), count(DISTINCT id) FROM log`)
	if rows.Data[0][0].Int64() != workers*iters || rows.Data[0][1].Int64() != workers*iters {
		t.Fatalf("rows/ids = %v, want %d of each", rows.Data[0], workers*iters)
	}
}

// TestUncommittedDeleteBlocksUniqueKeyReuse: a delete unpublishes its
// index entries before commit, so the entry cannot guard the key space —
// the unique-key lock must. A racing insert of the same primary key has to
// block, then fail with a unique violation once the delete rolls back.
func TestUncommittedDeleteBlocksUniqueKeyReuse(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
	txA, _ := db.Begin()
	if _, err := txA.Exec(`DELETE FROM t WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	insErr := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO t VALUES (1, 20)`)
		insErr <- err
	}()
	select {
	case err := <-insErr:
		t.Fatalf("insert of a deleted-but-uncommitted key proceeded (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := txA.Rollback(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-insErr:
		if err == nil {
			t.Fatal("duplicate primary key accepted after delete rollback")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert never resolved after rollback")
	}
	// Heap and index must agree on exactly the original row.
	rows := mustQuery(t, db, `SELECT v FROM t WHERE id = 1`)
	if rows.Len() != 1 || rows.Data[0][0].Int64() != 10 {
		t.Fatalf("index lookup after rollback = %v, want the original row", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT count(*) FROM t`)
	if rows.Data[0][0].Int64() != 1 {
		t.Fatalf("heap has %v rows, want 1", rows.Data[0][0])
	}
}

// TestCommittedDeleteAllowsKeyReuse is the partner case: once the delete
// commits, the blocked insert must succeed.
func TestCommittedDeleteAllowsKeyReuse(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
	txA, _ := db.Begin()
	if _, err := txA.Exec(`DELETE FROM t WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	insErr := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO t VALUES (1, 20)`)
		insErr <- err
	}()
	select {
	case err := <-insErr:
		t.Fatalf("insert proceeded against uncommitted delete (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-insErr:
		if err != nil {
			t.Fatalf("insert after committed delete: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert never resolved after commit")
	}
	rows := mustQuery(t, db, `SELECT v FROM t WHERE id = 1`)
	if rows.Len() != 1 || rows.Data[0][0].Int64() != 20 {
		t.Fatalf("row after reuse = %v, want the new row", rows.Data)
	}
}

// TestUniqueKeyAbsenceReadBlocksInsert: reading an absent primary key takes
// the key-value lock in shared mode, so a check-then-act transaction
// cannot be overtaken by an insert of that key (the classic phantom).
func TestUniqueKeyAbsenceReadBlocksInsert(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	txA, _ := db.Begin()
	row, err := txA.QueryRow(`SELECT v FROM t WHERE id = 5`)
	if err != nil || row != nil {
		t.Fatalf("absent-key read = %v, %v", row, err)
	}
	insErr := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO t VALUES (5, 1)`)
		insErr <- err
	}()
	select {
	case err := <-insErr:
		t.Fatalf("insert of key 5 overtook a transaction that read its absence (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// The read is repeatable while the insert waits.
	row, err = txA.QueryRow(`SELECT v FROM t WHERE id = 5`)
	if err != nil || row != nil {
		t.Fatalf("re-read = %v, %v; want still absent", row, err)
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-insErr:
		if err != nil {
			t.Fatalf("insert after reader commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert never resolved")
	}
}

// TestUpgradeJumpDeadlockDetected: an upgrade that jumps the queue blocks
// already-queued waiters without their enqueue-time edges knowing. The
// grant must record those edges, or the cycle built on top of it (D waits
// on A, A waits on D's upgraded lock) hangs undetected.
func TestUpgradeJumpDeadlockDetected(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0)`)
	mustExec(t, db, `INSERT INTO t VALUES (2, 0)`)

	txB, _ := db.Begin()
	if _, err := txB.Query(`SELECT * FROM t`); err != nil { // B: table S
		t.Fatal(err)
	}
	txA, _ := db.Begin()
	if _, err := txA.QueryRow(`SELECT v FROM t WHERE id = 1`); err != nil { // A: IS + S(r1)
		t.Fatal(err)
	}
	txD, _ := db.Begin()
	if _, err := txD.QueryRow(`SELECT v FROM t WHERE id = 2`); err != nil { // D: IS + S(r2)
		t.Fatal(err)
	}
	// A wants table IX (blocked by B's S) — queued, edge A→B.
	aErr := make(chan error, 1)
	base := db.LockStats().Waited
	go func() {
		_, err := txA.Exec(`UPDATE t SET v = 1 WHERE id = 1`)
		aErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for db.LockStats().Waited <= base {
		if time.Now().After(deadline) {
			t.Fatal("txA never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// D upgrades IS→S via a full scan: compatible with B's S and A's IS, so
	// it jumps past queued A — and must record that A now waits on it.
	if _, err := txD.Query(`SELECT * FROM t`); err != nil {
		t.Fatal(err)
	}
	if err := txB.Commit(); err != nil { // A still blocked (on D's S)
		t.Fatal(err)
	}
	// D now wants the table exclusively (S + IX merge to X), blocked by A's
	// IS: edge D→A closes the cycle through the A→D edge from the jump.
	_, err := txD.Exec(`UPDATE t SET v = 2 WHERE id = 1`)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("txD error = %v, want ErrDeadlock (undetected deadlock would hang)", err)
	}
	if err := txD.Rollback(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-aErr:
		if err != nil {
			t.Fatalf("txA after victim abort: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("txA never granted after victim rollback")
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestLockModeLattice(t *testing.T) {
	modes := []lockMode{lockIntentShared, lockIntentExclusive, lockShared, lockExclusive}
	for _, a := range modes {
		for _, b := range modes {
			m := mergeMode(a, b)
			if !covers(m, a) || !covers(m, b) {
				t.Errorf("mergeMode(%d,%d)=%d does not cover both", a, b, m)
			}
			if lockCompat[a][b] != lockCompat[b][a] {
				t.Errorf("compat matrix asymmetric at (%d,%d)", a, b)
			}
		}
	}
	if mergeMode(lockShared, lockIntentExclusive) != lockExclusive {
		t.Error("S+IX must promote to X")
	}
	if !covers(lockExclusive, lockIntentShared) || covers(lockIntentShared, lockShared) {
		t.Error("covers() ordering broken")
	}
}

func TestLockStatsCounters(t *testing.T) {
	db := lockFixture(t, 2)
	base := db.LockStats()
	tx, _ := db.Begin()
	if _, err := tx.Exec(`UPDATE kv SET n = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	mid := db.LockStats()
	if mid.HeldRow == 0 || mid.HeldTable == 0 {
		t.Fatalf("held gauges = %+v, want row and table locks held mid-txn", mid)
	}
	if mid.Acquired <= base.Acquired {
		t.Fatal("Acquired did not advance")
	}
	// A blocked same-row writer must bump the wait counter.
	done := make(chan struct{})
	go func() {
		defer close(done)
		mustExec(t, db, `UPDATE kv SET n = 2 WHERE id = 1`)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for db.LockStats().Waited <= base.Waited {
		if time.Now().After(deadline) {
			t.Fatal("Waited never advanced while a writer was blocked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	<-done
	end := db.LockStats()
	if end.HeldRow != 0 || end.HeldTable != 0 {
		t.Fatalf("held gauges = %+v after all commits, want zero", end)
	}
	if end.WaitTime <= 0 {
		t.Fatal("WaitTime not accumulated for the blocked writer")
	}
}

// lockWaitsReach reports whether db's lock manager counts n lock waits
// within the deadline.
func lockWaitsReach(db *DB, n uint64) bool {
	for deadline := time.Now().Add(5 * time.Second); db.LockStats().Waited < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// dropBesideWriter runs DROP TABLE t beside an open transaction that has
// inserted into t and returns the drop's outcome: the drop must wait for
// the writer, and stmt (when set) is started once it does and must queue
// behind it. The writer then commits.
func dropBesideWriter(t *testing.T, db *DB, stmt func() error) (drop, queued error) {
	t.Helper()
	w, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec(`INSERT INTO t VALUES (1, 'written')`); err != nil {
		t.Fatal(err)
	}
	waited := db.LockStats().Waited
	dropped, ran := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := db.Exec(`DROP TABLE t`)
		dropped <- err
	}()
	if !lockWaitsReach(db, waited+1) {
		w.Rollback()
		t.Fatalf("DROP TABLE did not wait for an open writer: %v", <-dropped)
	}
	if stmt != nil {
		go func() { ran <- stmt() }()
		if !lockWaitsReach(db, waited+2) {
			w.Rollback()
			t.Fatalf("a statement on t did not queue behind a pending DROP TABLE: %v", <-ran)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if drop = <-dropped; stmt != nil {
		queued = <-ran
	}
	return drop, queued
}

// tableRecords counts the log's insert, update and delete records of
// table id, and reports whether any comes after the DROP TABLE of it.
func tableRecords(data []byte, id uint64) (n int, afterDrop bool) {
	dropped := false
	for _, g := range readGroups(data) {
		for _, r := range g.recs {
			switch {
			case r.tableID != id:
			case r.op == walDDL:
				dropped = dropped || strings.HasPrefix(r.sql, "DROP TABLE")
			default:
				n++
				afterDrop = afterDrop || dropped
			}
		}
	}
	return n, afterDrop
}

// TestLockDropTableWaitsForOpenWriter: DROP TABLE takes the table's X lock
// after the catalog's, so it waits out a transaction that wrote the table
// and is still open. The writer's commit then precedes the drop in the
// log, and the store opens again: a log-only store, a paged one reopened
// before any checkpoint, and a follower fed the leader's log.
func TestLockDropTableWaitsForOpenWriter(t *testing.T) {
	history := func(t *testing.T, db *DB, vfs VFS, path string) {
		t.Helper()
		mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
		mustExec(t, db, `CREATE TABLE keep (k INTEGER PRIMARY KEY)`)
		mustExec(t, db, `INSERT INTO keep VALUES (7)`)
		if drop, _ := dropBesideWriter(t, db, nil); drop != nil {
			t.Fatal(drop)
		}
		data, err := vfs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n, afterDrop := tableRecords(data, 1); n != 1 || afterDrop {
			t.Fatalf("the log holds %d writes of t (want 1), one after its drop: %v", n, afterDrop)
		}
	}
	check := func(t *testing.T, who string, db *DB) {
		t.Helper()
		if _, ok := db.Schema("t"); ok {
			t.Fatalf("%s: t survived its drop", who)
		}
		if got := fmt.Sprint(mustQuery(t, db, `SELECT k FROM keep`).Data); got != "[[7]]" {
			t.Fatalf("%s: keep holds %s", who, got)
		}
	}
	reopen := func(t *testing.T, vfs VFS, opts Options) {
		t.Helper()
		opts.VFS = vfs
		db, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer db.Close()
		check(t, "reopened", db)
	}

	t.Run("log-only", func(t *testing.T) {
		vfs := NewMemVFS()
		history(t, openVFS(t, vfs), vfs, "test.wal") // abandoned: a crash
		reopen(t, vfs, Options{Path: "test.wal"})
	})
	t.Run("paged", func(t *testing.T) {
		vfs := NewMemVFS()
		history(t, openPaged(t, vfs), vfs, "test.db") // abandoned before any checkpoint
		if m, err := readPagedMeta(vfs, "test.db"); err != nil || m != nil {
			t.Fatalf("the store checkpointed (meta %v, %v)", m, err)
		}
		reopen(t, vfs, Options{Path: "test.db", PoolPages: 16, PageSize: 1024})
	})
	t.Run("follower", func(t *testing.T) {
		lvfs := NewMemVFS()
		leader := openVFS(t, lvfs)
		defer leader.Close()
		history(t, leader, lvfs, "test.wal")
		shipped, _, err := leader.CommittedSince(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		fvfs := NewMemVFS()
		follower, err := Open(Options{VFS: fvfs, Path: "f.wal"})
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.ApplyCommitted(shipped); err != nil {
			t.Fatal(err)
		}
		check(t, "follower", follower)
		reopen(t, fvfs, Options{Path: "f.wal"}) // abandoned: a crash
	})
}

// TestLockStatementQueuedBehindDropIsRefused: a statement on t that queues
// behind a DROP of t — which itself waits for an open writer — is granted
// its table lock only once the drop has committed. It resolved or planned
// t before the drop, and the grant's check against the catalog then
// refuses it as naming no table: it logs nothing, and the store reopens.
func TestLockStatementQueuedBehindDropIsRefused(t *testing.T) {
	for _, c := range []struct {
		name, sql string
		locked    bool // run as a locked read in an explicit transaction
	}{
		{"insert", `INSERT INTO t VALUES (2, 'queued')`, false},
		{"update by key", `UPDATE t SET v = 'queued' WHERE k = 1`, false},
		{"delete all", `DELETE FROM t`, false},
		{"locked select", `SELECT v FROM t WHERE k = 1`, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			vfs := NewMemVFS()
			db := openVFS(t, vfs)
			mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
			stmt := func() error {
				if !c.locked {
					_, err := db.Exec(c.sql)
					return err
				}
				tx, err := db.Begin()
				if err != nil {
					return err
				}
				defer tx.Rollback()
				_, err = tx.Query(c.sql)
				return err
			}
			drop, queued := dropBesideWriter(t, db, stmt)
			if drop != nil {
				t.Fatal(drop)
			}
			if queued == nil || !strings.Contains(queued.Error(), "no table t") {
				t.Fatalf("%s behind the drop: %v, want no table t", c.sql, queued)
			}
			data, err := vfs.ReadFile("test.wal")
			if err != nil {
				t.Fatal(err)
			}
			if _, afterDrop := tableRecords(data, 1); afterDrop {
				t.Fatalf("%s logged a write of t after its drop", c.sql)
			}
			db2 := openVFS(t, vfs)
			defer db2.Close()
			if names := db2.TableNames(); len(names) != 0 {
				t.Fatalf("reopened store holds %v", names)
			}
		})
	}
}

// TestLockTableGivesBackABurst row-locks 20,000 rows in one transaction
// and commits: once the locks are released the lock table's shard maps,
// grown to hold them, are remade, so the live heap returns to near where
// it stood before the transaction instead of keeping the burst's map
// buckets for the life of the process (about 0.9 MB here).
func TestLockTableGivesBackABurst(t *testing.T) {
	const n = 20000
	db := lockFixture(t, n) // one row lock at a time
	defer db.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tx.Query(`SELECT id FROM kv WHERE id >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != n || db.LockStats().HeldRow < n {
		t.Fatalf("the read returned %d rows and holds %d row locks, want %d of each", rows.Len(), db.LockStats().HeldRow, n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("the live heap moved by %d bytes over a burst of %d row locks", grew, n)
	if grew > 128<<10 {
		t.Errorf("the live heap grew by %d bytes over a burst of %d row locks, budget 128 KiB", grew, n)
	}
}
