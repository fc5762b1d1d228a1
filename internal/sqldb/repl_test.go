package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// pump drains every committed group from leader to follower, returning
// the number of batches applied.
func pump(t *testing.T, leader, follower *DB) int {
	t.Helper()
	n := 0
	for {
		batches, durable, err := leader.CommittedSince(follower.AppliedLSN(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(batches) == 0 {
			if follower.AppliedLSN() < durable {
				t.Fatalf("no batches but follower %d < durable %d", follower.AppliedLSN(), durable)
			}
			return n
		}
		for _, b := range batches {
			if err := follower.ApplyCommitted([]CommittedBatch{b}); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
}

func dumpTable(t *testing.T, db *DB, query string) [][]Value {
	t.Helper()
	return mustQuery(t, db, query).Data
}

// TestReplShipApplyRoundTrip streams a leader's whole workload — DDL,
// inserts, updates, deletes — to a WAL-backed follower and checks the
// follower converges to an identical table, LSN horizon, and row order.
func TestReplShipApplyRoundTrip(t *testing.T) {
	leader, err := Open(Options{VFS: NewMemVFS(), Path: "l.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := Open(Options{VFS: NewMemVFS(), Path: "f.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	mustExec(t, leader, `CREATE TABLE jobs (id INTEGER PRIMARY KEY, owner TEXT NOT NULL, state TEXT NOT NULL)`)
	mustExec(t, leader, `CREATE INDEX jobs_state ON jobs (state, id)`)
	for i := 1; i <= 40; i++ {
		mustExec(t, leader, `INSERT INTO jobs (id, owner, state) VALUES (?, ?, 'idle')`, i, "u")
	}
	for i := 1; i <= 40; i += 2 {
		mustExec(t, leader, `UPDATE jobs SET state = 'running' WHERE id = ?`, i)
	}
	for i := 4; i <= 40; i += 4 {
		mustExec(t, leader, `DELETE FROM jobs WHERE id = ?`, i)
	}

	if n := pump(t, leader, follower); n == 0 {
		t.Fatal("nothing shipped")
	}
	if got, want := follower.AppliedLSN(), leader.DurableLSN(); got != want {
		t.Fatalf("follower applied %d, leader durable %d", got, want)
	}

	q := `SELECT id, owner, state FROM jobs ORDER BY id`
	lRows, fRows := dumpTable(t, leader, q), dumpTable(t, follower, q)
	if len(lRows) != len(fRows) {
		t.Fatalf("leader %d rows, follower %d", len(lRows), len(fRows))
	}
	for i := range lRows {
		for j := range lRows[i] {
			if lRows[i][j].String() != fRows[i][j].String() {
				t.Fatalf("row %d col %d: leader %v follower %v", i, j, lRows[i][j], fRows[i][j])
			}
		}
	}
	// The secondary index must answer on the follower too.
	rows := mustQuery(t, follower, `SELECT count(*) FROM jobs WHERE state = 'running'`)
	if got := rows.Data[0][0].Int64(); got <= 0 {
		t.Fatalf("index scan on follower returned %d running", got)
	}
	fs := follower.ReplStats()
	if fs.BatchesApplied == 0 || fs.RecordsApplied == 0 {
		t.Fatalf("follower stats did not count applies: %+v", fs)
	}
	ls := leader.ReplStats()
	if ls.ServedLSN != leader.DurableLSN() {
		t.Fatalf("leader served %d, durable %d", ls.ServedLSN, leader.DurableLSN())
	}
}

// TestReplIdempotentReapply re-delivers every batch a second time: all
// must be skipped by LSN, with no data change — the property that makes
// shipping safe over a duplicating, retrying link.
func TestReplIdempotentReapply(t *testing.T) {
	leader, _ := Open(Options{VFS: NewMemVFS(), Path: "l.wal"})
	defer leader.Close()
	follower, _ := Open(Options{VFS: NewMemVFS(), Path: "f.wal"})
	defer follower.Close()
	mustExec(t, leader, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, leader, `INSERT INTO t (id, v) VALUES (?, ?)`, i, i*7)
	}
	batches, _, err := leader.CommittedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyCommitted(batches); err != nil {
		t.Fatal(err)
	}
	before := follower.ReplStats()
	if err := follower.ApplyCommitted(batches); err != nil {
		t.Fatal(err)
	}
	after := follower.ReplStats()
	if after.BatchesApplied != before.BatchesApplied {
		t.Fatalf("re-delivery applied batches: %d -> %d", before.BatchesApplied, after.BatchesApplied)
	}
	if skipped := after.BatchesSkipped - before.BatchesSkipped; skipped != uint64(len(batches)) {
		t.Fatalf("skipped %d of %d re-delivered batches", skipped, len(batches))
	}
	rows := mustQuery(t, follower, `SELECT count(*), sum(v) FROM t`)
	if rows.Data[0][0].Int64() != 10 || rows.Data[0][1].Int64() != 7*55 {
		t.Fatalf("table changed under re-delivery: %v", rows.Data[0])
	}
}

// TestReplFollowerRestartResume restarts a follower mid-stream: the
// applied LSN must be durable in its own log, and shipping must resume
// from exactly that horizon.
func TestReplFollowerRestartResume(t *testing.T) {
	leader, _ := Open(Options{VFS: NewMemVFS(), Path: "l.wal"})
	defer leader.Close()
	fvfs := NewMemVFS()
	follower, _ := Open(Options{VFS: fvfs, Path: "f.wal"})

	mustExec(t, leader, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	for i := 1; i <= 20; i++ {
		mustExec(t, leader, `INSERT INTO t (id, v) VALUES (?, ?)`, i, i)
	}
	// Ship roughly half.
	batches, _, err := leader.CommittedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	half := batches[:len(batches)/2]
	if err := follower.ApplyCommitted(half); err != nil {
		t.Fatal(err)
	}
	mark := follower.AppliedLSN()
	if mark == 0 {
		t.Fatal("no progress before restart")
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	follower2, err := Open(Options{VFS: fvfs, Path: "f.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer follower2.Close()
	if got := follower2.AppliedLSN(); got != mark {
		t.Fatalf("restart lost applied horizon: %d, want %d", got, mark)
	}
	// Resume: grow the leader further, then pump from the durable mark.
	for i := 21; i <= 30; i++ {
		mustExec(t, leader, `INSERT INTO t (id, v) VALUES (?, ?)`, i, i)
	}
	pump(t, leader, follower2)
	rows := mustQuery(t, follower2, `SELECT count(*), sum(v) FROM t`)
	if rows.Data[0][0].Int64() != 30 || rows.Data[0][1].Int64() != 465 {
		t.Fatalf("resume diverged: %v", rows.Data[0])
	}
}

// TestReplSnapshotConsistencyDuringApply hammers snapshot reads on a
// follower while groups stream in. Every group is one transaction that
// updates both rows, so a reader must never observe the rows unequal —
// a half-visible group would mean the apply path leaked unstamped
// versions into snapshots.
func TestReplSnapshotConsistencyDuringApply(t *testing.T) {
	leader, _ := Open(Options{VFS: NewMemVFS(), Path: "l.wal"})
	defer leader.Close()
	follower, _ := Open(Options{VFS: NewMemVFS(), Path: "f.wal"})
	defer follower.Close()

	mustExec(t, leader, `CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`)
	mustExec(t, leader, `INSERT INTO acct (id, bal) VALUES (1, 0)`)
	mustExec(t, leader, `INSERT INTO acct (id, bal) VALUES (2, 0)`)
	const rounds = 300
	for i := 0; i < rounds; i++ {
		// One statement, one transaction, both rows.
		mustExec(t, leader, `UPDATE acct SET bal = bal + 1`)
	}

	batches, _, err := leader.CommittedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the schema + initial rows so readers have a table.
	seed := 4 // DDL, insert, insert batches at minimum
	if err := follower.ApplyCommitted(batches[:seed]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := follower.Query(`SELECT id, bal FROM acct ORDER BY id`)
				if err != nil {
					t.Error(err)
					return
				}
				if rows.Len() != 2 {
					t.Errorf("snapshot saw %d rows", rows.Len())
					return
				}
				if a, b := rows.Data[0][1].Int64(), rows.Data[1][1].Int64(); a != b {
					t.Errorf("torn snapshot: bal %d vs %d", a, b)
					return
				}
			}
		}()
	}
	for _, b := range batches[seed:] {
		if err := follower.ApplyCommitted([]CommittedBatch{b}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	rows := mustQuery(t, follower, `SELECT sum(bal) FROM acct`)
	if got := rows.Data[0][0].Int64(); got != 2*rounds {
		t.Fatalf("final sum %d, want %d", got, 2*rounds)
	}
}

// TestReplRecycledSlotApply churns insert/delete cycles on the leader so
// row slots are freed, GC'd, and recycled, then replays the stream on a
// follower: applyInsert must chain over tombstones on reused slots
// instead of rejecting them.
func TestReplRecycledSlotApply(t *testing.T) {
	leader, _ := Open(Options{VFS: NewMemVFS(), Path: "l.wal"})
	defer leader.Close()
	follower, _ := Open(Options{VFS: NewMemVFS(), Path: "f.wal"})
	defer follower.Close()

	mustExec(t, leader, `CREATE TABLE c (id INTEGER PRIMARY KEY, gen INTEGER NOT NULL)`)
	for gen := 0; gen < 50; gen++ {
		for id := 1; id <= 8; id++ {
			mustExec(t, leader, `INSERT INTO c (id, gen) VALUES (?, ?)`, id, gen)
		}
		for id := 1; id <= 8; id++ {
			mustExec(t, leader, `DELETE FROM c WHERE id = ?`, id)
		}
	}
	for id := 1; id <= 8; id++ {
		mustExec(t, leader, `INSERT INTO c (id, gen) VALUES (?, 999)`, id)
	}
	pump(t, leader, follower)
	rows := mustQuery(t, follower, `SELECT count(*) FROM c WHERE gen = 999`)
	if got := rows.Data[0][0].Int64(); got != 8 {
		t.Fatalf("follower has %d final rows, want 8", got)
	}
	if follower.AppliedLSN() != leader.DurableLSN() {
		t.Fatalf("lag remains: %d vs %d", follower.AppliedLSN(), leader.DurableLSN())
	}
}

// TestReplApplyRejectsCorruptBatch flips one byte in a shipped batch:
// validation must reject it before anything mutates, counting an apply
// error and leaving the applied horizon unmoved.
func TestReplApplyRejectsCorruptBatch(t *testing.T) {
	leader, _ := Open(Options{VFS: NewMemVFS(), Path: "l.wal"})
	defer leader.Close()
	follower, _ := Open(Options{VFS: NewMemVFS(), Path: "f.wal"})
	defer follower.Close()
	mustExec(t, leader, `CREATE TABLE t (x INTEGER)`)
	mustExec(t, leader, `INSERT INTO t (x) VALUES (1)`)
	batches, _, err := leader.CommittedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyCommitted(batches[:1]); err != nil {
		t.Fatal(err)
	}
	mark := follower.AppliedLSN()
	bad := append([]byte(nil), batches[1].Data...)
	bad[len(bad)/2] ^= 0x01
	if err := follower.ApplyCommitted([]CommittedBatch{{LSN: batches[1].LSN, Data: bad}}); err == nil {
		t.Fatal("corrupt batch accepted")
	}
	if follower.AppliedLSN() != mark {
		t.Fatal("applied horizon moved past a rejected batch")
	}
	if follower.ReplStats().ApplyErrors == 0 {
		t.Fatal("apply error not counted")
	}
	// The pristine batch must still apply afterwards.
	if err := follower.ApplyCommitted(batches[1:2]); err != nil {
		t.Fatal(err)
	}
}

// TestReplReadsRaceCheckpoints: a shipping read and a checkpoint's cut
// of the log race freely. Each read pairs one file with that file's marks,
// so with no LSN ever skipped a read is refused (ErrLogTruncated) or
// returns the groups right after the asked LSN, in order, whole — never a
// run cut from one file at the other's offsets.
func TestReplReadsRaceCheckpoints(t *testing.T) {
	db := openPaged(t, NewMemVFS())
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT NOT NULL)`)
	payload := strings.Repeat("y", 200)
	stop := make(chan struct{})
	errs := make(chan error, 2) // one per goroutine
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			if _, err := db.Exec(`INSERT INTO t (id, v) VALUES (?, ?)`, i, payload); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		for {
			select {
			case <-stop:
				errs <- nil
				return
			case <-time.After(time.Millisecond):
			}
			if err := db.Checkpoint(); err != nil {
				errs <- err
				return
			}
		}
	}()
	after, served := uint64(0), 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		batches, _, err := db.CommittedSince(after, 4<<10)
		if errors.Is(err, ErrLogTruncated) {
			after = db.wal.truncLSN.Load()
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		served += len(batches)
		for _, b := range batches {
			if b.LSN != after+1 {
				t.Fatalf("read after LSN %d: batch at LSN %d", after, b.LSN)
			}
			if _, err := decodeBatch(b); err != nil {
				t.Fatal(err)
			}
			after = b.LSN
		}
	}
	close(stop)
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if trunc := db.wal.truncLSN.Load(); served == 0 || trunc == 0 {
		t.Fatalf("%d batches served, the log cut through LSN %d: the race was not run", served, trunc)
	}
}

// TestReplCommittedSinceMatchesTheFile: CommittedSince has one read path,
// the log file from the indexed mark at or below the caller's LSN, so what
// it returns from every LSN the log can serve is exactly what splitting the
// whole file returns — with maxBytes or without, on a log spanning several
// marks, after a reopen (marks seeded by Open's log pass), after a
// checkpoint's cut (marks rebased), after a torn write's repair (marks
// trimmed to what it kept), and on a follower's own log, written by
// ApplyCommitted.
func TestReplCommittedSinceMatchesTheFile(t *testing.T) {
	const ddl = `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT NOT NULL)`
	payload := strings.Repeat("x", 900) // a group fits a 1 KiB page's record
	fill := func(t *testing.T, db *DB, from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			mustExec(t, db, `INSERT INTO t (id, v) VALUES (?, ?)`, i, payload)
		}
	}
	check := func(t *testing.T, what string, db *DB, minMarks int) {
		t.Helper()
		db.wal.idxMu.Lock()
		marks := len(db.wal.marks)
		db.wal.idxMu.Unlock()
		if marks < minMarks {
			t.Fatalf("%s: %d marks, want at least %d", what, marks, minMarks)
		}
		data, err := db.wal.vfs.ReadFile(db.wal.name)
		if err != nil {
			t.Fatal(err)
		}
		durable := db.DurableLSN()
		for _, maxBytes := range []int{0, 1, 8 << 10} {
			for x := db.wal.truncLSN.Load(); x <= durable; x++ {
				got, d, err := db.CommittedSince(x, maxBytes)
				if err != nil || d != durable {
					t.Fatalf("%s: CommittedSince(%d, %d): durable %d, err %v", what, x, maxBytes, d, err)
				}
				want := splitBatches(data, x, maxBytes, durable)
				if len(got) != len(want) || (x < durable && len(got) == 0) {
					t.Fatalf("%s: CommittedSince(%d, %d): %d batches, the file splits into %d", what, x, maxBytes, len(got), len(want))
				}
				for i := range got {
					if got[i].LSN != want[i].LSN || !bytes.Equal(got[i].Data, want[i].Data) {
						t.Fatalf("%s: CommittedSince(%d, %d): batch %d differs from the file's", what, x, maxBytes, i)
					}
				}
			}
		}
	}

	t.Run("log-only, reopened", func(t *testing.T) {
		vfs := NewMemVFS()
		db, err := Open(Options{VFS: vfs, Path: "l.wal"})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, ddl)
		fill(t, db, 0, 200)
		check(t, "written", db, 4)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = Open(Options{VFS: vfs, Path: "l.wal"})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		check(t, "reopened", db, 4)
		fill(t, db, 200, 20)
		check(t, "reopened and written", db, 4)
	})

	t.Run("paged, checkpointed", func(t *testing.T) {
		db := openPaged(t, NewMemVFS())
		defer db.Close()
		mustExec(t, db, ddl)
		fill(t, db, 0, 50)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		fill(t, db, 50, 200)
		check(t, "after a checkpoint", db, 4)
		// A barrier held below the durable LSN by an unapplied commit cuts
		// the log mid-file: the marks past the cut survive, rebased.
		if err := db.wal.truncateThrough(db.DurableLSN() - 120); err != nil {
			t.Fatal(err)
		}
		check(t, "after a cut mid-file", db, 3)
		fill(t, db, 250, 20)
		check(t, "after a cut, written", db, 3)
	})

	t.Run("torn write repaired", func(t *testing.T) {
		vfs := NewFaultVFS(NewMemVFS())
		db, err := Open(Options{VFS: vfs, Path: "l.wal"})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		mustExec(t, db, ddl)
		fill(t, db, 0, 100)
		size := func() int {
			data, err := vfs.ReadFile("l.wal")
			if err != nil {
				t.Fatal(err)
			}
			return len(data)
		}
		before := size()
		fill(t, db, 100, 1)
		group := size() - before
		// Hold the log while one committer drains its group and two more
		// queue behind it, so the next flush writes two groups at once;
		// the device then has room for the first flush, the first of the
		// two groups and half the second. The whole group the torn write
		// left stays in the log, past the mark its flush never made.
		db.wal.mu.Lock()
		errs := make(chan error, 3)
		insert := func(id int) {
			_, err := db.Exec(`INSERT INTO t (id, v) VALUES (?, ?)`, id, payload)
			errs <- err
		}
		waitQueue := func(n int) {
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				db.wal.gmu.Lock()
				ok := db.wal.flushing && len(db.wal.queue) == n
				db.wal.gmu.Unlock()
				if ok {
					return
				}
				if time.Now().After(deadline) {
					db.wal.mu.Unlock()
					t.Fatalf("the group-commit queue never held %d batches", n)
				}
			}
		}
		go insert(101)
		waitQueue(0)
		go insert(102)
		go insert(103)
		waitQueue(2)
		vfs.SetWriteBudget(int64(2*group + group/2))
		db.wal.mu.Unlock()
		failed := 0
		for range 3 {
			if err := <-errs; errors.Is(err, ErrNoSpace) {
				failed++
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if failed != 2 {
			t.Fatalf("%d commits failed on the full device, want the two flushed together", failed)
		}
		vfs.SetWriteBudget(-1)
		fill(t, db, 104, 100)
		check(t, "repaired", db, 3)
	})

	t.Run("follower", func(t *testing.T) {
		leader, err := Open(Options{VFS: NewMemVFS(), Path: "lead.wal"})
		if err != nil {
			t.Fatal(err)
		}
		defer leader.Close()
		follower, err := Open(Options{VFS: NewMemVFS(), Path: "follow.wal"})
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Close()
		mustExec(t, leader, ddl)
		fill(t, leader, 0, 200)
		for follower.AppliedLSN() < leader.DurableLSN() {
			batches, _, err := leader.CommittedSince(follower.AppliedLSN(), 8<<10)
			if err != nil || len(batches) == 0 {
				t.Fatalf("ship from LSN %d: %d batches, err %v", follower.AppliedLSN(), len(batches), err)
			}
			if err := follower.ApplyCommitted(batches); err != nil {
				t.Fatal(err)
			}
		}
		check(t, "the follower's log", follower, 4)
	})
}

// TestReplTapKeepsRecentLogAcrossCheckpoint: while a replication tap is
// registered, a checkpoint leaves the fewest whole groups holding
// walTapRetain bytes in the file, so a follower behind the checkpoint by
// less than that is still shipped from the file; one behind what is kept
// is refused. With no tap the checkpoint cuts through its LSN.
func TestReplTapKeepsRecentLogAcrossCheckpoint(t *testing.T) {
	vfs := NewMemVFS()
	db := openPagedOpts(t, vfs, 16, 8192)
	defer db.Close()
	tap, err := db.ReplicationTap()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT NOT NULL)`)
	payload := strings.Repeat("x", 7000)
	insert := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			mustExec(t, db, `INSERT INTO t (id, v) VALUES (?, ?)`, i, payload)
		}
	}
	insert(0, 700) // ≈ 4.9 MB of log
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	trunc, ckpt := db.wal.truncLSN.Load(), db.BufferPoolStats().CheckpointLSN
	if trunc == 0 || trunc >= ckpt {
		t.Fatalf("the log cut through LSN %d, checkpointed through %d: want a cut below the checkpoint", trunc, ckpt)
	}
	data, err := vfs.ReadFile("test.db")
	if err != nil {
		t.Fatal(err)
	}
	rd := logReader{data: data}
	if !rd.next() || len(data) < walTapRetain || len(data)-rd.end >= walTapRetain {
		t.Fatalf("kept %d bytes, the first group ending at %d: want the fewest whole groups holding %d", len(data), rd.end, walTapRetain)
	}
	durable := db.DurableLSN()
	got, _, err := db.CommittedSince(trunc, 0)
	want := splitBatches(data, trunc, 0, durable)
	if err != nil || len(got) != len(want) || len(got) == 0 || got[0].LSN != trunc+1 || got[len(got)-1].LSN != durable {
		t.Fatalf("resume from the kept tail's start (LSN %d): %d batches, err %v; want the file's %d, LSN %d to %d", trunc, len(got), err, len(want), trunc+1, durable)
	}
	for i := range got {
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("batch %d (LSN %d) differs from the file's", i, got[i].LSN)
		}
	}
	if _, _, err := db.CommittedSince(trunc-1, 0); !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("resume below the kept tail: err = %v, want ErrLogTruncated", err)
	}

	tap.Close()
	insert(700, 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if trunc, ckpt := db.wal.truncLSN.Load(), db.BufferPoolStats().CheckpointLSN; trunc != ckpt {
		t.Fatalf("with no tap the log cut through LSN %d, want the checkpoint's %d", trunc, ckpt)
	}
}

// TestRedoFollowerTornAppendRetried: a follower's append of a shipped run
// tears after two whole groups, so ApplyCommitted fails and its applied
// LSN stays put. The retry of the same run must not put the two groups the
// torn write landed in the log a second time: the follower then holds
// each row once, its log each LSN once, and it reopens.
func TestRedoFollowerTornAppendRetried(t *testing.T) {
	leader := openVFS(t, NewMemVFS())
	defer leader.Close()
	mustExec(t, leader, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	for i := 1; i <= 4; i++ {
		mustExec(t, leader, `INSERT INTO t VALUES (?, 'row')`, i)
	}
	shipped, _, err := leader.CommittedSince(0, 0)
	if err != nil || len(shipped) != 5 {
		t.Fatalf("shipped %d batches (%v), want CREATE and four inserts", len(shipped), err)
	}
	vfs := NewFaultVFS(NewMemVFS())
	follower, err := Open(Options{VFS: vfs, Path: "f.wal"})
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyCommitted(shipped[:1]); err != nil {
		t.Fatal(err)
	}
	applied := follower.AppliedLSN()
	inserts := shipped[1:]
	vfs.SetWriteBudget(int64(len(inserts[0].Data) + len(inserts[1].Data) + 3))
	if err := follower.ApplyCommitted(inserts); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("apply on a full device: %v, want ErrNoSpace", err)
	}
	if got := follower.AppliedLSN(); got != applied {
		t.Fatalf("a failed apply moved the applied LSN %d -> %d", applied, got)
	}
	vfs.SetWriteBudget(-1)
	if err := follower.ApplyCommitted(inserts); err != nil {
		t.Fatal(err)
	}
	want := "[[1] [2] [3] [4]]"
	if got := fmt.Sprint(mustQuery(t, follower, `SELECT id FROM t ORDER BY id`).Data); got != want {
		t.Fatalf("follower holds %s, want %s", got, want)
	}
	data, err := vfs.ReadFile("f.wal")
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for _, g := range readGroups(data) {
		lsns = append(lsns, g.lsn)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatalf("the follower's log holds LSNs %v, not each once in order", lsns)
		}
	}
	reopened, err := Open(Options{VFS: vfs, Path: "f.wal"}) // the follower abandoned: a crash
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if got := fmt.Sprint(mustQuery(t, reopened, `SELECT id FROM t ORDER BY id`).Data); got != want {
		t.Fatalf("reopened follower holds %s, want %s", got, want)
	}
}
