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

// pump drains every committed group from leader to follower, each group
// a run of its own, returning the number of groups applied.
func pump(t *testing.T, leader, follower *DB) int {
	t.Helper()
	n := 0
	for {
		run, durable, err := leader.CommittedSince(follower.AppliedLSN(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(run) == 0 {
			if follower.AppliedLSN() < durable {
				t.Fatalf("no groups but follower %d < durable %d", follower.AppliedLSN(), durable)
			}
			return n
		}
		for _, g := range readGroups(run) {
			if err := follower.ApplyCommitted(run[g.start:g.end]); err != nil {
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
	run, _, err := leader.CommittedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyCommitted(run); err != nil {
		t.Fatal(err)
	}
	before := follower.ReplStats()
	if err := follower.ApplyCommitted(run); err != nil {
		t.Fatal(err)
	}
	after := follower.ReplStats()
	if after.BatchesApplied != before.BatchesApplied {
		t.Fatalf("re-delivery applied groups: %d -> %d", before.BatchesApplied, after.BatchesApplied)
	}
	if skipped, n := after.BatchesSkipped-before.BatchesSkipped, len(readGroups(run)); skipped != uint64(n) {
		t.Fatalf("skipped %d of %d re-delivered groups", skipped, n)
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
	run, _, err := leader.CommittedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups := readGroups(run)
	half := run[:groups[len(groups)/2].start]
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

	run, _, err := leader.CommittedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups := readGroups(run)
	// Seed the schema + initial rows so readers have a table.
	seed := 4 // DDL, insert, insert groups at minimum
	if err := follower.ApplyCommitted(run[:groups[seed].start]); err != nil {
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
	for _, g := range groups[seed:] {
		if err := follower.ApplyCommitted(run[g.start:g.end]); err != nil {
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

// TestReplApplyRejectsCorruptBatch flips one byte in a shipped group:
// validation must reject it before anything mutates, counting an apply
// error and leaving the applied horizon unmoved.
func TestReplApplyRejectsCorruptBatch(t *testing.T) {
	leader, _ := Open(Options{VFS: NewMemVFS(), Path: "l.wal"})
	defer leader.Close()
	follower, _ := Open(Options{VFS: NewMemVFS(), Path: "f.wal"})
	defer follower.Close()
	mustExec(t, leader, `CREATE TABLE t (x INTEGER)`)
	mustExec(t, leader, `INSERT INTO t (x) VALUES (1)`)
	run, _, err := leader.CommittedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups := readGroups(run)
	if err := follower.ApplyCommitted(run[:groups[0].end]); err != nil {
		t.Fatal(err)
	}
	mark := follower.AppliedLSN()
	second := run[groups[1].start:groups[1].end]
	bad := append([]byte(nil), second...)
	bad[len(bad)/2] ^= 0x01
	if err := follower.ApplyCommitted(bad); err == nil {
		t.Fatal("corrupt group accepted")
	}
	if follower.AppliedLSN() != mark {
		t.Fatal("applied horizon moved past a rejected batch")
	}
	if follower.ReplStats().ApplyErrors == 0 {
		t.Fatal("apply error not counted")
	}
	// The pristine group must still apply afterwards.
	if err := follower.ApplyCommitted(second); err != nil {
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
		run, _, err := db.CommittedSince(after, 4<<10)
		if errors.Is(err, ErrLogTruncated) {
			after = db.wal.truncLSN.Load()
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := committedLen(run); n != len(run) {
			t.Fatalf("read after LSN %d: %d of the run's %d bytes are whole groups", after, n, len(run))
		}
		for _, g := range readGroups(run) {
			if g.lsn != after+1 {
				t.Fatalf("read after LSN %d: group at LSN %d", after, g.lsn)
			}
			after = g.lsn
			served++
		}
	}
	close(stop)
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if trunc := db.wal.truncLSN.Load(); served == 0 || trunc == 0 {
		t.Fatalf("%d groups served, the log cut through LSN %d: the race was not run", served, trunc)
	}
}

// TestReplCommittedSinceMatchesTheFile: CommittedSince has one read path,
// the log file from the indexed mark at or below the caller's LSN, so what
// it returns from every LSN the log can serve is exactly the run cut from
// the whole file — with maxBytes or without, on a log spanning several
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
				want, _ := cutRun(data, x, maxBytes, durable)
				if x < durable && len(got) == 0 {
					t.Fatalf("%s: CommittedSince(%d, %d): an empty run below the durable LSN", what, x, maxBytes)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: CommittedSince(%d, %d): a %d-byte run, the file's is %d bytes or differs", what, x, maxBytes, len(got), len(want))
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
				ok := len(db.wal.flush) == 1 && len(db.wal.queue) == n
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
			run, _, err := leader.CommittedSince(follower.AppliedLSN(), 8<<10)
			if err != nil || len(run) == 0 {
				t.Fatalf("ship from LSN %d: a %d-byte run, err %v", follower.AppliedLSN(), len(run), err)
			}
			if err := follower.ApplyCommitted(run); err != nil {
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
	run, _, err := db.CommittedSince(trunc, 0)
	want, _ := cutRun(data, trunc, 0, durable)
	got := readGroups(run)
	if err != nil || len(got) != len(readGroups(want)) || len(got) == 0 || got[0].lsn != trunc+1 || got[len(got)-1].lsn != durable {
		t.Fatalf("resume from the kept tail's start (LSN %d): %d groups, err %v; want the file's %d, LSN %d to %d", trunc, len(got), err, len(readGroups(want)), trunc+1, durable)
	}
	if !bytes.Equal(run, want) {
		t.Fatal("the run differs from the file's")
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
	groups := readGroups(shipped)
	if err != nil || len(groups) != 5 {
		t.Fatalf("shipped %d groups (%v), want CREATE and four inserts", len(groups), err)
	}
	vfs := NewFaultVFS(NewMemVFS())
	follower, err := Open(Options{VFS: vfs, Path: "f.wal"})
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyCommitted(shipped[:groups[0].end]); err != nil {
		t.Fatal(err)
	}
	applied := follower.AppliedLSN()
	inserts := shipped[groups[1].start:]
	vfs.SetWriteBudget(int64(groups[3].start - groups[1].start + 3))
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

// TestReplRunRule: a shipped run is whole groups in strictly rising LSN
// order, and the groups at or below the applied horizon may only lead it.
// A run breaking the rule anywhere — in its middle, in its last group, in
// bytes after its last whole group — is refused whole: counted, the
// applied LSN unmoved, the follower's log byte-identical. A run whose
// prefix is already applied applies only its suffix.
func TestReplRunRule(t *testing.T) {
	leader := openVFS(t, NewMemVFS())
	defer leader.Close()
	mustExec(t, leader, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	for i := 1; i <= 5; i++ {
		mustExec(t, leader, `INSERT INTO t (id, v) VALUES (?, ?)`, i, i)
	}
	run, _, err := leader.CommittedSince(0, 0)
	groups := readGroups(run)
	if err != nil || len(groups) != 6 {
		t.Fatalf("shipped %d groups (%v), want CREATE and five inserts", len(groups), err)
	}
	group := func(i int) []byte { return run[groups[i].start:groups[i].end] }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	vfs := NewMemVFS()
	follower, err := Open(Options{VFS: vfs, Path: "f.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.ApplyCommitted(run[:groups[2].end]); err != nil { // CREATE and two inserts
		t.Fatal(err)
	}
	applied := follower.AppliedLSN()
	for _, tc := range []struct {
		name string
		run  []byte
	}{
		{"an out-of-order group in the middle", cat(group(4), group(3), group(5))},
		{"an out-of-order last group", cat(group(3), group(5), group(4))},
		{"a repeated last group", cat(group(3), group(4), group(4))},
		{"an applied group after one to apply", cat(group(3), group(2))},
		{"trailing garbage", cat(group(3), group(4), []byte{9, 0, 0, 0, 1})},
		{"a torn last group", cat(group(3), group(4)[:len(group(4))-1])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, _ := vfs.ReadFile("f.wal")
			errs := follower.ReplStats().ApplyErrors
			if err := follower.ApplyCommitted(tc.run); err == nil {
				t.Fatal("the run was applied")
			}
			if after, _ := vfs.ReadFile("f.wal"); !bytes.Equal(before, after) {
				t.Fatalf("the refused run changed the follower's log: %d bytes → %d", len(before), len(after))
			}
			if got := follower.AppliedLSN(); got != applied {
				t.Fatalf("AppliedLSN %d after the refusal, want %d", got, applied)
			}
			if got := follower.ReplStats().ApplyErrors - errs; got != 1 {
				t.Fatalf("the refusal counted %d apply errors, want 1", got)
			}
		})
	}

	// Groups 1 and 2 are applied; the run from 1 on applies 3 to 5 only.
	before := follower.ReplStats()
	if err := follower.ApplyCommitted(run[groups[1].start:]); err != nil {
		t.Fatal(err)
	}
	after := follower.ReplStats()
	if skipped, done := after.BatchesSkipped-before.BatchesSkipped, after.BatchesApplied-before.BatchesApplied; skipped != 2 || done != 3 {
		t.Fatalf("a run with 2 groups applied and 3 new: %d skipped, %d applied", skipped, done)
	}
	if got, want := follower.AppliedLSN(), leader.DurableLSN(); got != want {
		t.Fatalf("follower applied LSN %d, leader durable %d", got, want)
	}
	if log, _ := vfs.ReadFile("f.wal"); !bytes.Equal(log, run) {
		t.Fatalf("the follower's log (%d bytes) is not the leader's run (%d bytes) as it lies", len(log), len(run))
	}
	rows := mustQuery(t, follower, `SELECT count(*), sum(v) FROM t`)
	if rows.Data[0][0].Int64() != 5 || rows.Data[0][1].Int64() != 15 {
		t.Fatalf("follower holds %v, want 5 rows summing to 15", rows.Data[0])
	}
}

// TestReplRestartServesTheKeptTail: a paged leader that checkpointed while
// shipping kept its log's recent tail in the file, and after a crash it
// still serves it. Open takes how far back the file reaches from the
// file's first group, not from the checkpoint's LSN, so a follower whose
// ack lies inside the kept tail is shipped from the file, and one below
// it is still refused.
func TestReplRestartServesTheKeptTail(t *testing.T) {
	vfs := NewMemVFS()
	db := openPagedOpts(t, vfs, 16, 8192)
	if _, err := db.ReplicationTap(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT NOT NULL)`)
	payload := strings.Repeat("x", 7000)
	for i := 0; i < 700; i++ { // ≈ 4.9 MB of log, more than the tap keeps
		mustExec(t, db, `INSERT INTO t (id, v) VALUES (?, ?)`, i, payload)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	trunc, ckpt, durable := db.wal.truncLSN.Load(), db.BufferPoolStats().CheckpointLSN, db.DurableLSN()
	if trunc == 0 || trunc+2 >= ckpt {
		t.Fatalf("the log cut through LSN %d, checkpointed through %d: want a kept tail below the checkpoint", trunc, ckpt)
	}
	crash := snapshotVFS(t, vfs) // the leader is abandoned, not closed
	db.Close()

	reopened := openPagedOpts(t, restoreVFS(t, crash), 16, 8192)
	defer reopened.Close()
	for _, from := range []uint64{trunc, (trunc + ckpt) / 2, ckpt - 1} {
		run, d, err := reopened.CommittedSince(from, 0)
		got := readGroups(run)
		if err != nil || d != durable || len(got) == 0 || committedLen(run) != len(run) || got[0].lsn != from+1 || got[len(got)-1].lsn != durable {
			t.Fatalf("restarted, resume from LSN %d inside the kept tail: %d groups, durable %d, err %v; want LSN %d to %d", from, len(got), d, err, from+1, durable)
		}
	}
	if _, _, err := reopened.CommittedSince(trunc-1, 0); !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("restarted, resume below the kept tail: err = %v, want ErrLogTruncated", err)
	}
}
