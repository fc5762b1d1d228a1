package sqldb

import (
	"bytes"
	"sync"
	"testing"
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

// TestReplRingAndFileFallback: committed batches stay in memory only while
// someone can ship them. With a tap registered CommittedSince is served
// from the ring; with none the ring stays empty and the same call is served
// from the log file — both paths must produce byte-identical batches. A tap
// registered late keeps what commits after it and leaves the rest to the
// file.
func TestReplRingAndFileFallback(t *testing.T) {
	ring := func(db *DB) (n int, base uint64) {
		db.wal.tapMu.Lock()
		defer db.wal.tapMu.Unlock()
		return len(db.wal.ring), db.wal.ringBase
	}
	load := func(tapped bool) (*DB, []CommittedBatch) {
		db, err := Open(Options{VFS: NewMemVFS(), Path: "l.wal"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if tapped {
			tap, err := db.ReplicationTap()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tap.Close)
		}
		mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
		for i := 1; i <= 25; i++ {
			mustExec(t, db, `INSERT INTO t (id, v) VALUES (?, ?)`, i, i)
		}
		got, _, err := db.CommittedSince(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return db, got
	}
	same := func(what string, a, b []CommittedBatch) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d batches against %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i].LSN != b[i].LSN || !bytes.Equal(a[i].Data, b[i].Data) {
				t.Fatalf("%s: batch %d differs", what, i)
			}
		}
	}

	tapped, fromRing := load(true)
	if n, base := ring(tapped); n != 26 || base != 0 {
		t.Fatalf("tapped leader's ring holds %d batches above LSN %d, want all 26 above 0", n, base)
	}
	data, err := tapped.wal.vfs.ReadFile("l.wal")
	if err != nil {
		t.Fatal(err)
	}
	same("ring against its own file", fromRing, splitBatches(data, 0, 0, tapped.DurableLSN()))

	untapped, fromFile := load(false)
	if n, base := ring(untapped); n != 0 || base != untapped.DurableLSN() {
		t.Fatalf("untapped leader's ring holds %d batches above LSN %d, want none above %d", n, base, untapped.DurableLSN())
	}
	same("file of an untapped leader against the ring of a tapped one", fromFile, fromRing)

	// A tap registered now: what commits from here on is kept, what came
	// before is still the file's to serve.
	joined := untapped.DurableLSN()
	tap, err := untapped.ReplicationTap()
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	mustExec(t, untapped, `INSERT INTO t (id, v) VALUES (26, 26)`)
	if n, base := ring(untapped); n != 1 || base != joined {
		t.Fatalf("after a late tap the ring holds %d batches above LSN %d, want 1 above %d", n, base, joined)
	}
	if got, _, err := untapped.CommittedSince(joined, 0); err != nil || len(got) != 1 || got[0].LSN != joined+1 {
		t.Fatalf("from the ring after the late tap: %v, err %v", got, err)
	}
	if got, _, err := untapped.CommittedSince(0, 0); err != nil || len(got) != 27 {
		t.Fatalf("from the file after the late tap: %d batches, err %v; want 27", len(got), err)
	}
}
