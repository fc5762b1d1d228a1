package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openPagedOpts opens a paged-storage database on vfs with the given
// pool size and page size.
func openPagedOpts(t *testing.T, vfs VFS, pool, pageSize int) *DB {
	t.Helper()
	db, err := Open(Options{VFS: vfs, Path: "test.db", PoolPages: pool, PageSize: pageSize})
	if err != nil {
		t.Fatalf("Open paged: %v", err)
	}
	return db
}

func openPaged(t *testing.T, vfs VFS) *DB {
	t.Helper()
	return openPagedOpts(t, vfs, 16, 1024)
}

func walLen(t *testing.T, vfs VFS) int {
	t.Helper()
	data, err := vfs.ReadFile("test.db")
	if err != nil {
		t.Fatalf("ReadFile WAL: %v", err)
	}
	return len(data)
}

func TestPagedRoundtripCleanRestart(t *testing.T) {
	vfs := NewMemVFS()
	db := openPaged(t, vfs)
	mustExec(t, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY AUTOINCREMENT, owner TEXT NOT NULL, prio INTEGER)`)
	mustExec(t, db, `INSERT INTO jobs (owner, prio) VALUES ('alice', 1), ('bob', 2), ('carol', 3)`)
	mustExec(t, db, `UPDATE jobs SET prio = 9 WHERE owner = 'bob'`)
	mustExec(t, db, `DELETE FROM jobs WHERE owner = 'alice'`)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A clean shutdown checkpointed everything: the WAL tail is empty.
	if n := walLen(t, vfs); n != 0 {
		t.Errorf("WAL after clean close = %d bytes, want 0", n)
	}

	db2 := openPaged(t, vfs)
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT id, owner, prio FROM jobs ORDER BY id`)
	if rows.Len() != 2 ||
		rows.Data[0][1].Text() != "bob" || rows.Data[0][2].Int64() != 9 ||
		rows.Data[1][1].Text() != "carol" || rows.Data[1][2].Int64() != 3 {
		t.Fatalf("recovered rows = %v", rows.Data)
	}
	// AUTOINCREMENT must not reuse ids recovered from pages.
	res := mustExec(t, db2, `INSERT INTO jobs (owner) VALUES ('dave')`)
	if res.LastInsertID != 4 {
		t.Fatalf("LastInsertID after paged recovery = %d, want 4", res.LastInsertID)
	}
}

func TestPagedCrashBeforeFirstCheckpoint(t *testing.T) {
	vfs := NewMemVFS()
	db := openPaged(t, vfs)
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprintf("v%d", i))
	}
	// Crash: no Close, no checkpoint ever ran. Recovery must fall back to
	// full WAL replay (and discard any pages evictions may have written).
	db2 := openPaged(t, vfs)
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT count(*), min(k), max(k) FROM t`)
	if rows.Data[0][0].Int64() != 50 || rows.Data[0][1].Int64() != 0 || rows.Data[0][2].Int64() != 49 {
		t.Fatalf("recovered = %v", rows.Data)
	}
}

func TestPagedCheckpointTruncatesWAL(t *testing.T) {
	vfs := NewMemVFS()
	db := openPaged(t, vfs)
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprintf("value-%04d", i))
	}
	before := walLen(t, vfs)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after := walLen(t, vfs)
	if after != 0 {
		t.Errorf("WAL after quiescent checkpoint = %d bytes, want 0 (was %d)", after, before)
	}
	st := db.BufferPoolStats()
	if st.Checkpoints != 1 || st.CheckpointLSN == 0 {
		t.Errorf("stats after checkpoint = %+v", st)
	}

	// Commits after the checkpoint form the new tail.
	for i := 200; i < 210; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprintf("value-%04d", i))
	}
	tail := walLen(t, vfs)
	if tail == 0 || tail >= before {
		t.Errorf("post-checkpoint tail = %d bytes, want small nonzero (full log was %d)", tail, before)
	}

	// Crash. Recovery = pages + 10-commit tail.
	db2 := openPaged(t, vfs)
	rows := mustQuery(t, db2, `SELECT count(*), sum(k) FROM t`)
	if rows.Data[0][0].Int64() != 210 || rows.Data[0][1].Int64() != 209*210/2 {
		t.Fatalf("recovered = %v", rows.Data)
	}
	// The LSN horizon must resume past the truncated prefix: commit more,
	// crash again, and everything must still be there (a reused LSN would
	// be skipped as already-checkpointed by the next recovery).
	for i := 210; i < 220; i++ {
		mustExec(t, db2, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprintf("value-%04d", i))
	}
	db3 := openPaged(t, vfs)
	defer db3.Close()
	rows = mustQuery(t, db3, `SELECT count(*) FROM t`)
	if rows.Data[0][0].Int64() != 220 {
		t.Fatalf("after second crash count = %v, want 220", rows.Data[0][0])
	}
}

// TestOpenReadsLayoutFromStore: whether a store is paged is what its files
// say, not what the opener passes. Once a checkpoint has written meta — the
// one condition under which the log may have been truncated — an open that
// names no pool is still a paged open and sees every row; a store that
// never checkpointed has its whole log and opens log-only.
func TestOpenReadsLayoutFromStore(t *testing.T) {
	reopen := func(t *testing.T, vfs VFS) *DB {
		t.Helper()
		db, err := Open(Options{VFS: vfs, Path: "test.db"})
		if err != nil {
			t.Fatalf("Open with no layout option: %v", err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	fill := func(t *testing.T, db *DB, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprintf("v%d", i))
		}
	}
	// paged40 is a paged store, still open, holding table t with rows 0..39.
	paged40 := func(t *testing.T) (*MemVFS, *DB) {
		t.Helper()
		vfs := NewMemVFS()
		db := openPaged(t, vfs)
		mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
		fill(t, db, 0, 40)
		return vfs, db
	}
	check := func(t *testing.T, db *DB, rows int64, paged bool) {
		t.Helper()
		if names := db.TableNames(); len(names) != 1 || names[0] != "t" {
			t.Fatalf("tables = %v, want [t]", names)
		}
		got := mustQuery(t, db, `SELECT count(*), sum(k) FROM t`)
		if got.Data[0][0].Int64() != rows || got.Data[0][1].Int64() != rows*(rows-1)/2 {
			t.Fatalf("rows = %v, want %d of them", got.Data, rows)
		}
		if frames := db.BufferPoolStats().Frames; (frames > 0) != paged {
			t.Fatalf("pool frames = %d, want paged = %v", frames, paged)
		}
	}

	t.Run("clean close", func(t *testing.T) {
		vfs, db := paged40(t)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := reopen(t, vfs)
		check(t, db2, 40, true)
		if frames := db2.BufferPoolStats().Frames; frames != defaultPoolPages {
			t.Fatalf("pool frames = %d, want the default %d", frames, defaultPoolPages)
		}
		// It is the same store to write to, checkpoint and reopen again.
		fill(t, db2, 40, 50)
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, reopen(t, vfs), 50, true)
	})
	t.Run("crash after a checkpoint", func(t *testing.T) {
		vfs, db := paged40(t)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		fill(t, db, 40, 60) // the tail the reopen redoes over the image
		check(t, reopen(t, vfs), 60, true)
	})
	t.Run("never checkpointed", func(t *testing.T) {
		vfs, _ := paged40(t)
		// Crash before any checkpoint: no meta, the log is whole.
		check(t, reopen(t, vfs), 40, false)
	})
	t.Run("unreadable meta", func(t *testing.T) {
		vfs, db := paged40(t)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// "Could not read the meta" is not "there is no meta".
		if _, err := Open(Options{VFS: unreadableMeta{vfs}, Path: "test.db"}); err == nil || !strings.Contains(err.Error(), "checkpoint meta") {
			t.Fatalf("Open with an unreadable meta file: err = %v, want it refused", err)
		}
	})
}

// unreadableMeta fails every read of a checkpoint-meta file.
type unreadableMeta struct{ *MemVFS }

func (v unreadableMeta) ReadFile(name string) ([]byte, error) {
	if strings.Contains(name, ".meta.") {
		return nil, errors.New("input/output error")
	}
	return v.MemVFS.ReadFile(name)
}

// TestCheckpointWithoutPagesIsANoOp: there is one checkpoint algorithm, and
// it needs pages. On a log-only or in-memory database Checkpoint succeeds
// and changes nothing — the log is never rewritten or truncated.
func TestCheckpointWithoutPagesIsANoOp(t *testing.T) {
	vfs := NewMemVFS()
	db := openVFS(t, vfs)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'x')`, i)
		mustExec(t, db, `UPDATE t SET v = 'y' WHERE k = ?`, i)
	}
	before, _ := vfs.ReadFile("test.wal")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("log-only Checkpoint: %v", err)
	}
	if after, _ := vfs.ReadFile("test.wal"); !bytes.Equal(before, after) {
		t.Fatalf("log-only Checkpoint changed the log: %d → %d bytes", len(before), len(after))
	}
	if st := db.BufferPoolStats(); st.Checkpoints != 0 {
		t.Fatalf("log-only Checkpoint counted: %+v", st)
	}
	if got, _, err := db.CommittedSince(0, 0); err != nil || len(readGroups(got)) != 41 {
		t.Fatalf("log after Checkpoint ships %d groups, err %v; want all 41", len(readGroups(got)), err)
	}
	mem := New()
	defer mem.Close()
	mustExec(t, mem, `CREATE TABLE t (k INTEGER PRIMARY KEY)`)
	if err := mem.Checkpoint(); err != nil {
		t.Fatalf("in-memory Checkpoint: %v", err)
	}
}

// TestCheckpointShrinksAndPreserves: a checkpoint shortens the log, commits
// after it append to what is left, and a crash recovers the rows — and the
// secondary index, which the checkpoint's catalog image carries — from the
// pages plus that tail.
func TestCheckpointShrinksAndPreserves(t *testing.T) {
	vfs := NewMemVFS()
	db := openPaged(t, vfs)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `CREATE INDEX t_v ON t (v)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'x')`, i)
		mustExec(t, db, `UPDATE t SET v = 'y' WHERE id = ?`, i)
	}
	before := walLen(t, vfs)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if after := walLen(t, vfs); after >= before {
		t.Fatalf("checkpoint did not shrink WAL: %d → %d", before, after)
	}
	// Post-checkpoint writes append to the shortened log.
	mustExec(t, db, `INSERT INTO t VALUES (100, 'z')`)

	db2 := openPaged(t, vfs) // crash: no Close
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT count(*) FROM t`)
	if rows.Data[0][0].Int64() != 51 {
		t.Fatalf("count after checkpoint+recovery = %v", rows.Data[0][0])
	}
	var stats StmtStats
	db2.SetStatsHook(func(s StmtStats) {
		if s.Kind == "SELECT" {
			stats = s
		}
	})
	rows = mustQuery(t, db2, `SELECT count(*) FROM t WHERE v = 'y'`)
	if rows.Data[0][0].Int64() != 50 {
		t.Fatalf("indexed query = %v", rows.Data[0][0])
	}
	if !stats.UsedIndex {
		t.Fatal("index not restored by checkpoint")
	}
}

func TestPagedCrashWithMixedTail(t *testing.T) {
	vfs := NewMemVFS()
	db := openPaged(t, vfs)
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT, n INTEGER)`)
	for i := 0; i < 60; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, 0)`, i, fmt.Sprintf("v%d", i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Tail: updates of checkpointed rows, deletes of checkpointed rows,
	// fresh inserts, DDL, and an update of a fresh row.
	mustExec(t, db, `UPDATE t SET n = 1 WHERE k < 20`)
	mustExec(t, db, `DELETE FROM t WHERE k >= 50`)
	mustExec(t, db, `INSERT INTO t VALUES (100, 'tail', 7)`)
	mustExec(t, db, `CREATE INDEX byn ON t (n)`)
	mustExec(t, db, `UPDATE t SET n = 8 WHERE k = 100`)

	db2 := openPaged(t, vfs)
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT count(*) FROM t`)
	if rows.Data[0][0].Int64() != 51 {
		t.Fatalf("count = %v, want 51", rows.Data[0][0])
	}
	rows = mustQuery(t, db2, `SELECT count(*) FROM t WHERE n = 1`)
	if rows.Data[0][0].Int64() != 20 {
		t.Fatalf("updated rows = %v, want 20", rows.Data[0][0])
	}
	// The tail-replayed index must serve the fresh row's final value.
	rows = mustQuery(t, db2, `SELECT k, v FROM t WHERE n = 8`)
	if rows.Len() != 1 || rows.Data[0][0].Int64() != 100 || rows.Data[0][1].Text() != "tail" {
		t.Fatalf("indexed tail row = %v", rows.Data)
	}
	rows = mustQuery(t, db2, `SELECT count(*) FROM t WHERE k >= 50 AND k < 100`)
	if rows.Data[0][0].Int64() != 0 {
		t.Fatalf("deleted rows resurrected: %v", rows.Data)
	}
}

func TestPagedDeleteNoResurrection(t *testing.T) {
	vfs := NewMemVFS()
	db := openPaged(t, vfs)
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 30; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'x')`, i)
	}
	mustExec(t, db, `DELETE FROM t WHERE k < 10`)
	// Reclaim the deleted rows' slots, queueing the tombstones' deferred
	// page erasures, then checkpoint twice: the first makes the data-record
	// erasures durable and drains the queue, the second runs with the
	// tombstone records gone.
	db.Vacuum()
	for round := 0; round < 2; round++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %d: %v", round, err)
		}
		db2 := openPaged(t, vfs)
		rows := mustQuery(t, db2, `SELECT count(*), min(k) FROM t`)
		if rows.Data[0][0].Int64() != 20 || rows.Data[0][1].Int64() != 10 {
			t.Fatalf("round %d: recovered = %v", round, rows.Data)
		}
		db2.Close()
		db = openPaged(t, vfs)
	}
	db.Close()
}

func TestPagedDropTableRecovery(t *testing.T) {
	vfs := NewMemVFS()
	db := openPaged(t, vfs)
	mustExec(t, db, `CREATE TABLE keep (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `CREATE TABLE gone (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 40; i++ {
		mustExec(t, db, `INSERT INTO keep VALUES (?, 'keep')`, i)
		mustExec(t, db, `INSERT INTO gone VALUES (?, 'gone')`, i)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mustExec(t, db, `DROP TABLE gone`)
	// Recreate under the same name after the drop: the new incarnation
	// must not inherit the old incarnation's pages at recovery.
	mustExec(t, db, `CREATE TABLE gone (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO gone VALUES (1, 'fresh')`)

	for crash := 0; crash < 2; crash++ {
		db2 := openPaged(t, vfs)
		rows := mustQuery(t, db2, `SELECT count(*) FROM keep`)
		if rows.Data[0][0].Int64() != 40 {
			t.Fatalf("crash %d: keep count = %v", crash, rows.Data[0][0])
		}
		rows = mustQuery(t, db2, `SELECT k, v FROM gone`)
		if rows.Len() != 1 || rows.Data[0][1].Text() != "fresh" {
			t.Fatalf("crash %d: recreated table rows = %v", crash, rows.Data)
		}
		if crash == 0 {
			// Checkpoint the recreated state, then crash again: the second
			// recovery starts from pages holding both incarnations' history.
			if err := db2.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
}

func TestPagedLargerThanPool(t *testing.T) {
	vfs := NewMemVFS()
	// 4 frames of 512-byte pages: a few thousand rows overflow the pool
	// hundreds of times over.
	db := openPagedOpts(t, vfs, 4, 512)
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT, n INTEGER)`)
	const rows = 1500
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tx.Exec(`INSERT INTO t VALUES (?, ?, ?)`, i, fmt.Sprintf("payload-%06d", i), i%7); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `UPDATE t SET n = n + 100 WHERE k % 3 = 0`)

	check := func(db *DB, label string) {
		t.Helper()
		got := mustQuery(t, db, `SELECT count(*), sum(k) FROM t`)
		if got.Data[0][0].Int64() != rows || got.Data[0][1].Int64() != int64(rows*(rows-1)/2) {
			t.Fatalf("%s: count/sum = %v", label, got.Data)
		}
		got = mustQuery(t, db, `SELECT count(*) FROM t WHERE n >= 100`)
		if got.Data[0][0].Int64() != int64((rows+2)/3) {
			t.Fatalf("%s: updated count = %v", label, got.Data[0][0])
		}
		// Point reads through the primary index, spot-checked across the
		// whole key range so most must fault pages back in.
		for _, k := range []int{0, 1, 500, 999, rows - 1} {
			r := mustQuery(t, db, `SELECT v FROM t WHERE k = ?`, k)
			if r.Len() != 1 || r.Data[0][0].Text() != fmt.Sprintf("payload-%06d", k) {
				t.Fatalf("%s: point read k=%d = %v", label, k, r.Data)
			}
		}
	}
	check(db, "live")
	ps := db.BufferPoolStats()
	if ps.Evictions == 0 {
		t.Errorf("expected evictions with pool of 4 frames, stats = %+v", ps)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	check(db, "post-checkpoint")

	// Crash and recover from pages alone.
	db2 := openPagedOpts(t, vfs, 4, 512)
	defer db2.Close()
	check(db2, "recovered")
}

func TestPagedSnapshotAcrossEviction(t *testing.T) {
	vfs := NewMemVFS()
	db := openPagedOpts(t, vfs, 4, 512)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, n INTEGER)`)
	const rows = 400
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tx.Exec(`INSERT INTO t VALUES (?, ?)`, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	snap, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.Query(`SELECT sum(n) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	base := want.Data[0][0].Int64()

	// Churn every page several times over while the snapshot is open: each
	// round writes new versions through to pages and evicts the frames the
	// snapshot's old versions live on.
	for round := 0; round < 3; round++ {
		mustExec(t, db, `UPDATE t SET n = n + 1000`)
		db.Vacuum()
		got, err := snap.Query(`SELECT sum(n) FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		if got.Data[0][0].Int64() != base {
			t.Fatalf("round %d: snapshot read %v, want repeatable %d", round, got.Data[0][0], base)
		}
	}
	if err := snap.Rollback(); err != nil {
		t.Fatal(err)
	}
	// With the snapshot gone the watermark advances; the next write to
	// each row prunes its chain and erases the superseded page records
	// the snapshot was holding alive.
	mustExec(t, db, `UPDATE t SET n = n + 1000`)
	got := mustQuery(t, db, `SELECT sum(n) FROM t`)
	if wantSum := base + 4*1000*rows; got.Data[0][0].Int64() != wantSum {
		t.Fatalf("latest sum = %v, want %d", got.Data[0][0], wantSum)
	}
}

func TestPagedGCReclaimsPageSpace(t *testing.T) {
	vfs := NewMemVFS()
	db := openPagedOpts(t, vfs, 8, 512)
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'start')`)
	// Hammer one row with updates, vacuuming as we go: superseded page
	// records must be erased and their space reused, so the page count
	// stays near-flat instead of growing with update count.
	for i := 0; i < 300; i++ {
		mustExec(t, db, `UPDATE t SET v = ? WHERE k = 1`, fmt.Sprintf("generation-%04d", i))
		if i%16 == 0 {
			db.Vacuum()
		}
	}
	db.Vacuum()
	st := db.store
	if st == nil {
		t.Fatal("paged store not enabled")
	}
	if n := st.pager.Allocated(); n > 16 {
		t.Errorf("page file grew to %d pages updating one row; erasure/reuse is not working", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openPagedOpts(t, vfs, 8, 512)
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT v FROM t WHERE k = 1`)
	if rows.Len() != 1 || rows.Data[0][0].Text() != "generation-0299" {
		t.Fatalf("recovered = %v", rows.Data)
	}
}

// TestPagedCrashMidCheckpointSweep kills the checkpoint's own I/O at
// every budget from "nothing written" to "fully written" and proves each
// resulting on-disk state recovers every committed row: torn page
// writes, half-written double-write batches, torn meta, and torn WAL
// truncation all land somewhere in the sweep.
func TestPagedCrashMidCheckpointSweep(t *testing.T) {
	for budget := int64(0); budget <= 12288; budget += 1024 {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			inner := NewMemVFS()
			fv := &FaultVFS{Inner: inner}
			db, err := Open(Options{VFS: fv, Path: "test.db", PoolPages: 8, PageSize: 1024})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
			for i := 0; i < 40; i++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprintf("v%04d", i))
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("first checkpoint: %v", err)
			}
			mustExec(t, db, `UPDATE t SET v = 'updated' WHERE k < 15`)
			mustExec(t, db, `DELETE FROM t WHERE k >= 35`)

			fv.SetWriteBudget(budget)
			_ = db.Checkpoint() // may fail anywhere: flush, meta, truncation
			fv.SetWriteBudget(-1)

			// Crash without Close, reopen on the torn state.
			db2, err := Open(Options{VFS: fv, Path: "test.db", PoolPages: 8, PageSize: 1024})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer db2.Close()
			rows := mustQuery(t, db2, `SELECT count(*) FROM t`)
			if rows.Data[0][0].Int64() != 35 {
				t.Fatalf("count = %v, want 35", rows.Data[0][0])
			}
			rows = mustQuery(t, db2, `SELECT count(*) FROM t WHERE v = 'updated'`)
			if rows.Data[0][0].Int64() != 15 {
				t.Fatalf("updated = %v, want 15", rows.Data[0][0])
			}
			rows = mustQuery(t, db2, `SELECT count(*) FROM t WHERE k >= 35`)
			if rows.Data[0][0].Int64() != 0 {
				t.Fatalf("deleted rows resurrected: %v", rows.Data[0][0])
			}
		})
	}
}

// TestPagedCheckpointSyncFailure arms fsync failures during the
// checkpoint and verifies the checkpoint reports the failure while
// committed data stays recoverable.
func TestPagedCheckpointSyncFailure(t *testing.T) {
	for fails := 1; fails <= 4; fails++ {
		inner := NewMemVFS()
		fv := &FaultVFS{Inner: inner}
		db, err := Open(Options{VFS: fv, Path: "test.db", PoolPages: 8, PageSize: 1024})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY)`)
		for i := 0; i < 25; i++ {
			mustExec(t, db, `INSERT INTO t VALUES (?)`, i)
		}
		fv.FailNextSyncs(fails)
		err = db.Checkpoint()
		fv.FailNextSyncs(0)
		if err == nil {
			t.Fatalf("fails=%d: checkpoint succeeded through failing fsyncs", fails)
		}
		db2, err := Open(Options{VFS: fv, Path: "test.db", PoolPages: 8, PageSize: 1024})
		if err != nil {
			t.Fatalf("fails=%d: recovery open: %v", fails, err)
		}
		rows := mustQuery(t, db2, `SELECT count(*) FROM t`)
		if rows.Data[0][0].Int64() != 25 {
			t.Fatalf("fails=%d: count = %v, want 25", fails, rows.Data[0][0])
		}
		db2.Close()
	}
}

func TestPagedFollowerApply(t *testing.T) {
	leaderVFS, followerVFS := NewMemVFS(), NewMemVFS()
	leader := openPaged(t, leaderVFS)
	defer leader.Close()
	follower := openPaged(t, followerVFS)

	mustExec(t, leader, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 30; i++ {
		mustExec(t, leader, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprintf("v%d", i))
	}
	ship := func(f *DB) {
		t.Helper()
		run, _, err := leader.CommittedSince(f.AppliedLSN(), 0)
		if err != nil {
			t.Fatalf("CommittedSince: %v", err)
		}
		for _, g := range readGroups(run) {
			if err := f.ApplyCommitted(run[g.start:g.end]); err != nil {
				t.Fatalf("ApplyCommitted(%d): %v", g.lsn, err)
			}
		}
	}
	ship(follower)
	rows := mustQuery(t, follower, `SELECT count(*) FROM t`)
	if rows.Data[0][0].Int64() != 30 {
		t.Fatalf("follower count = %v", rows.Data[0][0])
	}
	// Checkpoint the follower (its log is in the leader's LSN space),
	// crash it, and verify it recovers and resumes shipping from where
	// its truncated log ends.
	if err := follower.Checkpoint(); err != nil {
		t.Fatalf("follower checkpoint: %v", err)
	}
	applied := follower.AppliedLSN()
	mustExec(t, leader, `UPDATE t SET v = 'post' WHERE k < 5`)

	follower2 := openPaged(t, followerVFS)
	defer follower2.Close()
	if got := follower2.AppliedLSN(); got != applied {
		t.Fatalf("follower AppliedLSN after crash = %d, want %d", got, applied)
	}
	ship(follower2)
	rows = mustQuery(t, follower2, `SELECT count(*) FROM t WHERE v = 'post'`)
	if rows.Data[0][0].Int64() != 5 {
		t.Fatalf("follower post-recovery shipped rows = %v", rows.Data[0][0])
	}
}

// TestPagedTruncatedLogRefusesFarBehindFollower: a checkpoint cuts the log's
// head off, so a follower resuming from below the cut cannot be served from
// the file — it is refused with ErrLogTruncated rather than shipped the tail
// as if nothing came before it. One resuming at or above the cut is served.
func TestPagedTruncatedLogRefusesFarBehindFollower(t *testing.T) {
	vfs := NewMemVFS()
	leader := openPaged(t, vfs)
	// A shipping leader: its tap is what keeps the recent log in the file.
	tap, err := leader.ReplicationTap()
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	mustExec(t, leader, `CREATE TABLE t (k INTEGER PRIMARY KEY)`)
	for i := 0; i < 10; i++ {
		mustExec(t, leader, `INSERT INTO t VALUES (?)`, i)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Everything this process committed is still in the file: no hole yet.
	if got, _, err := leader.CommittedSince(0, 0); err != nil || len(readGroups(got)) != 11 {
		t.Fatalf("from the kept tail: %d groups, err %v; want all 11", len(readGroups(got)), err)
	}
	// A restarted leader serves what its file kept, until a checkpoint with
	// no tap registered cuts the file, which then starts after the cut.
	leader = openPaged(t, vfs)
	defer leader.Close()
	if got, _, err := leader.CommittedSince(0, 0); err != nil || len(readGroups(got)) != 11 {
		t.Fatalf("restarted, from the kept tail: %d groups, err %v; want all 11", len(readGroups(got)), err)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cut := leader.BufferPoolStats().CheckpointLSN
	mustExec(t, leader, `INSERT INTO t VALUES (100)`)
	if _, _, err := leader.CommittedSince(cut-1, 0); !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("resume below the cut: err = %v, want ErrLogTruncated", err)
	}
	run, _, err := leader.CommittedSince(cut, 0)
	got := readGroups(run)
	if err != nil || len(got) != 1 || got[0].lsn <= cut {
		t.Fatalf("resume at the cut: %d groups, err %v; want the one commit after it", len(got), err)
	}
}

// TestPagedConcurrentChurn runs writers, snapshot readers, vacuum, and
// fuzzy checkpoints against a pool far smaller than the working set, so
// eviction constantly races commit write-through, snapshot resolution of
// paged-out versions, and checkpoint flushes. Run under -race (the
// race-pager make target), this is the eviction-vs-MVCC safety net:
// every snapshot must read a consistent total (writers move value
// between rows, preserving the sum) no matter which pages are resident.
func TestPagedConcurrentChurn(t *testing.T) {
	vfs := NewMemVFS()
	db := openPagedOpts(t, vfs, 4, 512)
	mustExec(t, db, `CREATE TABLE accts (id INTEGER PRIMARY KEY, bal INTEGER)`)
	const rows, total = 256, 256 * 100
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tx.Exec(`INSERT INTO accts VALUES (?, 100)`, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var (
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		failure atomic.Pointer[string]
	)
	report := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failure.CompareAndSwap(nil, &msg)
	}
	// Writers: move 1 from one row to another in a transaction.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := seed
			next := func(n int64) int64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				r := (rng >> 33) % n
				if r < 0 {
					r += n
				}
				return r
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, b := next(rows), next(rows)
				if a == b {
					continue
				}
				tx, err := db.Begin()
				if err != nil {
					report("Begin: %v", err)
					return
				}
				_, err1 := tx.Exec(`UPDATE accts SET bal = bal - 1 WHERE id = ?`, a)
				_, err2 := tx.Exec(`UPDATE accts SET bal = bal + 1 WHERE id = ?`, b)
				if err1 != nil || err2 != nil {
					tx.Rollback() // deadlock victim: fine, retry
					continue
				}
				if err := tx.Commit(); err != nil {
					report("Commit: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}
	// Snapshot readers: the sum is invariant at every timestamp.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := db.Query(`SELECT sum(bal) FROM accts`)
				if err != nil {
					report("snapshot query: %v", err)
					return
				}
				if got := rows.Data[0][0].Int64(); got != total {
					report("snapshot sum = %d, want %d", got, total)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.Vacuum()
			}
		}
	}()
	// The checkpointer: the engine owns no timer, so the test is the owner
	// that calls Checkpoint — every millisecond.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := db.Checkpoint(); err != nil {
					report("Checkpoint: %v", err)
					return
				}
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if msg := failure.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Recover and re-verify the invariant from pages alone.
	db2 := openPagedOpts(t, vfs, 4, 512)
	defer db2.Close()
	got := mustQuery(t, db2, `SELECT sum(bal), count(*) FROM accts`)
	if got.Data[0][0].Int64() != total || got.Data[0][1].Int64() != rows {
		t.Fatalf("recovered sum/count = %v", got.Data)
	}
	if s := db2.BufferPoolStats(); s.Failed != "" {
		t.Fatalf("sticky page-storage failure: %s", s.Failed)
	}
}

func TestPagedBufferPoolStats(t *testing.T) {
	vfs := NewMemVFS()
	db := openPagedOpts(t, vfs, 4, 512)
	defer db.Close()
	if s := (&DB{}).BufferPoolStats(); s != (BufferPoolStats{}) {
		t.Errorf("unpaged stats = %+v, want zeros", s)
	}
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 300; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprintf("padding-%06d", i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, `SELECT sum(k) FROM t`)
	s := db.BufferPoolStats()
	if s.Frames != 4 || s.Resident == 0 || s.Hits+s.Misses == 0 {
		t.Errorf("occupancy stats = %+v", s)
	}
	if s.Misses == 0 || s.Evictions == 0 || s.PageWrites == 0 || s.PageReads == 0 {
		t.Errorf("traffic stats = %+v", s)
	}
	if s.Checkpoints != 1 || s.CheckpointLSN == 0 || s.Failed != "" {
		t.Errorf("checkpoint stats = %+v", s)
	}
}
