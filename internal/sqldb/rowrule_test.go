package sqldb

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRedoRowRules holds each row rule to every door a logged write comes
// in by. An insert onto a live row, an update of a missing row and a delete
// of a missing row are refused wherever the log is the whole history — a
// follower's ApplyCommitted refuses the group before it reaches the log
// (checkRun), and a log-only Open refuses to start over it (the redo's own
// write and remove). Over a checkpointed page image that already holds the
// write — its own record, or a later commit's record of the rid — the write
// is skipped by its LSN, and the reopened store equals the leader.
func TestRedoRowRules(t *testing.T) {
	t.Run("strict", func(t *testing.T) {
		vfs := NewMemVFS()
		leader := openVFS(t, vfs)
		defer leader.Close()
		mustExec(t, leader, `CREATE TABLE r (id INTEGER PRIMARY KEY, v INTEGER)`)
		for _, id := range []int{1, 2, 3} {
			mustExec(t, leader, `INSERT INTO r VALUES (?, ?)`, id, id*10)
		}
		mustExec(t, leader, `DELETE FROM r WHERE id = 2`) // rid 1 holds a tombstone
		shipped, lsn, err := leader.CommittedSince(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		leaderLog, _ := vfs.ReadFile("test.wal")
		follower := openVFS(t, NewMemVFS())
		defer follower.Close()
		if err := follower.ApplyCommitted(shipped); err != nil {
			t.Fatal(err)
		}

		for _, tc := range []struct {
			name string
			rec  walRecord
			want error
		}{
			{"insert onto a live row", walRecord{op: walInsert, tableID: 1, rid: 0, img: imageOf([]Value{NewInt(1), NewInt(5)})}, errInsertLive},
			{"update of a deleted row", walRecord{op: walUpdate, tableID: 1, rid: 1, cols: 2, delta: delta([]byte{0x02}, NewInt(5))}, errUpdateMissing},
			{"delete past the heap", walRecord{op: walDelete, tableID: 1, rid: 9}, errDeleteMissing},
		} {
			group := groupBytes(lsn+1, tc.rec)
			t.Run(tc.name+"/ApplyCommitted", func(t *testing.T) {
				before, _ := follower.wal.vfs.ReadFile("test.wal")
				err := follower.ApplyCommitted(group)
				if !errors.Is(err, tc.want) {
					t.Fatalf("ApplyCommitted = %v, want %q", err, tc.want)
				}
				if after, _ := follower.wal.vfs.ReadFile("test.wal"); !bytes.Equal(before, after) {
					t.Fatal("the refused group reached the follower's log")
				}
				if got := follower.AppliedLSN(); got != lsn {
					t.Fatalf("AppliedLSN = %d after the refusal, want %d", got, lsn)
				}
			})
			t.Run(tc.name+"/Open", func(t *testing.T) {
				vfs := NewMemVFS()
				f, _ := vfs.Create("test.wal")
				f.Write(leaderLog)
				f.Write(group)
				db, err := Open(Options{VFS: vfs, Path: "test.wal"})
				if db != nil {
					db.Close()
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("Open = %v, want %q", err, tc.want)
				}
			})
		}
	})

	t.Run("over a page image", func(t *testing.T) {
		for _, tc := range []struct {
			name  string
			after []string // the statements past the checkpoint
			want  error    // what the first of them breaks, redone strictly over the image
		}{
			{"insert already in the image is skipped", []string{`INSERT INTO r VALUES (41, 410, 'new')`}, errInsertLive},
			{"update of a missing row does nothing", []string{`UPDATE r SET v = 99 WHERE id = 7`, `DELETE FROM r WHERE id = 7`}, errUpdateMissing},
			{"delete of a missing row does nothing", []string{`DELETE FROM r WHERE id = 9`}, errDeleteMissing},
		} {
			t.Run(tc.name, func(t *testing.T) { redoOverImage(t, tc.after, tc.want) })
		}
	})
}

// redoOverImage runs after past a checkpoint on a paged leader, flushes
// every page and crashes it, so the page image holds the tail's effects. It
// checks that the image is what makes the tail's first group break want —
// redone over the image alone with no record LSNs to skip by, the group is
// refused — and that the crash image reopens, redoing the tail over the
// image, equal to the leader.
func redoOverImage(t *testing.T, after []string, want error) {
	t.Helper()
	open := func(vfs *MemVFS) (*DB, error) {
		return Open(Options{VFS: vfs, Path: "test.db", PoolPages: 4, PageSize: 1024})
	}
	vfs := NewMemVFS()
	leader, err := open(vfs)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, leader, `CREATE TABLE r (id INTEGER PRIMARY KEY, v INTEGER, s TEXT)`)
	for i := 1; i <= 40; i++ {
		mustExec(t, leader, `INSERT INTO r VALUES (?, ?, ?)`, i, i*10, strings.Repeat("v", 20))
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt := leader.DurableLSN()
	for _, sql := range after {
		mustExec(t, leader, sql)
	}
	run, _, err := leader.CommittedSince(ckpt, 0)
	tail := readGroups(run)
	if err != nil || len(tail) != len(after) {
		t.Fatalf("the tail above the checkpoint: %d groups, err %v", len(tail), err)
	}
	if _, err := leader.store.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	crash := snapshotVFS(t, vfs) // the leader is abandoned, not closed
	leader.Vacuum()
	wantState := engineState(t, "leader", leader)["r"]

	imageOnly := make(map[string][]byte)
	for name, data := range crash {
		imageOnly[name] = data
	}
	delete(imageOnly, "test.db") // the log: its tail is the only part the checkpoint left
	image, err := open(restoreVFS(t, imageOnly))
	if err != nil {
		t.Fatal(err)
	}
	if err := image.applyGroup(tail[0].lsn, tail[0].recs, nil); !errors.Is(err, want) {
		t.Fatalf("the tail's first group redone strictly over the image = %v, want %q", err, want)
	}
	image.Close()

	reopened, err := open(restoreVFS(t, crash))
	if err != nil {
		t.Fatalf("reopen over the image: %v", err)
	}
	defer reopened.Close()
	if got := engineState(t, "reopened", reopened)["r"]; !reflect.DeepEqual(got, wantState) {
		t.Fatalf("reopened store differs from the leader\n got: %+v\nwant: %+v", got, wantState)
	}
}

// TestSharedLatchNonKeyWrites pins the write path's fast path for both of
// its callers: an update that moves no index key is one version push under
// the table's shared latch, whether a transaction's UPDATE makes it or the
// redo of the same update shipped to a follower. Each runs while the test
// holds the shared latch; an exclusive latching anywhere on either path
// would wait on it.
func TestSharedLatchNonKeyWrites(t *testing.T) {
	leader := openVFS(t, NewMemVFS())
	defer leader.Close()
	mustExec(t, leader, `CREATE TABLE m (id INTEGER PRIMARY KEY, beat INTEGER)`)
	mustExec(t, leader, `INSERT INTO m VALUES (1, 0)`)
	follower := openVFS(t, NewMemVFS())
	defer follower.Close()
	shipped, _, err := leader.CommittedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyCommitted(shipped); err != nil {
		t.Fatal(err)
	}

	underSharedLatch := func(db *DB, who string, write func() error) {
		t.Helper()
		tbl, err := db.lookupTable("m")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		tbl.latch.RLock()
		go func() { done <- write() }()
		select {
		case err = <-done:
			tbl.latch.RUnlock()
		case <-time.After(2 * time.Second):
			t.Errorf("%s: still waiting after 2 s while the table's shared latch is held", who)
			tbl.latch.RUnlock()
			err = <-done
		}
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
	}
	lsn := leader.DurableLSN()
	underSharedLatch(leader, "a transaction's UPDATE", func() error {
		_, err := leader.Exec(`UPDATE m SET beat = 1 WHERE id = 1`)
		return err
	})
	update, _, err := leader.CommittedSince(lsn, 0)
	if n := len(readGroups(update)); err != nil || n != 1 {
		t.Fatalf("the update's group: %d groups, err %v", n, err)
	}
	underSharedLatch(follower, "the redo of the shipped update", func() error {
		return follower.ApplyCommitted(update)
	})
	if rows := mustQuery(t, follower, `SELECT beat FROM m WHERE id = 1`); rows.Data[0][0].Int64() != 1 {
		t.Fatalf("follower reads beat %v after the redo, want 1", rows.Data[0][0])
	}
}
