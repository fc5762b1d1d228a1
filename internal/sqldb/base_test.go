package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordAt decodes the live page record at loc of tbl's heap; ok is false
// when it is erased.
func recordAt(t *testing.T, db *DB, tbl *table, loc pageLoc) (rec pageRecord, ok bool) {
	t.Helper()
	f, err := db.store.pool.Fetch(loc.pid())
	if err != nil {
		t.Fatal(err)
	}
	f.Lock()
	if b := tbl.heap.liveRecord(f.Data(), rowsOf(f), loc.slot()); len(b) > 0 {
		rec, ok = decodeRecordBytes(b)
	}
	f.Unlock()
	db.store.pool.Unpin(f, false)
	return rec, ok
}

// recordLive reports whether the page record at loc of tbl's heap is the
// one it was: still there, written by the commit of group lsn.
func recordLive(t *testing.T, db *DB, tbl *table, loc pageLoc, lsn uint64) bool {
	t.Helper()
	rec, ok := recordAt(t, db, tbl, loc)
	return ok && rec.lsn == lsn
}

// begin starts a transaction on db that is rolled back when the test ends,
// if it is still open then, so a failed check cannot leave Close waiting
// for it.
func begin(t *testing.T, db *DB, readOnly bool) *Tx {
	t.Helper()
	tx, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: readOnly})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Rollback() })
	return tx
}

// wantCensus fails unless table name holds exactly the slots, versions
// and bases given.
func wantCensus(t *testing.T, db *DB, name, when string, slots, versions, bases int) {
	t.Helper()
	c := heapCensus(db)
	if got, want := c.tables[name], (tableCensus{slots: slots, versions: versions, bases: bases}); got != want {
		t.Fatalf("%s: table %s holds %d slots, %d versions, %d bases; want %d, %d, %d",
			when, name, got.slots, got.versions, got.bases, want.slots, want.versions, want.bases)
	}
}

// wantSum fails unless rows (count(*), sum(v)) reads n rows summing to
// sum.
func wantSum(t *testing.T, rows *Rows, err error, when string, n, sum int64) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if got := rows.Data[0]; got[0].Int64() != n || got[1].Int64() != sum {
		t.Fatalf("%s: %v rows summing to %v, want %d and %d", when, got[0], got[1], n, sum)
	}
}

// TestPagedBaseAbsorbsSoleVersions counts what a paged table keeps per
// row. An insert committed with no older snapshot live becomes its slot's
// base at its commit: no version object is left. An update keeps its
// row's newest version above the old base until the row's next write,
// whose prune makes it the base and erases the old one — the moment a
// prune frees the version below it anyway, so no page record is erased
// sooner than it would be without bases. A snapshot held across writes
// keeps their versions, and still reads its own rows; once it ends, Vacuum
// absorbs the inserts it held back (a row inserted and never written again
// is reached by no prune) and the next write the updates. A crash and a
// reopen leave every live row a base alone.
func TestPagedBaseAbsorbsSoleVersions(t *testing.T) {
	vfs := NewMemVFS()
	db := openPagedOpts(t, vfs, 64, 1024)
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	const n = 100
	for i := 0; i < n; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, i)
	}
	sum := int64(n * (n - 1) / 2)
	wantCensus(t, db, "t", "inserts", n, 0, n)
	r, err := db.Query(`SELECT count(*), sum(v) FROM t`)
	wantSum(t, r, err, "inserts", n, sum)

	tbl := db.table("t")
	mustExec(t, db, `UPDATE t SET v = v + 1`)
	sum += n
	wantCensus(t, db, "t", "one update", n, n, n)
	oldBase, kept := tbl.slot(0).loadBase(), tbl.slot(0).head.Load().loc
	oldRec, ok := recordAt(t, db, tbl, oldBase)
	if !ok || oldRec.rid != 0 {
		t.Fatal("the update erased the base below its version at its commit")
	}
	mustExec(t, db, `UPDATE t SET v = v + 1`)
	sum += n
	wantCensus(t, db, "t", "two updates", n, n, n)
	// The old base's record is erased (its page slot may hold a record
	// written since).
	if tbl.slot(0).loadBase() != kept || recordLive(t, db, tbl, oldBase, oldRec.lsn) {
		t.Fatal("the next write did not make the kept version the base and erase the old one")
	}
	r, err = db.Query(`SELECT count(*), sum(v) FROM t`)
	wantSum(t, r, err, "updates", n, sum)

	// A snapshot across inserts and updates: neither is absorbed at its
	// commit, and the snapshot reads the rows as they stood.
	snap := begin(t, db, true)
	for i := n; i < 2*n; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, i)
	}
	mustExec(t, db, `UPDATE t SET v = v + 1000 WHERE k < ?`, n)
	db.Vacuum()
	wantCensus(t, db, "t", "writes under a snapshot", 2*n, 2*n, n)
	r, err = snap.Query(`SELECT count(*), sum(v) FROM t`)
	wantSum(t, r, err, "the snapshot", n, sum)
	if err := snap.Rollback(); err != nil {
		t.Fatal(err)
	}
	newSum := sum + 1000*n + int64(n*n+n*(n-1)/2)
	db.Vacuum()
	wantCensus(t, db, "t", "Vacuum after the snapshot", 2*n, n, 2*n)
	held := tbl.slot(0).head.Load()
	mustExec(t, db, `UPDATE t SET v = v + 1 WHERE k < ?`, n)
	newSum += n
	wantCensus(t, db, "t", "the next write", 2*n, n, 2*n)
	if base := tbl.slot(0).loadBase(); base != held.loc {
		t.Fatalf("row 0's base is %#x after its next write, want the version it held back (%#x)", base, held.loc)
	}
	r, err = db.Query(`SELECT count(*), sum(v) FROM t`)
	wantSum(t, r, err, "after the snapshot", 2*n, newSum)

	// Crash with a tail past the checkpoint: an insert, an update and a
	// delete. Every row recovered — from the pages or the redone tail — is
	// a base alone.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (?, 7)`, 2*n)
	mustExec(t, db, `UPDATE t SET v = v + 1 WHERE k >= ?`, n)
	newSum += 7 + n + 1 - tbl.currentRow(0, 0).col(1).Int64()
	mustExec(t, db, `DELETE FROM t WHERE k = 0`)
	db2 := openPagedOpts(t, vfs, 64, 1024)
	defer db2.Close()
	c := heapCensus(db2).tables["t"]
	if c.versions != 0 || c.bases != 2*n {
		t.Fatalf("after a crash: %d versions and %d bases, want 0 and %d (%d slots)", c.versions, c.bases, 2*n, c.slots)
	}
	r, err = db2.Query(`SELECT count(*), sum(v) FROM t`)
	wantSum(t, r, err, "after a crash", 2*n, newSum)
	if st := db2.BufferPoolStats(); st.Failed != "" {
		t.Fatal(st.Failed)
	}
}

// TestVersionBaseVisibility drives the writes that meet a base: a delete
// and an update over one, their rollbacks, an insert's rollback, a unique
// check and an index build over base-only rows.
func TestVersionBaseVisibility(t *testing.T) {
	open := func(t *testing.T) (*DB, *table) {
		db := openPagedOpts(t, NewMemVFS(), 64, 1024)
		t.Cleanup(func() { db.Close() })
		mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER NOT NULL, u TEXT, UNIQUE (u))`)
		for i := 0; i < 4; i++ {
			mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?)`, i, 10*i, fmt.Sprintf("u%d", i))
		}
		wantCensus(t, db, "t", "set-up", 4, 0, 4)
		return db, db.table("t")
	}
	count := func(t *testing.T, q interface {
		Query(string, ...any) (*Rows, error)
	}, sql string, args ...any) int64 {
		t.Helper()
		r, err := q.Query(sql, args...)
		if err != nil {
			t.Fatal(err)
		}
		return r.Data[0][0].Int64()
	}

	t.Run("delete over a base", func(t *testing.T) {
		db, tbl := open(t)
		base := tbl.slot(1).loadBase()
		baseRec, _ := recordAt(t, db, tbl, base)
		snap := begin(t, db, true)
		mustExec(t, db, `DELETE FROM t WHERE k = 1`)
		db.Vacuum()
		if got := count(t, snap, `SELECT count(*) FROM t WHERE k = 1`); got != 1 {
			t.Fatalf("the older snapshot finds %d rows at k = 1 after the delete, want 1", got)
		}
		if got := count(t, snap, `SELECT count(*) FROM t WHERE v = 10`); got != 1 {
			t.Fatalf("the older snapshot's scan finds %d rows at v = 10, want 1", got)
		}
		if got := count(t, db, `SELECT count(*) FROM t WHERE k = 1`); got != 0 {
			t.Fatalf("a new read finds %d deleted rows", got)
		}
		if !recordLive(t, db, tbl, base, baseRec.lsn) || tbl.slot(1).loadBase() != base {
			t.Fatal("the base went while a snapshot could see it")
		}
		snap.Rollback()
		db.Vacuum()
		if recordLive(t, db, tbl, base, baseRec.lsn) {
			t.Fatal("GC left the deleted row's base record on its page")
		}
		if s := tbl.slot(1); s.head.Load() != nil || s.loadBase() != 0 || len(tbl.free) != 1 || tbl.free[0] != 1 {
			t.Fatalf("slot 1 not freed: free list %v", tbl.free)
		}
		if st := db.BufferPoolStats(); st.PendingTombErases != 1 {
			t.Fatalf("%d tombstone erasures queued, want the delete's one", st.PendingTombErases)
		}
		mustExec(t, db, `INSERT INTO t VALUES (9, 90, 'u1')`)
		if tbl.slot(1).loadBase() == 0 {
			t.Fatal("the insert did not reuse the freed slot as a base")
		}
	})

	t.Run("update and rollback over a base", func(t *testing.T) {
		db, tbl := open(t)
		mustExec(t, db, `CREATE INDEX t_v ON t (v)`)
		base := tbl.slot(2).loadBase()
		tx := begin(t, db, false)
		if _, err := tx.Exec(`UPDATE t SET v = 21, u = 'w2' WHERE k = 2`); err != nil {
			t.Fatal(err)
		}
		if got := count(t, db, `SELECT count(*) FROM t WHERE v = 20`); got != 1 {
			t.Fatalf("a snapshot reads %d rows at the base's key during the update, want 1", got)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if s := tbl.slot(2); s.head.Load() != nil || s.loadBase() != base {
			t.Fatal("the rollback did not leave the row its base alone")
		}
		if got := count(t, db, `SELECT count(*) FROM t WHERE v = 20 AND u = 'u2'`); got != 1 {
			t.Fatalf("after the rollback %d rows read the base's values, want 1", got)
		}
		if got := count(t, db, `SELECT count(*) FROM t WHERE v = 21`); got != 0 {
			t.Fatalf("the rolled-back key still finds %d rows", got)
		}
		assertOneEntryPerLiveRow(t, db, "t", "t_v")
		assertOneEntryPerLiveRow(t, db, "t", "uq_t_0")
		mustExec(t, db, `UPDATE t SET v = 22 WHERE k = 2`)
		db.Vacuum()
		assertOneEntryPerLiveRow(t, db, "t", "t_v")
		if got := count(t, db, `SELECT count(*) FROM t WHERE v = 22 AND u = 'u2'`); got != 1 {
			t.Fatalf("after the committed update %d rows read it, want 1", got)
		}
	})

	t.Run("key changed away and back over a base", func(t *testing.T) {
		db, _ := open(t)
		mustExec(t, db, `CREATE INDEX t_v ON t (v)`)
		snap := begin(t, db, true)
		mustExec(t, db, `UPDATE t SET v = 11 WHERE k = 1`)
		mustExec(t, db, `UPDATE t SET v = 10 WHERE k = 1`)
		snap.Rollback()
		// GC of the first update's orphan (key 10) makes the row's newest
		// version the base; the base's key claims the entry back.
		db.Vacuum()
		wantCensus(t, db, "t", "after GC", 4, 0, 4)
		if got := count(t, db, `SELECT count(*) FROM t WHERE v = 10`); got != 1 {
			t.Fatalf("the index finds %d rows at the key changed back, want 1", got)
		}
		assertOneEntryPerLiveRow(t, db, "t", "t_v")
	})

	t.Run("insert rollback frees the slot", func(t *testing.T) {
		db, tbl := open(t)
		tx := begin(t, db, false)
		if _, err := tx.Exec(`INSERT INTO t VALUES (4, 40, 'u4')`); err != nil {
			t.Fatal(err)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if s := tbl.slot(4); s.head.Load() != nil || s.loadBase() != 0 || len(tbl.free) != 1 || tbl.free[0] != 4 {
			t.Fatalf("the rolled-back insert's slot is not free: free list %v", tbl.free)
		}
		for rid := int64(0); rid < 4; rid++ {
			if tbl.slot(rid).loadBase() == 0 {
				t.Fatalf("row %d lost its base", rid)
			}
		}
		mustExec(t, db, `INSERT INTO t VALUES (5, 50, 'u5')`)
		wantCensus(t, db, "t", "the insert after", 5, 0, 5)
	})

	t.Run("unique check over bases", func(t *testing.T) {
		db, _ := open(t)
		var uv *UniqueViolationError
		if _, err := db.Exec(`INSERT INTO t VALUES (3, 0, 'new')`); !errors.As(err, &uv) {
			t.Fatalf("a duplicate primary key over a base: %v", err)
		}
		if _, err := db.Exec(`INSERT INTO t VALUES (8, 0, 'u3')`); !errors.As(err, &uv) {
			t.Fatalf("a duplicate unique value over a base: %v", err)
		}
		if _, err := db.Exec(`UPDATE t SET u = 'u1' WHERE k = 0`); !errors.As(err, &uv) {
			t.Fatalf("an update onto a base's unique value: %v", err)
		}
		mustExec(t, db, `UPDATE t SET u = 'u1x' WHERE k = 1`)
		mustExec(t, db, `UPDATE t SET u = 'u1' WHERE k = 0`) // vacated by the update above
		// The refused insert reserved slot 4 and gave it back; each update
		// moved a key, so GC pruned its row at its commit, its version the
		// base.
		wantCensus(t, db, "t", "the updates", 5, 0, 4)
		if got := count(t, db, `SELECT count(*) FROM t WHERE u = 'u1' AND k = 0`); got != 1 {
			t.Fatalf("%d rows hold the vacated value", got)
		}
	})

	t.Run("CREATE INDEX over bases", func(t *testing.T) {
		db, _ := open(t)
		snap := begin(t, db, true)
		mustExec(t, db, `UPDATE t SET v = 31 WHERE k = 3`) // a version over a base whose key differs
		mustExec(t, db, `CREATE INDEX t_v ON t (v)`)
		if got := count(t, snap, `SELECT count(*) FROM t WHERE v = 30`); got != 1 {
			t.Fatalf("the older snapshot finds %d rows at the base's key through the new index, want 1", got)
		}
		if got := count(t, db, `SELECT count(*) FROM t WHERE v = 31`); got != 1 {
			t.Fatalf("a new read finds %d rows at the version's key, want 1", got)
		}
		if got := count(t, db, `SELECT count(*) FROM t WHERE v = 30`); got != 0 {
			t.Fatalf("a new read finds %d rows at the base's old key", got)
		}
		for v := int64(0); v < 30; v += 10 {
			if got := count(t, db, `SELECT count(*) FROM t WHERE v = ?`, v); got != 1 {
				t.Fatalf("the index finds %d base-only rows at v = %d, want 1", got, v)
			}
		}
		snap.Rollback()
		db.Vacuum()
		assertOneEntryPerLiveRow(t, db, "t", "t_v")
	})
}

// TestSnapshotReadersRaceBaseAbsorb runs snapshot readers against writers
// whose commits absorb their rows into bases and whose next writes free
// those bases, with GC sweeping beside them. Every row keeps v == w, and
// a reader reads every row of its snapshot twice: the row count and the
// sum must repeat, no row may break the invariant, and no read may land
// on an erased record (BufferPoolStats.Failed).
func TestSnapshotReadersRaceBaseAbsorb(t *testing.T) {
	db := openPagedOpts(t, NewMemVFS(), 16, 1024)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER NOT NULL, w INTEGER NOT NULL)`)
	const rows = 64
	for i := 0; i < rows; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 0, 0)`, i)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
		stop.Store(true)
	}
	var next atomic.Int64
	next.Store(rows)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				var err error
				switch k := rng.Int63n(rows); rng.Intn(4) {
				case 0:
					_, err = db.Exec(`INSERT INTO t VALUES (?, 1, 1)`, next.Add(1))
				case 1:
					_, err = db.Exec(`DELETE FROM t WHERE k = ?`, rows+rng.Int63n(next.Load()-rows+1))
				default:
					_, err = db.Exec(`UPDATE t SET v = v + 1, w = w + 1 WHERE k = ?`, k)
				}
				if err != nil && !errors.Is(err, ErrDeadlock) {
					fail(err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			db.Vacuum()
			time.Sleep(time.Millisecond)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tx, err := db.BeginReadOnly()
				if err != nil {
					fail(err)
					return
				}
				var seen [2][2]int64
				for pass := range seen {
					res, err := tx.Query(`SELECT count(*), sum(v) FROM t`)
					if err != nil {
						fail(err)
						break
					}
					seen[pass] = [2]int64{res.Data[0][0].Int64(), res.Data[0][1].Int64()}
					if res, err = tx.Query(`SELECT count(*) FROM t WHERE v <> w`); err != nil || res.Data[0][0].Int64() != 0 {
						fail(fmt.Errorf("snapshot %d: rows with v != w: %v (err %v)", tx.Snapshot(), res, err))
						break
					}
				}
				if seen[0] != seen[1] {
					fail(fmt.Errorf("snapshot %d read (count, sum) %v then %v", tx.Snapshot(), seen[0], seen[1]))
				}
				tx.Rollback()
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := db.BufferPoolStats(); st.Failed != "" {
		t.Fatalf("a read met an erased record: %s", st.Failed)
	}
	db.Vacuum()
	c := heapCensus(db).tables["t"]
	if live := int(db.table("t").liveRows.Load()); c.bases == 0 || c.bases+c.versions < live {
		t.Fatalf("%d live rows, %d bases and %d versions after the race", live, c.bases, c.versions)
	}
}
