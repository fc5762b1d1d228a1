package sqldb

import (
	"database/sql"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The MVCC snapshot protocol under test: read-only transactions capture
// the commit clock at Begin and read row versions visible at that
// timestamp without consulting the lock manager; writers keep strict 2PL
// and stamp their versions at commit; garbage collection never reclaims a
// version some active snapshot can still see.

func kvFixture(t *testing.T, rows int) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, n INTEGER NOT NULL, tag TEXT)`)
	for i := 1; i <= rows; i++ {
		mustExec(t, db, `INSERT INTO kv VALUES (?, 0, 'a')`, i)
	}
	return db
}

func TestSnapshotRepeatableRead(t *testing.T) {
	db := kvFixture(t, 3)
	ro, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	read := func(tx *Tx) int64 {
		row, err := tx.QueryRow(`SELECT n FROM kv WHERE id = 2`)
		if err != nil {
			t.Fatal(err)
		}
		return row[0].Int64()
	}
	if got := read(ro); got != 0 {
		t.Fatalf("first read = %d, want 0", got)
	}
	mustExec(t, db, `UPDATE kv SET n = 42 WHERE id = 2`)
	if got := read(ro); got != 0 {
		t.Fatalf("re-read after concurrent commit = %d, want repeatable 0", got)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	row, _ := db.QueryRow(`SELECT n FROM kv WHERE id = 2`)
	if row[0].Int64() != 42 {
		t.Fatalf("fresh snapshot = %d, want 42", row[0].Int64())
	}
}

func TestSnapshotNoPhantoms(t *testing.T) {
	db := kvFixture(t, 3)
	ro, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	count := func() int64 {
		row, err := ro.QueryRow(`SELECT count(*) FROM kv`)
		if err != nil {
			t.Fatal(err)
		}
		return row[0].Int64()
	}
	if got := count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	mustExec(t, db, `INSERT INTO kv VALUES (9, 9, 'phantom')`)
	mustExec(t, db, `DELETE FROM kv WHERE id = 1`)
	if got := count(); got != 3 {
		t.Fatalf("count after concurrent insert+delete = %d, want phantom-free 3", got)
	}
	// The deleted row is still fully readable at this snapshot, the
	// phantom invisible — through the index path too.
	row, err := ro.QueryRow(`SELECT n FROM kv WHERE id = 1`)
	if err != nil || row == nil {
		t.Fatalf("deleted row invisible to older snapshot: row=%v err=%v", row, err)
	}
	if row, _ := ro.QueryRow(`SELECT n FROM kv WHERE id = 9`); row != nil {
		t.Fatal("phantom insert visible to older snapshot")
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	db := kvFixture(t, 1)
	ro, _ := db.BeginReadOnly()
	defer ro.Rollback()
	for _, stmt := range []string{
		`INSERT INTO kv VALUES (5, 5, 'x')`,
		`UPDATE kv SET n = 1`,
		`DELETE FROM kv`,
		`CREATE TABLE nope (x INTEGER)`,
	} {
		if _, err := ro.Exec(stmt); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%s in read-only tx: err = %v, want ErrReadOnly", stmt, err)
		}
	}
}

// A snapshot read — point lookup, index range, or full scan — must leave
// the lock manager completely untouched.
func TestSnapshotReadTakesNoLocks(t *testing.T) {
	db := kvFixture(t, 10)
	before := db.LockStats()
	ro, _ := db.BeginReadOnly()
	for _, q := range []string{
		`SELECT n FROM kv WHERE id = 3`,
		`SELECT n FROM kv WHERE id > 2 AND id < 8`,
		`SELECT count(*) FROM kv`,
	} {
		if _, err := ro.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	ro.Commit()
	after := db.LockStats()
	if after.Acquired != before.Acquired || after.Waited != before.Waited {
		t.Fatalf("snapshot reads touched the lock manager: acquired %d→%d, waited %d→%d",
			before.Acquired, after.Acquired, before.Waited, after.Waited)
	}
	if vs := db.VersionStats(); vs.SnapshotReads < 3 {
		t.Fatalf("SnapshotReads = %d, want >= 3", vs.SnapshotReads)
	}
}

// An open snapshot holds no locks, so writers — including whole-table
// scans' nemesis, the full-scan S lock — proceed immediately.
func TestSnapshotReaderDoesNotBlockWriters(t *testing.T) {
	db := kvFixture(t, 4)
	ro, _ := db.BeginReadOnly()
	defer ro.Rollback()
	if _, err := ro.Query(`SELECT * FROM kv`); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := db.Exec(`UPDATE kv SET n = n + 1`); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked behind an open snapshot reader")
	}
}

// GC must never reclaim a version, index entry, or heap slot that an
// active snapshot can still reach — and must reclaim them once it ends.
func TestGCPreservesVersionsVisibleToActiveSnapshots(t *testing.T) {
	db := kvFixture(t, 3)
	ro, _ := db.BeginReadOnly()
	for i := 0; i < 10; i++ {
		mustExec(t, db, `UPDATE kv SET n = ? WHERE id = 1`, i+1)
	}
	mustExec(t, db, `UPDATE kv SET tag = 'moved' WHERE id = 2`) // pk unchanged, tag flip
	mustExec(t, db, `DELETE FROM kv WHERE id = 3`)
	db.Vacuum()
	// The old snapshot still sees the original state of all three rows.
	for id, wantN := range map[int]int64{1: 0, 2: 0, 3: 0} {
		row, err := ro.QueryRow(`SELECT n FROM kv WHERE id = ?`, id)
		if err != nil || row == nil {
			t.Fatalf("id %d invisible after Vacuum with snapshot open (row=%v err=%v)", id, row, err)
		}
		if row[0].Int64() != wantN {
			t.Fatalf("id %d: n = %d at old snapshot, want %d", id, row[0].Int64(), wantN)
		}
	}
	if row, _ := ro.QueryRow(`SELECT count(*) FROM kv`); row[0].Int64() != 3 {
		t.Fatalf("old snapshot count = %d, want 3", row[0].Int64())
	}
	ro.Commit()
	n := db.Vacuum()
	if n == 0 {
		t.Fatal("Vacuum reclaimed nothing after the pinning snapshot closed")
	}
	vs := db.VersionStats()
	if vs.SlotsReclaimed == 0 {
		t.Fatalf("deleted slot not reclaimed: %+v", vs)
	}
	if vs.PendingGC != 0 {
		t.Fatalf("PendingGC = %d after full Vacuum with no snapshots", vs.PendingGC)
	}
	// Current state intact.
	row, _ := db.QueryRow(`SELECT n FROM kv WHERE id = 1`)
	if row[0].Int64() != 10 {
		t.Fatalf("current n = %d, want 10", row[0].Int64())
	}
	if row, _ := db.QueryRow(`SELECT n FROM kv WHERE id = 3`); row != nil {
		t.Fatal("deleted row visible after GC")
	}
}

// A unique key changed away and back again (possibly across transactions)
// must survive the reclamation of the intermediate entries.
func TestGCKeyChangedAwayAndBack(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE u (id INTEGER PRIMARY KEY, k TEXT, UNIQUE (k))`)
	mustExec(t, db, `INSERT INTO u VALUES (1, 'alpha')`)
	mustExec(t, db, `UPDATE u SET k = 'beta' WHERE id = 1`)
	mustExec(t, db, `UPDATE u SET k = 'alpha' WHERE id = 1`)
	db.Vacuum()
	row, err := db.QueryRow(`SELECT id FROM u WHERE k = 'alpha'`)
	if err != nil || row == nil {
		t.Fatalf("re-claimed key lost after GC: row=%v err=%v", row, err)
	}
	if row, _ := db.QueryRow(`SELECT id FROM u WHERE k = 'beta'`); row != nil {
		t.Fatal("vacated key still matches after GC")
	}
	// The key space must be genuinely free for another row.
	if _, err := db.Exec(`INSERT INTO u VALUES (2, 'beta')`); err != nil {
		t.Fatalf("vacated unique key not reusable: %v", err)
	}
	if _, err := db.Exec(`INSERT INTO u VALUES (3, 'alpha')`); err == nil {
		t.Fatal("occupied unique key accepted a duplicate")
	}
}

// Rolling back a transaction that danced a unique key A→B→A must leave
// both the index and the key space exactly as before.
func TestRollbackKeyDanceRestoresIndex(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE u (id INTEGER PRIMARY KEY, k TEXT, UNIQUE (k))`)
	mustExec(t, db, `INSERT INTO u VALUES (1, 'alpha')`)
	tx, _ := db.Begin()
	if _, err := tx.Exec(`UPDATE u SET k = 'beta' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE u SET k = 'alpha' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	row, err := db.QueryRow(`SELECT id FROM u WHERE k = 'alpha'`)
	if err != nil || row == nil {
		t.Fatalf("key lost after rollback: row=%v err=%v", row, err)
	}
	if row, _ := db.QueryRow(`SELECT id FROM u WHERE k = 'beta'`); row != nil {
		t.Fatal("rolled-back key visible")
	}
}

// An ordered index scan over a row whose key moved must emit the row
// exactly once — at the position of the key its visible version holds —
// both at the current snapshot and at one predating the move.
func TestSnapshotScanNoDuplicatesAcrossKeyChange(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE j (id INTEGER PRIMARY KEY, state TEXT, prio INTEGER)`)
	mustExec(t, db, `CREATE INDEX j_state_prio ON j (state, prio)`)
	for i := 1; i <= 5; i++ {
		mustExec(t, db, `INSERT INTO j VALUES (?, 'idle', ?)`, i, i)
	}
	ro, _ := db.BeginReadOnly()
	defer ro.Rollback()
	mustExec(t, db, `UPDATE j SET prio = 99 WHERE id = 3`) // index key moves, both entries live
	for name, q := range map[string]*Tx{"old-snapshot": ro, "fresh": nil} {
		var rows *Rows
		var err error
		if q != nil {
			rows, err = q.Query(`SELECT id, prio FROM j WHERE state = 'idle' ORDER BY prio`)
		} else {
			rows, err = db.Query(`SELECT id, prio FROM j WHERE state = 'idle' ORDER BY prio`)
		}
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]int64{}
		for _, r := range rows.Data {
			id := r[0].Int64()
			if _, dup := seen[id]; dup {
				t.Fatalf("%s: row id %d emitted twice", name, id)
			}
			seen[id] = r[1].Int64()
		}
		if len(seen) != 5 {
			t.Fatalf("%s: got %d rows, want 5", name, len(seen))
		}
		want := int64(3)
		if q == nil {
			want = 99
		}
		if seen[3] != want {
			t.Fatalf("%s: id 3 prio = %d, want %d", name, seen[3], want)
		}
	}
}

// Crash recovery must reassign commit stamps in commit order so that a
// post-recovery snapshot sees exactly the committed state, and the commit
// clock resumes past the replayed history.
func TestRecoveryCommitStamps(t *testing.T) {
	vfs := NewMemVFS()
	db, err := Open(Options{VFS: vfs, Path: "wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, n INTEGER NOT NULL)`)
	mustExec(t, db, `INSERT INTO kv VALUES (1, 1), (2, 2), (3, 3)`)
	mustExec(t, db, `UPDATE kv SET n = 20 WHERE id = 2`)
	mustExec(t, db, `DELETE FROM kv WHERE id = 3`)
	tx, _ := db.Begin()
	if _, err := tx.Exec(`UPDATE kv SET n = 999 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// tx never commits: simulate the crash with its write in flight.

	db2, err := Open(Options{VFS: vfs, Path: "wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	vs := db2.VersionStats()
	if vs.CommitTS == 0 {
		t.Fatal("commit clock did not resume after recovery")
	}
	// One stamp per committed transaction (DDL + insert + update + delete);
	// the uncommitted writer must not have consumed one.
	if vs.CommitTS != 4 {
		t.Fatalf("recovered clock = %d, want 4 (one per committed txn)", vs.CommitTS)
	}
	if vs.OldestSnapshot != vs.CommitTS {
		t.Fatalf("watermark %d != clock %d after recovery", vs.OldestSnapshot, vs.CommitTS)
	}
	rows := mustQuery(t, db2, `SELECT id, n FROM kv ORDER BY id`)
	if rows.Len() != 2 {
		t.Fatalf("recovered %d rows, want 2", rows.Len())
	}
	if rows.Data[0][1].Int64() != 1 || rows.Data[1][1].Int64() != 20 {
		t.Fatalf("recovered state = %v", rows.Data)
	}
	// Uncommitted pre-crash work is gone; new writes stamp past the clock.
	mustExec(t, db2, `UPDATE kv SET n = 5 WHERE id = 1`)
	if after := db2.VersionStats().CommitTS; after != vs.CommitTS+1 {
		t.Fatalf("post-recovery commit stamped %d, want %d", after, vs.CommitTS+1)
	}
}

func TestExplainRendersReadMode(t *testing.T) {
	db := kvFixture(t, 2)
	// Autocommit EXPLAIN SELECT runs (and plans) as a snapshot read.
	rows := mustQuery(t, db, `EXPLAIN SELECT n FROM kv WHERE id = 1`)
	if got := rows.Data[0][2].Text(); got != "SNAPSHOT READ" {
		t.Fatalf("autocommit SELECT read mode = %q, want SNAPSHOT READ", got)
	}
	// Inside a read-write transaction the same statement reads locked.
	tx, _ := db.Begin()
	defer tx.Rollback()
	rw, err := tx.Query(`EXPLAIN SELECT n FROM kv WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rw.Data[0][2].Text(); got != "LOCKED READ" {
		t.Fatalf("read-write tx read mode = %q, want LOCKED READ", got)
	}
	// UPDATE targets always read locked, even explained from autocommit.
	rows = mustQuery(t, db, `EXPLAIN UPDATE kv SET n = 1 WHERE id = 1`)
	if got := rows.Data[0][2].Text(); got != "LOCKED READ" {
		t.Fatalf("EXPLAIN UPDATE read mode = %q, want LOCKED READ", got)
	}
}

func TestParseBeginReadOnly(t *testing.T) {
	for sqlText, want := range map[string]bool{
		`BEGIN`:                       false,
		`BEGIN TRANSACTION`:           false,
		`BEGIN READ ONLY`:             true,
		`BEGIN TRANSACTION READ ONLY`: true,
	} {
		stmt, err := Parse(sqlText)
		if err != nil {
			t.Fatalf("%s: %v", sqlText, err)
		}
		b, ok := stmt.(*BeginStmt)
		if !ok {
			t.Fatalf("%s parsed to %T", sqlText, stmt)
		}
		if b.ReadOnly != want {
			t.Fatalf("%s: ReadOnly = %v, want %v", sqlText, b.ReadOnly, want)
		}
	}
	if _, err := Parse(`BEGIN READ`); err == nil {
		t.Fatal("BEGIN READ without ONLY accepted")
	}
}

// The database/sql driver path: TxOptions{ReadOnly: true} yields a
// snapshot transaction with repeatable reads and rejected writes.
func TestDriverReadOnlyTxOptions(t *testing.T) {
	engine := kvFixture(t, 2)
	pool := sql.OpenDB(engine.Connector())
	defer pool.Close()
	tx, err := pool.BeginTx(t.Context(), &sql.TxOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	var n int64
	if err := tx.QueryRow(`SELECT n FROM kv WHERE id = 1`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	mustExec(t, engine, `UPDATE kv SET n = 77 WHERE id = 1`)
	var again int64
	if err := tx.QueryRow(`SELECT n FROM kv WHERE id = 1`).Scan(&again); err != nil {
		t.Fatal(err)
	}
	if again != n {
		t.Fatalf("read-only driver tx not repeatable: %d then %d", n, again)
	}
	if _, err := tx.Exec(`UPDATE kv SET n = 1`); err == nil {
		t.Fatal("write accepted in read-only driver transaction")
	}
}

// assertOneEntryPerLiveRow checks that index ix of tbl holds exactly one
// entry per live row, each the row's own: what a drained GC must leave.
func assertOneEntryPerLiveRow(t *testing.T, db *DB, tbl, ix string) {
	t.Helper()
	tb, err := db.lookupTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	tb.latch.RLock()
	defer tb.latch.RUnlock()
	index := tb.findIndex(ix)
	entries := 0
	var kb []byte
	index.tree.scanRange("", "", &kb, func(k string, rid int64) bool {
		entries++
		if row := tb.resolve(tb.rows.at(rid).currentVersion(0)); row == noRow || !index.entryMatches(k, row, rid) {
			t.Errorf("%s: entry %v names no live row %d", ix, k, rid)
		}
		return true
	})
	if live := tb.liveRows.Load(); int64(entries) != live {
		t.Fatalf("%s: %d entries for %d live rows", ix, entries, live)
	}
}

// An index created after a snapshot began serves that snapshot too: the
// build enters every version, so the old snapshot plans through it, reads
// its old rows, and shares the current readers' cached plan. Once the
// snapshot ends, GC leaves the index one entry per live row.
func TestSnapshotOlderThanIndexUsesIt(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE j (id INTEGER PRIMARY KEY, state TEXT)`)
	mustExec(t, db, `INSERT INTO j VALUES (1, 'idle'), (2, 'idle'), (3, 'idle'), (4, 'busy')`)
	ro, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback() // before Close, which waits for it
	mustExec(t, db, `UPDATE j SET state = 'busy' WHERE id = 1`)
	mustExec(t, db, `DELETE FROM j WHERE id = 2`)
	mustExec(t, db, `CREATE INDEX j_state ON j (state)`)

	const q = `SELECT id FROM j WHERE state = ? ORDER BY id`
	ids := func(rows *Rows) []int64 {
		var out []int64
		for _, r := range rows.Data {
			out = append(out, r[0].Int64())
		}
		return out
	}
	if got := ids(mustQuery(t, db, q, "idle")); !reflect.DeepEqual(got, []int64{3}) {
		t.Fatalf("current reader: idle = %v, want [3]", got)
	}
	cached := cachedPlanOf(t, db, q)
	if cached == nil || !cached.usedIndex {
		t.Fatal("current reader did not cache an index plan")
	}

	plan, err := ro.Query(`EXPLAIN `+q, "idle")
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Data[0][1].Text(); !strings.HasPrefix(got, "INDEX SCAN USING j_state") {
		t.Fatalf("old snapshot's access = %q, want the new index", got)
	}
	before := db.PlanCacheStats()
	for state, want := range map[string][]int64{"idle": {1, 2, 3}, "busy": {4}} {
		rows, err := ro.Query(q, state)
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("old snapshot: %s = %v, want %v", state, got, want)
		}
	}
	after := db.PlanCacheStats()
	if after.Hits-before.Hits != 2 || after.Invalidations != before.Invalidations {
		t.Fatalf("old snapshot: %d hits, %d invalidations; want 2, 0",
			after.Hits-before.Hits, after.Invalidations-before.Invalidations)
	}
	if p := cachedPlanOf(t, db, q); p != cached {
		t.Fatalf("old snapshot replaced the cached plan: %p -> %p", cached, p)
	}

	ro.Rollback()
	db.Vacuum()
	assertOneEntryPerLiveRow(t, db, "j", "j_state")
}

// CREATE INDEX beside a writer in flight on its table waits for the
// writer to resolve, whichever way it does, and then indexes what the
// writer left: after GC, one entry per live row.
func TestCreateIndexWithInFlightWriter(t *testing.T) {
	for _, commit := range []bool{true, false} {
		db := New()
		mustExec(t, db, `CREATE TABLE j (id INTEGER PRIMARY KEY, state TEXT)`)
		mustExec(t, db, `INSERT INTO j VALUES (1, 'idle'), (2, 'idle')`)
		w, _ := db.Begin()
		if _, err := w.Exec(`UPDATE j SET state = 'busy' WHERE id = 1`); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Exec(`INSERT INTO j VALUES (3, 'fresh')`); err != nil {
			t.Fatal(err)
		}
		waited := db.LockStats().Waited
		built := make(chan error, 1)
		go func() {
			_, err := db.Exec(`CREATE INDEX j_state ON j (state)`)
			built <- err
		}()
		for db.LockStats().Waited == waited {
			select {
			case err := <-built:
				t.Fatalf("commit=%v: CREATE INDEX finished (%v) beside an in-flight writer", commit, err)
			default:
				time.Sleep(time.Millisecond)
			}
		}
		var wantState1 string
		var want3 bool
		if commit {
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			wantState1, want3 = "busy", true
		} else {
			w.Rollback()
			wantState1, want3 = "idle", false
		}
		if err := <-built; err != nil {
			t.Fatal(err)
		}
		plan := mustQuery(t, db, `EXPLAIN SELECT id FROM j WHERE state = ?`, wantState1)
		if got := plan.Data[0][1].Text(); got == "SEQ SCAN" {
			t.Fatalf("commit=%v: fresh query not using the new index", commit)
		}
		rows := mustQuery(t, db, `SELECT id FROM j WHERE state = ?`, wantState1)
		found := false
		for _, r := range rows.Data {
			if r[0].Int64() == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("commit=%v: row 1 (state %q) missing from index scan: %v", commit, wantState1, rows.Data)
		}
		rows = mustQuery(t, db, `SELECT id FROM j WHERE state = 'fresh'`)
		if got := rows.Len() == 1; got != want3 {
			t.Fatalf("commit=%v: in-flight insert visibility via new index = %v, want %v", commit, got, want3)
		}
		db.Vacuum()
		assertOneEntryPerLiveRow(t, db, "j", "j_state")
		db.Close()
	}
}

// TestFullScanWindowsUnderConcurrentWriters: a snapshot full scan and a
// hash build each read their table in several latched windows, and a
// writer inserts, updates and deletes rows between (and during) them. The
// latch is released between windows, so a window may see slots the writer
// just filled or emptied; each statement must still return exactly the
// rows of its snapshot, on both engines.
func TestFullScanWindowsUnderConcurrentWriters(t *testing.T) {
	const nRows, rounds = 3*fullScanBatch + 100, 12
	for engine, open := range topKEngines(t) {
		t.Run(engine, func(t *testing.T) {
			db := open()
			defer db.Close()
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER NOT NULL, v TEXT NOT NULL)`)
			mustExec(t, db, `CREATE TABLE o (id INTEGER PRIMARY KEY, k INTEGER NOT NULL)`)
			for i := 1; i <= nRows; i++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?)`, i, i%40, fmt.Sprintf("v%d", i))
			}
			for i := 1; i <= nRows+200; i++ {
				mustExec(t, db, `INSERT INTO o VALUES (?, ?)`, i, i) // k < 40 matches
			}
			const scan = `SELECT id, k, v FROM t`
			const build = `SELECT o.id, t.id, t.v FROM o LEFT JOIN t ON t.k = o.k`
			if p := fmt.Sprint(mustQuery(t, db, "EXPLAIN "+scan).Data); !strings.Contains(p, "SEQ SCAN") {
				t.Fatalf("scan plan = %s", p)
			}
			if p := fmt.Sprint(mustQuery(t, db, "EXPLAIN "+build).Data); !strings.Contains(p, "'t' 'SEQ SCAN'") || !strings.Contains(p, "HASH JOIN (") {
				t.Fatalf("build plan = %s, want t as the hash build's full scan", p)
			}
			snap, err := db.BeginTx(t.Context(), TxOptions{ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Rollback()
			want := map[string]*Rows{}
			for _, q := range []string{scan, build} {
				if want[q], err = snap.Query(q); err != nil {
					t.Fatal(err)
				}
			}

			// The writer keeps the row count steady (one insert per delete),
			// so the plans stay put while every slot window changes.
			stop := make(chan struct{})
			werr := make(chan error, 1)
			var writes atomic.Int64
			go func() {
				defer close(werr)
				for i := 1; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					for _, w := range []struct {
						sql  string
						args []any
					}{
						{`INSERT INTO t VALUES (?, ?, ?)`, []any{nRows + i, i % 40, "new"}},
						{`UPDATE t SET v = 'changed' WHERE id = ?`, []any{(i*7)%nRows + 1}},
						{`DELETE FROM t WHERE id = ?`, []any{(i*13)%nRows + 1}},
					} {
						if _, err := db.Exec(w.sql, w.args...); err != nil {
							werr <- err
							return
						}
					}
					writes.Add(1)
				}
			}()
			for r := 0; r < rounds; r++ {
				for _, q := range []string{scan, build} {
					got, err := snap.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffRows(got, want[q], false); d != "" {
						t.Fatalf("round %d, %s: %s", r, q, d)
					}
				}
			}
			close(stop)
			if err := <-werr; err != nil {
				t.Fatal(err)
			}
			if writes.Load() == 0 {
				t.Fatal("the writer committed nothing while the scans ran")
			}
		})
	}
}

// TestVersionStatsCountEveryPrune: a write that clips its row's chain
// counts what it unlinked. With no snapshot open, a non-key UPDATE of a row
// whose previous update is committed unlinks that update's predecessor, so
// a second UPDATE over 100 rows prunes 100 versions — in the write itself,
// not in GC, which a non-key update gives no record.
func TestVersionStatsCountEveryPrune(t *testing.T) {
	for _, pool := range []int{0, 8} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			db, err := Open(Options{VFS: NewMemVFS(), Path: "test.db", PoolPages: pool})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)`)
			for k := 0; k < 100; k++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, 0)`, k)
			}
			mustExec(t, db, `UPDATE t SET v = 1`)
			before := db.VersionStats().VersionsPruned
			mustExec(t, db, `UPDATE t SET v = 2`)
			if got := db.VersionStats().VersionsPruned - before; got != 100 {
				t.Fatalf("the second UPDATE over 100 rows moved VersionsPruned by %d, want 100", got)
			}
		})
	}
}
