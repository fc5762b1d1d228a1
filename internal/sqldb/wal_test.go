package sqldb

import (
	"bytes"
	"testing"
)

func openVFS(t *testing.T, vfs VFS) *DB {
	t.Helper()
	db, err := Open(Options{VFS: vfs, Path: "test.wal"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func TestWALRecoverAfterRestart(t *testing.T) {
	vfs := NewMemVFS()
	db := openVFS(t, vfs)
	mustExec(t, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY AUTOINCREMENT, owner TEXT NOT NULL)`)
	mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('alice'), ('bob')`)
	mustExec(t, db, `UPDATE jobs SET owner = 'carol' WHERE id = 2`)
	mustExec(t, db, `DELETE FROM jobs WHERE id = 1`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openVFS(t, vfs)
	rows := mustQuery(t, db2, `SELECT id, owner FROM jobs`)
	if rows.Len() != 1 || rows.Data[0][0].Int64() != 2 || rows.Data[0][1].Text() != "carol" {
		t.Fatalf("recovered = %v", rows.Data)
	}
	// AUTOINCREMENT must not reuse ids after recovery.
	res := mustExec(t, db2, `INSERT INTO jobs (owner) VALUES ('dave')`)
	if res.LastInsertID != 3 {
		t.Fatalf("LastInsertID after recovery = %d, want 3", res.LastInsertID)
	}
}

func TestWALUncommittedNotRecovered(t *testing.T) {
	vfs := NewMemVFS()
	db := openVFS(t, vfs)
	mustExec(t, db, `CREATE TABLE t (x INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	tx, _ := db.Begin()
	if _, err := tx.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no commit, no close — reopen from the same VFS.
	db2 := openVFS(t, vfs)
	rows := mustQuery(t, db2, `SELECT count(*) FROM t`)
	if rows.Data[0][0].Int64() != 1 {
		t.Fatalf("uncommitted data recovered: count = %v", rows.Data[0][0])
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	vfs := NewMemVFS()
	db := openVFS(t, vfs)
	mustExec(t, db, `CREATE TABLE t (x INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (42)`)
	db.Close()

	// Corrupt the log: append garbage simulating a torn write.
	f, _ := vfs.Open("test.wal")
	f.Write([]byte{0xFF, 0x03, 0x00})

	db2 := openVFS(t, vfs)
	rows := mustQuery(t, db2, `SELECT x FROM t`)
	if rows.Len() != 1 || rows.Data[0][0].Int64() != 42 {
		t.Fatalf("recovered = %v", rows.Data)
	}
}

func TestWALCorruptMiddleStopsReplay(t *testing.T) {
	vfs := NewMemVFS()
	db := openVFS(t, vfs)
	mustExec(t, db, `CREATE TABLE t (x INTEGER)`)
	db.Close()
	data, _ := vfs.ReadFile("test.wal")
	// Flip a payload byte in the middle of the log.
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0xFF
	f, _ := vfs.Create("test.wal")
	f.Write(corrupted)

	// Recovery must not fail hard; it truncates at the corruption.
	if _, err := Open(Options{VFS: vfs, Path: "test.wal"}); err != nil {
		t.Fatalf("recovery after corruption: %v", err)
	}
}

func TestRecoveryPreservesRowIDsAndFreeList(t *testing.T) {
	vfs := NewMemVFS()
	db := openVFS(t, vfs)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(t, db, `DELETE FROM t WHERE id = 2`)
	db.Close()
	db2 := openVFS(t, vfs)
	// The freed slot must be reusable without clobbering live rows.
	mustExec(t, db2, `INSERT INTO t VALUES (4)`)
	rows := mustQuery(t, db2, `SELECT count(*) FROM t`)
	if rows.Data[0][0].Int64() != 3 {
		t.Fatalf("count = %v", rows.Data[0][0])
	}
}

func TestWALValueRoundTrip(t *testing.T) {
	vfs := NewMemVFS()
	db := openVFS(t, vfs)
	mustExec(t, db, `CREATE TABLE t (i INTEGER, f FLOAT, s TEXT, b BOOLEAN, ts TIMESTAMP)`)
	mustExec(t, db, `INSERT INTO t VALUES (-42, 3.14159, 'hello ''world''', TRUE, '2006-10-01 12:00:00')`)
	mustExec(t, db, `INSERT INTO t VALUES (NULL, NULL, NULL, NULL, NULL)`)
	db.Close()
	db2 := openVFS(t, vfs)
	rows := mustQuery(t, db2, `SELECT * FROM t`)
	r := rows.Data[0]
	if r[0].Int64() != -42 || r[1].Float64() != 3.14159 || r[2].Text() != "hello 'world'" || !r[3].Bool() {
		t.Fatalf("recovered row = %v", r)
	}
	for _, v := range rows.Data[1] {
		if !v.IsNull() {
			t.Fatalf("NULL row = %v", rows.Data[1])
		}
	}
}

func TestOSVFSEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/db.wal"
	db, err := Open(Options{VFS: OSVFS{}, Path: path, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (x INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (7)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{VFS: OSVFS{}, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT x FROM t`)
	if rows.Len() != 1 || rows.Data[0][0].Int64() != 7 {
		t.Fatalf("recovered = %v", rows.Data)
	}
}

// readCountingVFS counts whole-file reads of its MemVFS.
type readCountingVFS struct {
	*MemVFS
	reads int
}

func (v *readCountingVFS) ReadFile(name string) ([]byte, error) {
	v.reads++
	return v.MemVFS.ReadFile(name)
}

// wholeLogCut is the cut a truncation to ckptLSN makes, computed the way
// truncateThrough once did: the whole log read and scanned from byte 0.
func wholeLogCut(data []byte, ckptLSN uint64, keep int) []byte {
	cut := 0
	for rd := (logReader{data: data}); rd.skip() && rd.lsn <= ckptLSN && len(data)-rd.end >= keep; {
		cut = rd.end
	}
	return data[cut:]
}

// TestWALTruncateReadsOnlyWhatItCuts: a truncation starts at the last
// index mark at or below its LSN, reads from there with one ReadAt and
// never the whole log, and leaves the file byte for byte as the
// whole-log scan did — with no cut, cuts mid-file one after another (the
// index rebased by the one before), a cut held back by a registered
// replication tap (walTapRetain), and a cut of the whole log. After each,
// every mark past the first sits at the end of a group with the mark's
// LSN, the last at the file's end, and the log takes appends again.
func TestWALTruncateReadsOnlyWhatItCuts(t *testing.T) {
	vfs := &readCountingVFS{MemVFS: NewMemVFS()}
	db := openVFS(t, vfs)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE blobs (id INTEGER PRIMARY KEY, v TEXT NOT NULL)`)
	pad := string(make([]byte, 8<<10))
	insert := func(from, n int) {
		for id := from; id < from+n; id++ {
			mustExec(t, db, `INSERT INTO blobs (id, v) VALUES (?, ?)`, id, pad)
		}
	}
	insert(0, 900) // about 7.4 MB of log: a third cut leaves more than walTapRetain
	file := func() []byte {
		data, err := vfs.MemVFS.ReadFile("test.wal")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	durable := db.DurableLSN()
	var tap *ReplicationTap
	for _, step := range []struct {
		name    string
		ckptLSN uint64
		tap     bool
	}{
		{"below the first group", 0, false},
		{"a third", durable / 3, false},
		{"all, a tap registered, after a cut", durable, true},
		{"all", durable, false},
	} {
		if step.tap && tap == nil {
			var err error
			if tap, err = db.ReplicationTap(); err != nil {
				t.Fatal(err)
			}
		} else if !step.tap && tap != nil {
			tap.Close()
			tap = nil
		}
		keep := 0
		if step.tap {
			keep = walTapRetain
		}
		before := file()
		want := wholeLogCut(before, step.ckptLSN, keep)
		reads := vfs.reads
		if err := db.wal.truncateThrough(step.ckptLSN); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		got := file()
		if vfs.reads != reads {
			t.Errorf("%s: the truncation read the whole log", step.name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes left of %d, the whole-log cut leaves %d", step.name, len(got), len(before), len(want))
		}
		if step.tap && (len(got) < walTapRetain || len(got) == len(before)) {
			t.Fatalf("%s: %d bytes of %d left behind a tap", step.name, len(got), len(before))
		}
		ends := map[int64]uint64{}
		for rd := (logReader{data: got}); rd.skip(); {
			ends[int64(rd.end)] = rd.lsn
		}
		marks := db.wal.marks
		for _, m := range marks[1:] {
			if lsn, ok := ends[m.off]; !ok || lsn != m.lsn {
				t.Fatalf("%s: mark %+v is not the end of group %d", step.name, m, m.lsn)
			}
		}
		if last := marks[len(marks)-1].off; last != int64(len(got)) {
			t.Fatalf("%s: the last mark is at %d of %d bytes", step.name, last, len(got))
		}
	}
	if len(file()) != 0 {
		t.Fatalf("%d bytes left after a cut of the whole log", len(file()))
	}
	insert(900, 3)
	if n := mustQuery(t, db, `SELECT count(*) FROM blobs`).Data[0][0].Int64(); n != 903 {
		t.Fatalf("%d rows after the cuts and three more inserts, want 903", n)
	}
}
