package sqldb

import (
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
