package sqldb

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenLog is the log TestLogGoldenBytes has the engine write: a DDL, an
// insert of a nine-column row, an update of its last column, a delete. One
// group each, so one frame each: length word, records, commit marker (05,
// LSN), CRC32C. Every record names table g by its id, 01.
const goldenLog = "" +
	// CREATE TABLE: op 09, table id 01, the statement's text (goldenDDL).
	"7e000000" + "0901" + "79" +
	"435245415445205441424c4520672028696420494e5445474552205052494d415259204b45592c206120494e54454745522c206220544558542c20632" +
	"0464c4f41542c206420424f4f4c45414e2c20652054494d455354414d502c206620544558542c206820494e54454745522c206920494e544547455229" +
	"0501" + "608aa79f" +
	// INSERT: op 06, table id 01, rid 0, nine typed values.
	"28000000" + "060100" + "09" + "0101" + "01feffffffffffffffff01" + "030178" + "02000000000000e03f" +
	"0401" + "00" + "00" + "01ac02" + "0104" + "0502" + "652dbe60" +
	// UPDATE: op 07, table id 01, rid 0, nine columns, bitmap 00 01 (the ninth), the one value.
	"0a000000" + "070100" + "09" + "0001" + "0105" + "0503" + "0e8105da" +
	// DELETE: op 08, table id 01, rid 0.
	"05000000" + "080100" + "0504" + "a8b9e2c7"

// nameFormatLog is goldenLog as the format before table ids wrote it: the
// same four groups, each record naming its table by its name (ops 01 to
// 04; a DDL record had no table). Open refuses it (ErrLogFormat).
const nameFormatLog = "" +
	// CREATE TABLE: op 04, the statement's text.
	"7d000000" + "0479" +
	"435245415445205441424c4520672028696420494e5445474552205052494d415259204b45592c206120494e54454745522c206220544558542c20632" +
	"0464c4f41542c206420424f4f4c45414e2c20652054494d455354414d502c206620544558542c206820494e54454745522c206920494e544547455229" +
	"0501" + "ac3230c4" +
	// INSERT: op 01, table "g", rid 0, nine typed values.
	"29000000" + "01016700" + "09" + "0101" + "01feffffffffffffffff01" + "030178" + "02000000000000e03f" +
	"0401" + "00" + "00" + "01ac02" + "0104" + "0502" + "ed43d97e" +
	// UPDATE: op 02, table "g", rid 0, nine columns, bitmap 00 01 (the ninth), the one value.
	"0b000000" + "02016700" + "09" + "0001" + "0105" + "0503" + "b3aca000" +
	// DELETE: op 03, table "g", rid 0.
	"06000000" + "03016700" + "0504" + "ee45b6a4"

const goldenDDL = `CREATE TABLE g (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, c FLOAT, d BOOLEAN, e TIMESTAMP, f TEXT, h INTEGER, i INTEGER)`

// TestLogGoldenBytes pins the log format byte for byte: a change to a
// record's layout, the update's changed-column bitmap or the group frame
// fails here before it reaches a log on disk. Each group's framing is
// exactly its length word, its commit marker and its CRC, and the update
// carries one value behind a two-byte bitmap.
func TestLogGoldenBytes(t *testing.T) {
	mem := NewMemVFS()
	db, err := Open(Options{VFS: mem, Path: "golden.wal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		goldenDDL,
		`INSERT INTO g VALUES (1, -2, 'x', 0.5, TRUE, NULL, NULL, 300, 4)`,
		`UPDATE g SET i = 5 WHERE id = 1`,
		`DELETE FROM g WHERE id = 1`,
	} {
		mustExec(t, db, sql)
	}
	db.Close()
	data, _ := mem.ReadFile("golden.wal")
	if got := hex.EncodeToString(data); got != goldenLog {
		t.Fatalf("the log's bytes changed:\n got %s\nwant %s", got, goldenLog)
	}

	groups := readGroups(data)
	wantOps := []walOp{walDDL, walInsert, walUpdate, walDelete}
	if len(groups) != len(wantOps) {
		t.Fatalf("%d groups, want %d", len(groups), len(wantOps))
	}
	for i, g := range groups {
		if len(g.recs) != 1 || g.recs[0].op != wantOps[i] || g.lsn != uint64(i+1) {
			t.Fatalf("group %d: lsn %d, records %+v", i, g.lsn, g.recs)
		}
		var body bytes.Buffer
		appendRecord(&body, &g.recs[0])
		// Length word 4, marker op 1, a one-byte LSN, CRC 4.
		if framing := g.end - g.start - body.Len(); framing != 10 {
			t.Errorf("group %d: %d bytes of framing, want 10", i, framing)
		}
	}
	up := groups[2].recs[0]
	if bitmap, vals := deltaValues(up); up.cols != 9 || !bytes.Equal(bitmap, []byte{0, 1}) || !reflect.DeepEqual(vals, []Value{NewInt(5)}) {
		t.Errorf("update record: cols %d, bitmap %x, values %v; want 9, 0001, [5]", up.cols, bitmap, vals)
	}

	// The steady heartbeat's record: one timestamp of the eight-column
	// machines row, the CAS schema's fourth table.
	old := []Value{NewText("node-0042"), NewText("up"), NewText("x86_64"), NewText("linux"),
		NewInt(16384), NewInt(4), NewTime(time.UnixMicro(1_790_000_000_000_000)), NewTime(time.UnixMicro(1_790_000_100_000_000))}
	beat := append([]Value(nil), old...)
	beat[7] = NewTime(time.UnixMicro(1_790_000_102_000_000))
	var rec bytes.Buffer
	r := new(txScratch).updateRecord(4, 999, imageOf(old), imageOf(beat))
	appendRecord(&rec, &r)
	if rec.Len() > 16 {
		t.Errorf("a heartbeat's update record is %d bytes before framing, want <= 16", rec.Len())
	}
}

// TestReaderRejectsBitsPastColumns: an update's bitmap has one byte form —
// a bit past its column count is a record no encoder writes.
func TestReaderRejectsBitsPastColumns(t *testing.T) {
	update := func(cols int, bitmap ...byte) []byte {
		p := append([]byte{byte(walUpdate), 1, 0}, byte(cols))
		p = append(p, bitmap...)
		for range bitmap {
			p = append(p, byte(Int), 7)
		}
		return sealGroup(1, p)
	}
	if committedLen(update(3, 0x04)) == 0 {
		t.Fatal("an update of column 2 of 3 was refused")
	}
	for _, bad := range [][]byte{update(3, 0x08), update(9, 0x00, 0x02)} {
		if committedLen(bad) != 0 {
			t.Errorf("an update with a bit set past its columns was accepted: %x", bad)
		}
	}
}

// oldFormatLog is a log as the previous format laid it down: every record
// — op, transaction id, fields — in a frame of its own, the commit marker
// (op, transaction id, LSN) too.
func oldFormatLog() []byte {
	ddl := "CREATE TABLE t (x INTEGER)"
	rec := binary.AppendUvarint([]byte{byte(walDDL), 1}, uint64(len(ddl)))
	log := sealFrame(append(rec, ddl...))
	log = append(log, sealFrame([]byte{byte(walCommit), 1, 1})...)
	rec = append([]byte{byte(walInsert), 2, 1, 't', 0, 1}, byte(Int), 7)
	log = append(log, sealFrame(rec)...)
	return append(log, sealFrame([]byte{byte(walCommit), 2, 2})...)
}

// TestOpenRefusesForeignLog: a log whose first frame is sealed but is not a
// group in this format — one record per frame, or records naming their
// tables by name — is refused by name, on both layouts, and left byte for
// byte as it was: cutting it back to where the reader stops would empty it.
func TestOpenRefusesForeignLog(t *testing.T) {
	named, err := hex.DecodeString(nameFormatLog)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := map[string][]byte{"framed records": oldFormatLog(), "table names": named}
	for _, pages := range []int{0, 16} {
		t.Run(fmt.Sprintf("pool=%d", pages), func(t *testing.T) {
			for name, old := range fixtures {
				t.Run(name, func(t *testing.T) {
					vfs := NewMemVFS()
					f, _ := vfs.Create("old.wal")
					f.Write(old)
					db, err := Open(Options{VFS: vfs, Path: "old.wal", PoolPages: pages})
					if !errors.Is(err, ErrLogFormat) {
						if db != nil {
							db.Close()
						}
						t.Fatalf("Open = %v, want ErrLogFormat", err)
					}
					if after, _ := vfs.ReadFile("old.wal"); !bytes.Equal(after, old) {
						t.Fatalf("the refused log was rewritten: %d bytes, was %d", len(after), len(old))
					}
				})
			}
		})
	}
}

// memFiles copies every file vfs holds, by name.
func memFiles(vfs *MemVFS) map[string]string {
	vfs.mu.Lock()
	defer vfs.mu.Unlock()
	out := make(map[string]string, len(vfs.files))
	for name, blob := range vfs.files {
		out[name] = string(blob.data)
	}
	return out
}

// sealMeta appends the checksum that makes body a whole meta write.
func sealMeta(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, metaCRC))
}

// oldLayoutMeta encodes m in the meta layout that carried a statistics
// byte per table, under that layout's magic: the image a store written
// before the planner dropped stored statistics holds.
func oldLayoutMeta(m *pagedMeta) []byte {
	var buf bytes.Buffer
	buf.WriteString("cj2m")
	for _, u := range []uint64{m.gen, m.ckptLSN, m.nextSeq, uint64(m.nextTableID), uint64(m.pageSize), uint64(len(m.tables))} {
		writeUvarint(&buf, u)
	}
	for _, mt := range m.tables {
		writeUvarint(&buf, uint64(mt.tableID))
		buf.WriteByte(1) // analyzed
		writeString(&buf, mt.ddl)
		writeUvarint(&buf, uint64(len(mt.indexes)))
		for _, ix := range mt.indexes {
			writeString(&buf, ix)
		}
	}
	return sealMeta(buf.Bytes())
}

// unmarkedLayoutMeta encodes m in the meta layout before each table carried
// its autoincrement mark, under that layout's magic.
func unmarkedLayoutMeta(m *pagedMeta) []byte {
	var buf bytes.Buffer
	buf.WriteString("cj2n")
	for _, u := range []uint64{m.gen, m.ckptLSN, m.nextSeq, uint64(m.nextTableID), uint64(m.pageSize), uint64(len(m.tables))} {
		writeUvarint(&buf, u)
	}
	for _, mt := range m.tables {
		writeUvarint(&buf, uint64(mt.tableID))
		writeString(&buf, mt.ddl)
		writeUvarint(&buf, uint64(len(mt.indexes)))
		for _, ix := range mt.indexes {
			writeString(&buf, ix)
		}
	}
	return sealMeta(buf.Bytes())
}

// TestForeignCheckpointMetaIsRefused: a checkpoint meta that is sealed but
// not this engine's layout — a garbage body, or an older layout with its
// own magic — is refused by name on both pool settings, and every file of
// the store is left as it was. Read as absent, it would open the store as
// one that never checkpointed: its pages cleared, or its truncated log
// taken for the whole history.
func TestForeignCheckpointMetaIsRefused(t *testing.T) {
	vfs := NewMemVFS()
	db := openPagedOpts(t, vfs, 16, 1024)
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `CREATE INDEX byv ON t (v)`)
	for i := 0; i < 40; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'v')`, i)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `DELETE FROM t WHERE k < 10`)
	if err := db.Close(); err != nil { // the second generation
		t.Fatal(err)
	}
	store := memFiles(vfs)
	a, b := metaPaths("test.db")
	for _, name := range []string{a, b, "test.db.pages"} {
		if len(store[name]) == 0 {
			t.Fatalf("the closed store has no %s", name)
		}
	}
	for name, reseal := range map[string]func([]byte) []byte{
		"garbage body": func([]byte) []byte { return sealMeta([]byte("cj2x: not a checkpoint meta")) },
		"older layout": func(img []byte) []byte {
			m, ok := decodeMeta(img)
			if !ok {
				t.Fatal("the engine's own meta does not decode")
			}
			return oldLayoutMeta(m)
		},
		"layout without autoincrement marks": func(img []byte) []byte {
			m, ok := decodeMeta(img)
			if !ok {
				t.Fatal("the engine's own meta does not decode")
			}
			return unmarkedLayoutMeta(m)
		},
	} {
		for _, pages := range []int{0, 64} {
			t.Run(fmt.Sprintf("%s/pool=%d", name, pages), func(t *testing.T) {
				vfs := NewMemVFS()
				for fname, data := range store {
					if fname == a || fname == b {
						data = string(reseal([]byte(data)))
					}
					f, _ := vfs.Create(fname)
					f.Write([]byte(data))
				}
				before := memFiles(vfs)
				db, err := Open(Options{VFS: vfs, Path: "test.db", PoolPages: pages})
				if !errors.Is(err, ErrLogFormat) {
					if db != nil {
						db.Close()
					}
					t.Fatalf("Open = %v, want ErrLogFormat", err)
				}
				if after := memFiles(vfs); !reflect.DeepEqual(after, before) {
					t.Fatal("the refused store's files changed")
				}
			})
		}
	}
}

// TestShippedBadDDLNeverReachesTheLog: a shipped DDL record must be one of
// the catalog statements the redo applies. One that does not parse, or
// parses to something else, is refused before the follower appends its
// group — appended, it would fail every later Open of the follower.
func TestShippedBadDDLNeverReachesTheLog(t *testing.T) {
	ddl := func(id uint64, sql string) walRecord { return walRecord{op: walDDL, tableID: id, sql: sql} }
	for _, recs := range [][]walRecord{
		{ddl(2, "CREATE TABLEX t")},
		{ddl(1, "ANALYZE t")},
		{ddl(1, "SELECT x FROM t")},
		{ddl(2, "CREATE TABLE u (y INTEGER)"), ddl(2, "ANALYZE u")},
	} {
		t.Run(recs[len(recs)-1].sql, func(t *testing.T) {
			vfs := NewMemVFS()
			follower := openVFS(t, vfs)
			mustExec(t, follower, `CREATE TABLE t (x INTEGER)`) // lsn 1
			before, _ := vfs.ReadFile("test.wal")
			if err := follower.ApplyCommitted(groupBytes(2, recs...)); err == nil {
				t.Fatal("the bad DDL was applied")
			}
			if after, _ := vfs.ReadFile("test.wal"); !bytes.Equal(before, after) {
				t.Fatal("the refused group reached the follower's log")
			}
			follower.Close()
			reopened := openVFS(t, vfs)
			defer reopened.Close()
			good := walRecord{op: walInsert, tableID: 1, rid: 0, img: imageOf([]Value{NewInt(7)})}
			if err := reopened.ApplyCommitted(groupBytes(2, good)); err != nil {
				t.Fatalf("a good group at the same LSN: %v", err)
			}
			if rows := mustQuery(t, reopened, `SELECT x FROM t`); rows.Len() != 1 || rows.Data[0][0].Int64() != 7 {
				t.Fatalf("after the good group: %v", rows.Data)
			}
		})
	}
}

// TestOpenTornFirstGroup: a crash in the first commit leaves a first group
// that is short or fails its CRC — or a zero-filled tail, whose empty frame
// passes a CRC — and the store must open empty, cut the tail and commit
// again; it is not a log in another format.
func TestOpenTornFirstGroup(t *testing.T) {
	whole := groupBytes(1, walRecord{op: walDDL, tableID: 1, sql: "CREATE TABLE t (x INTEGER)"})
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/2] ^= 0x40
	for name, log := range map[string][]byte{
		"short":       whole[:len(whole)-1],
		"length word": whole[:3],
		"bad CRC":     flipped,
		"zero-filled": make([]byte, 24),
	} {
		t.Run(name, func(t *testing.T) {
			vfs := NewMemVFS()
			f, _ := vfs.Create("test.wal")
			f.Write(log)
			db := openVFS(t, vfs)
			if len(db.TableNames()) != 0 {
				t.Fatalf("tables %v recovered from a torn first group", db.TableNames())
			}
			if onDisk, _ := vfs.ReadFile("test.wal"); len(onDisk) != 0 {
				t.Fatalf("log is %d bytes after open, want the torn group cut", len(onDisk))
			}
			mustExec(t, db, `CREATE TABLE u (x INTEGER)`)
			db.Close()
			reopened := openVFS(t, vfs)
			defer reopened.Close()
			if names := reopened.TableNames(); len(names) != 1 || names[0] != "u" {
				t.Fatalf("after a commit and a restart: tables %v", names)
			}
		})
	}
}

// TestDeltaRedoLeniency pins what logging only the changed columns makes
// lenient and what it leaves strict. A paged leader checkpoints, updates a
// row and deletes it; the pages holding the delete reach the disk, the
// checkpoint meta does not move, and the leader crashes. The reopen redoes
// the tail over that image: the update finds its row gone and is skipped,
// and the store matches the leader. A follower, whose log is the whole
// history, must refuse the same update of a row it never had — and leave
// its log as it was.
func TestDeltaRedoLeniency(t *testing.T) {
	vfs := NewMemVFS()
	open := func() *DB {
		db, err := Open(Options{VFS: vfs, Path: "lenient.wal", PoolPages: 4, PageSize: 1024})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return db
	}
	leader := open()
	mustExec(t, leader, `CREATE TABLE d (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, c INTEGER)`)
	for i := 1; i <= 40; i++ {
		mustExec(t, leader, `INSERT INTO d VALUES (?, ?, ?, ?)`, i, i*10, strings.Repeat("v", 20), 0)
	}
	shipped, _, err := leader.CommittedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, leader, `UPDATE d SET c = 99 WHERE id = 7`)
	mustExec(t, leader, `UPDATE d SET b = 'kept' WHERE id = 8`)
	mustExec(t, leader, `DELETE FROM d WHERE id = 7`)
	shippedGroups := readGroups(shipped)
	tail, _, err := leader.CommittedSince(shippedGroups[len(shippedGroups)-1].lsn, 0)
	tailGroups := readGroups(tail)
	if err != nil || len(tailGroups) != 3 {
		t.Fatalf("the tail above the checkpoint: %d groups, err %v", len(tailGroups), err)
	}
	if _, err := leader.store.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	leader.Vacuum()
	want := engineState(t, "leader", leader)["d"]

	// The crash: the leader is abandoned, not closed. The delete is in the
	// page image, the update of the row it removed in the log tail.
	update := tailGroups[0].recs[0]
	if _, vals := deltaValues(update); update.op != walUpdate || len(vals) != 1 {
		t.Fatalf("the first tail group holds %+v, want a one-column update", update)
	}
	reopened := open()
	defer reopened.Close()
	if got := engineState(t, "reopened", reopened)["d"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store differs from the leader\n got: %+v\nwant: %+v", got, want)
	}

	follower := openVFS(t, NewMemVFS())
	defer follower.Close()
	if err := follower.ApplyCommitted(shipped[:shippedGroups[0].end]); err != nil { // the CREATE TABLE alone
		t.Fatal(err)
	}
	before, _ := follower.wal.vfs.ReadFile("test.wal")
	err = follower.ApplyCommitted(tail[:tailGroups[0].end])
	if err == nil || !strings.Contains(err.Error(), "update of missing row") {
		t.Fatalf("ApplyCommitted of an update of a missing row = %v, want it refused", err)
	}
	if after, _ := follower.wal.vfs.ReadFile("test.wal"); !bytes.Equal(before, after) {
		t.Fatal("the refused group reached the follower's log")
	}
}
