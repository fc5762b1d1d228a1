package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// logGroup is one committed group as logReader yields it, copied out so a
// test can hold the whole log's groups at once (the engine never does).
type logGroup struct {
	lsn        uint64
	recs       []walRecord
	start, end int
}

// readGroups collects every committed group of raw log bytes.
func readGroups(data []byte) []logGroup {
	var out []logGroup
	for rd := (logReader{data: data}); rd.next(); {
		out = append(out, logGroup{lsn: rd.lsn, recs: append([]walRecord(nil), rd.recs...), start: rd.start, end: rd.end})
	}
	return out
}

// committedLen reports how many leading bytes of a log form whole
// committed groups — the boundary every repair cuts to.
func committedLen(data []byte) int {
	rd := logReader{data: data}
	for rd.next() {
	}
	return rd.end
}

// sealFrame frames a raw payload as the log frames a group — length word,
// payload, CRC32C — without going through appendGroup, so a test can seal
// bytes the encoder would never produce.
func sealFrame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, walCRC))
}

// sealGroup seals records — raw record bytes — and a commit marker for lsn
// behind them as one group.
func sealGroup(lsn uint64, records []byte) []byte {
	payload := append(append([]byte(nil), records...), byte(walCommit))
	return sealFrame(binary.AppendUvarint(payload, lsn))
}

// groupBytes encodes recs as one committed group at lsn, exactly as a
// flush lays it down.
func groupBytes(lsn uint64, recs ...walRecord) []byte {
	var body, out bytes.Buffer
	for i := range recs {
		appendRecord(&body, &recs[i])
	}
	appendGroup(&out, body.Bytes(), crc32.Checksum(body.Bytes(), walCRC), lsn)
	return out.Bytes()
}

// TestRedoRejectsHostileRecords sends CRC-valid records no encoder writes
// through both doors a log group comes in by. Three of them do not decode —
// each used to panic the decoder or the redo. A shipped run (core's
// handleShip hands a request's bytes straight to ApplyCommitted) must be
// refused before it reaches the follower's own log; a log that already
// holds one must open, the group treated like any other undecodable tail:
// cut, never applied. The others decode but name a table id no live table
// has — 0, one never assigned, one whose table was dropped, one past
// uint32 that a truncating cast would turn into t's — and the strict redo
// refuses them by that id: a shipped run before it reaches the log, a
// logged one by failing Open, the log left as it was. Either way the
// engine keeps working.
func TestRedoRejectsHostileRecords(t *testing.T) {
	insertInto := func(id uint64) []byte { return binary.AppendUvarint([]byte{byte(walInsert)}, id) }
	record := func(r walRecord) []byte {
		var b bytes.Buffer
		appendRecord(&b, &r)
		return b.Bytes()
	}
	insert14 := func(id uint64) []byte {
		return record(walRecord{op: walInsert, tableID: id, img: imageOf([]Value{NewInt(14)})})
	}
	cases := []struct {
		name    string
		payload []byte
		byID    bool   // the group decodes, and the redo refuses it by id
		id      uint64 // that id
	}{
		// make([]Value, 1<<62): "makeslice: len out of range".
		{name: "row count 2^62", payload: binary.AppendUvarint(binary.AppendUvarint(insertInto(1), 0), 1<<62)},
		// off+int(n) wraps negative, passes the bound, slices out of range.
		{name: "string length 2^63", payload: append(binary.AppendUvarint([]byte{byte(walDDL), 1}, 1<<63), "t"...)},
		// int64(rid) < 0 indexes t.rows[-1] — after the group is durable.
		{name: "rid 2^63", payload: append(binary.AppendUvarint(binary.AppendUvarint(insertInto(1), 1<<63), 1), byte(Int), 7)},
		{name: "table id 0", payload: insert14(0), byID: true, id: 0},
		{name: "table id never assigned", payload: insert14(9), byID: true, id: 9},
		{name: "table id dropped", payload: insert14(2), byID: true, id: 2},
		{name: "table id past uint32", payload: insert14(1<<32 + 1), byID: true, id: 1<<32 + 1},
		{name: "DDL table id 0", payload: record(walRecord{op: walDDL, sql: "DROP TABLE t"}), byID: true, id: 0},
		{name: "DDL table id past uint32", payload: record(walRecord{op: walDDL, tableID: 1<<32 + 1, sql: "DROP TABLE t"}), byID: true, id: 1<<32 + 1},
	}
	insert7 := walRecord{op: walInsert, tableID: 1, rid: 0, img: imageOf([]Value{NewInt(7)})}
	refusedByID := func(err error, id uint64) bool {
		return err != nil && strings.Contains(err.Error(), fmt.Sprintf("id %d", id))
	}
	for _, tc := range cases {
		t.Run(tc.name+"/FollowerApply", func(t *testing.T) {
			vfs := NewMemVFS()
			follower := openVFS(t, vfs)
			mustExec(t, follower, `CREATE TABLE t (x INTEGER)`)    // lsn 1, table id 1
			mustExec(t, follower, `CREATE TABLE gone (y INTEGER)`) // lsn 2, table id 2
			mustExec(t, follower, `DROP TABLE gone`)               // lsn 3
			before, _ := vfs.ReadFile("test.wal")
			err := follower.ApplyCommitted(sealGroup(4, tc.payload))
			if err == nil || tc.byID && !refusedByID(err, tc.id) {
				t.Fatalf("hostile run: ApplyCommitted = %v", err)
			}
			if after, _ := vfs.ReadFile("test.wal"); !bytes.Equal(before, after) {
				t.Fatal("rejected run reached the follower's log")
			}
			// The same LSN still applies, and the node still restarts.
			if err := follower.ApplyCommitted(groupBytes(4, insert7)); err != nil {
				t.Fatalf("good run after the hostile one: %v", err)
			}
			follower.Close()
			reopened := openVFS(t, vfs)
			defer reopened.Close()
			if rows := mustQuery(t, reopened, `SELECT x FROM t`); rows.Len() != 1 || rows.Data[0][0].Int64() != 7 {
				t.Fatalf("after restart: %v", rows.Data)
			}
		})
		t.Run(tc.name+"/Open", func(t *testing.T) {
			var log bytes.Buffer
			log.Write(groupBytes(1, walRecord{op: walDDL, tableID: 1, sql: "CREATE TABLE t (x INTEGER)"}))
			log.Write(groupBytes(2, insert7))
			log.Write(groupBytes(3, walRecord{op: walDDL, tableID: 2, sql: "CREATE TABLE gone (y INTEGER)"}))
			log.Write(groupBytes(4, walRecord{op: walDDL, tableID: 2, sql: "DROP TABLE gone"}))
			clean := log.Len()
			log.Write(sealGroup(5, tc.payload))
			vfs := NewMemVFS()
			f, _ := vfs.Create("test.wal")
			f.Write(log.Bytes())
			if tc.byID {
				db, err := Open(Options{VFS: vfs, Path: "test.wal"})
				if db != nil {
					db.Close()
				}
				if !refusedByID(err, tc.id) {
					t.Fatalf("Open = %v, want a refusal naming table id %d", err, tc.id)
				}
				if onDisk, _ := vfs.ReadFile("test.wal"); !bytes.Equal(onDisk, log.Bytes()) {
					t.Fatal("the refused log was rewritten")
				}
				return
			}
			db := openVFS(t, vfs)
			if rows := mustQuery(t, db, `SELECT x FROM t`); rows.Len() != 1 || rows.Data[0][0].Int64() != 7 {
				t.Fatalf("groups ahead of the hostile one: %v", rows.Data)
			}
			if onDisk, _ := vfs.ReadFile("test.wal"); len(onDisk) != clean {
				t.Fatalf("log is %d bytes after open, want the %d clean ones", len(onDisk), clean)
			}
			mustExec(t, db, `INSERT INTO t VALUES (8)`)
			db.Close()
			reopened := openVFS(t, vfs)
			defer reopened.Close()
			if rows := mustQuery(t, reopened, `SELECT count(*) FROM t`); rows.Data[0][0].Int64() != 2 {
				t.Fatalf("after restart: %v", rows.Data)
			}
		})
	}
}

// tornSweepLog is the hand-built group-committed log TestGroupTornTailSweep
// cuts at every offset: the first group creates the table (it ends at
// ddlEnd), groups firstTxn..lastTxn each insert one row (x = 100+txn at rid
// txn-firstTxn), as one flush lays them down. The table's id is 2, the one
// FuzzLogReader's follower gives t (fuzzTables).
func tornSweepLog(firstTxn, lastTxn uint64) (data []byte, ddlEnd int, markerEnd map[uint64]int) {
	var log bytes.Buffer
	// The DDL group precedes all dependent inserts, exactly as group commit
	// preserves enqueue order (a transaction only sees the table after the
	// DDL committed and released its locks).
	log.Write(groupBytes(1, walRecord{op: walDDL, tableID: 2, sql: "CREATE TABLE t (x INTEGER)"}))
	ddlEnd = log.Len()
	markerEnd = map[uint64]int{}
	for i := firstTxn; i <= lastTxn; i++ {
		log.Write(groupBytes(i, walRecord{op: walInsert, tableID: 2, rid: int64(i - firstTxn), img: imageOf([]Value{NewInt(int64(100 + i))})}))
		markerEnd[i] = log.Len()
	}
	return log.Bytes(), ddlEnd, markerEnd
}

// flipSweepLog is the engine-written log TestGroupFlippedByteSweep damages
// one bit at a time: a keyed table, twelve inserts, one six-row update.
func flipSweepLog(t testing.TB) []byte {
	mem := NewMemVFS()
	db, err := Open(Options{VFS: mem, Path: "flip.wal"})
	if err != nil {
		t.Fatal(err)
	}
	mustExecB(t, db, `CREATE TABLE fb (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	for i := 1; i <= 12; i++ {
		if _, err := db.Exec(`INSERT INTO fb (id, v) VALUES (?, ?)`, i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	mustExecB(t, db, `UPDATE fb SET v = v + 1 WHERE id <= 6`)
	db.Close()
	data, err := mem.ReadFile("flip.wal")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wideDDL is the ten-column table deltaSeedLog writes to: an update's
// changed-column bitmap there takes two bytes.
const wideDDL = `CREATE TABLE w (c0 INTEGER PRIMARY KEY, c1 INTEGER, c2 TEXT, c3 FLOAT, c4 BOOLEAN,
	c5 TIMESTAMP, c6 TEXT, c7 INTEGER, c8 FLOAT, c9 INTEGER)`

// fuzzTables are the tables the seed logs write to, in the order that gives
// each the id its seed log names it by: fb is the first table flipSweepLog
// creates (id 1), tornSweepLog names t by id 2, and deltaSeedLog creates
// all three, so w is 3. FuzzLogReader's follower holds all three.
var fuzzTables = []string{"CREATE TABLE fb (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)", "CREATE TABLE t (x INTEGER)", wideDDL}

// deltaSeedLog is an engine-written log of updates of the ten-column table:
// one changing only its last column (a delta over more than eight
// columns), one changing no column at all, one changing three, then a
// delete.
func deltaSeedLog(t testing.TB) []byte {
	mem := NewMemVFS()
	db, err := Open(Options{VFS: mem, Path: "delta.wal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range append(fuzzTables[:len(fuzzTables):len(fuzzTables)],
		`INSERT INTO w VALUES (1, 10, 'a', 1.5, TRUE, NULL, 'b', 7, 2.5, 9)`,
		`INSERT INTO w VALUES (2, 20, 'c', 0.5, FALSE, NULL, NULL, 8, 3.5, 0)`,
		`UPDATE w SET c9 = 90 WHERE c0 = 1`,
		`UPDATE w SET c1 = c1 WHERE c0 = 2`,
		`UPDATE w SET c2 = 'z', c4 = NULL, c8 = 0.25 WHERE c0 = 2`,
		`DELETE FROM w WHERE c0 = 1`,
	) {
		mustExecB(t, db, sql)
	}
	db.Close()
	data, err := mem.ReadFile("delta.wal")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reseal returns data with every frame's CRC recomputed, as far as the
// length words frame whole frames: a mutated payload then reaches the
// decoder and the redo instead of dying at the checksum.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; len(out)-off >= 8; {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n > len(out)-off-8 {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4+n:], crc32.Checksum(out[off+4:off+4+n], walCRC))
		off += 8 + n
	}
	return out
}

// fuzzMaxRid bounds the row ids FuzzLogReader lets through to the redo.
// The heap is a dense slot array, so redoing an insert at rid r grows it
// to r+1 slots by design; that growth is the one cost of a record the
// reader's own bound does not cover.
const fuzzMaxRid = 1 << 12

// FuzzLogReader feeds arbitrary bytes — as given, and with their frames'
// CRCs resealed so mutated payloads get past the checksum — to the log
// reader and then to ApplyCommitted on an engine holding the three tables
// the seed logs write to, as one run and group by group. Neither may
// panic; a run that is not whole groups in rising LSN order is refused,
// the follower's log left byte-identical; the reader
// may not allocate more than a small multiple of its input; and what the
// reader accepts must be exactly what appendGroup writes: re-encoding the
// decoded groups reproduces the accepted prefix byte for byte, frames,
// markers and CRCs included. The walk that decodes no record (skip, which
// truncation, repair and shipping take) must step through the same
// groups and stop at the same offset, so that no cut moves.
func FuzzLogReader(f *testing.F) {
	torn, _, _ := tornSweepLog(2, 6)
	for _, log := range [][]byte{torn, flipSweepLog(f), deltaSeedLog(f)} {
		f.Add(log)
		for _, cut := range []int{1, len(log) / 3, len(log) / 2, len(log) - 5, len(log) - 1} {
			f.Add(log[:cut])
		}
		for _, pos := range []int{0, 5, len(log) / 3, len(log) / 2, len(log) - 2} {
			flipped := append([]byte(nil), log...)
			flipped[pos] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			fuzzReader(t, in)
			fuzzApply(t, in)
		}
	})
}

// fuzzReader checks the reader alone: bounded allocation, contiguous
// groups, and the re-encode identity over the accepted prefix.
func fuzzReader(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := committedLen(data) // the reader, as the engine runs it
	runtime.ReadMemStats(&after)
	// A value costs its cell and at most 4 bytes of image header for at
	// least one byte of input, and a record 96 bytes of walRecord for at
	// least three (a delete, or a DDL record with no text: op, table id and
	// one more byte); the reader counts a group's records before it sizes
	// their array, so it allocates no more of them than the group holds. An
	// update's cells are views of the input.
	// TotalAlloc is the whole process's, so the constant leaves room for
	// what the fuzz worker's other goroutines allocate meanwhile — a count
	// the decoder believed would overshoot it by orders of magnitude.
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+(64<<10)); alloc > limit {
		t.Fatalf("reading %d bytes allocated %d, limit %d", len(data), alloc, limit)
	}
	var re bytes.Buffer
	pos := 0
	groups := readGroups(data)
	for _, g := range groups {
		if g.start != pos {
			t.Fatalf("group at lsn %d starts at %d, the previous one ended at %d", g.lsn, g.start, pos)
		}
		pos = g.end
		re.Write(groupBytes(g.lsn, g.recs...))
		if re.Len() != g.end {
			t.Fatalf("group at lsn %d re-encodes to %d bytes, the reader took %d", g.lsn, re.Len()-g.start, g.end-g.start)
		}
	}
	if pos != end {
		t.Fatalf("committedLen = %d, groups end at %d", end, pos)
	}
	if !bytes.Equal(re.Bytes(), data[:end]) {
		t.Fatalf("accepted prefix of %d bytes does not re-encode to itself", end)
	}
	rd := logReader{data: data}
	for i := 0; rd.skip(); i++ {
		if i == len(groups) {
			t.Fatalf("skip stepped past the %d groups next reads, to lsn %d at %d", i, rd.lsn, rd.start)
		}
		if g := groups[i]; rd.lsn != g.lsn || rd.start != g.start || rd.end != g.end || len(rd.recs) != 0 {
			t.Fatalf("group %d: skip yields lsn %d at [%d, %d) with %d records, next lsn %d at [%d, %d)", i, rd.lsn, rd.start, rd.end, len(rd.recs), g.lsn, g.start, g.end)
		}
	}
	if rd.end != end {
		t.Fatalf("skip stops at %d, next at %d", rd.end, end)
	}
}

// fuzzApply ships the input to a follower as one run and then each group
// the reader accepts as a run of its own, then restarts the follower from
// whatever reached its log.
func fuzzApply(t *testing.T, data []byte) {
	// The follower starts from a three-table log whose markers carry LSN 0,
	// so every LSN the input can name is still ahead of it.
	var log bytes.Buffer
	for i, ddl := range fuzzTables {
		log.Write(groupBytes(0, walRecord{op: walDDL, tableID: uint64(i + 1), sql: ddl}))
	}
	vfs := NewMemVFS()
	f, _ := vfs.Create("test.wal")
	f.Write(log.Bytes())
	db, err := Open(Options{VFS: vfs, Path: "test.wal"})
	if err != nil {
		t.Fatal(err)
	}
	// ship applies a run; one the run rule refuses — a torn or garbage
	// tail, an LSN not above the one before it — must leave the follower's
	// log as it was.
	ship := func(run []byte, groups []logGroup) {
		broken := committedLen(run) != len(run)
		for i := 1; i < len(groups); i++ {
			broken = broken || groups[i].lsn <= groups[i-1].lsn
		}
		before, _ := vfs.ReadFile("test.wal")
		err := db.ApplyCommitted(run)
		if !broken {
			return
		}
		if err == nil {
			t.Fatal("a run breaking the run rule was applied")
		}
		if after, _ := vfs.ReadFile("test.wal"); !bytes.Equal(before, after) {
			t.Fatalf("a refused run changed the follower's log: %d bytes → %d", len(before), len(after))
		}
	}
	tooSparse := func(g logGroup) bool {
		return slices.ContainsFunc(g.recs, func(r walRecord) bool { return r.rid > fuzzMaxRid })
	}
	groups := readGroups(data)
	if !slices.ContainsFunc(groups, tooSparse) {
		ship(data, groups)
	}
	for _, g := range groups {
		if !tooSparse(g) {
			ship(data[g.start:g.end], []logGroup{g})
		}
	}
	for _, name := range db.TableNames() {
		_, _ = db.Query("SELECT * FROM " + name) // whatever got in must read back without a panic
	}
	db.Close()
	// A group that decoded but failed the strict redo is in the log, and
	// fails the restart the same way: an error, never a panic.
	if db, err := Open(Options{VFS: vfs, Path: "test.wal"}); err == nil {
		db.Close()
	}
}
