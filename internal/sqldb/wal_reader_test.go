package sqldb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
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

// sealRecord frames a raw payload as the log does — length word, payload,
// CRC32C — without going through appendRecord, so a test can seal bytes
// the encoder would never produce.
func sealRecord(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, walCRC))
}

// sealGroup seals payload and a commit marker for (txn 1, lsn) behind it:
// one whole group.
func sealGroup(lsn uint64, payload []byte) []byte {
	marker := binary.AppendUvarint([]byte{byte(walCommit), 1}, lsn)
	return append(sealRecord(payload), sealRecord(marker)...)
}

// TestRedoRejectsHostileRecords sends three CRC-valid records no encoder
// writes — each of which used to panic the decoder or the redo — through
// both doors a log group comes in by. A shipped batch (core's handleShip
// hands a request's bytes straight to FollowerApply) must be refused before
// it reaches the follower's own log; a log that already holds one must open,
// the record treated like any other undecodable tail: cut, never applied.
// Either way the engine keeps working.
func TestRedoRejectsHostileRecords(t *testing.T) {
	insertInto := func(table string) []byte {
		p := []byte{byte(walInsert), 1}
		p = binary.AppendUvarint(p, uint64(len(table)))
		return append(p, table...)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		// make([]Value, 1<<62): "makeslice: len out of range".
		{"row count 2^62", binary.AppendUvarint(binary.AppendUvarint(insertInto("t"), 0), 1<<62)},
		// off+int(n) wraps negative, passes the bound, slices out of range.
		{"string length 2^63", append(binary.AppendUvarint([]byte{byte(walInsert), 1}, 1<<63), "t"...)},
		// int64(rid) < 0 indexes t.rows[-1] — after the group is durable.
		{"rid 2^63", append(binary.AppendUvarint(binary.AppendUvarint(insertInto("t"), 1<<63), 1), byte(Int), 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/FollowerApply", func(t *testing.T) {
			vfs := NewMemVFS()
			follower := openVFS(t, vfs)
			mustExec(t, follower, `CREATE TABLE t (x INTEGER)`) // lsn 1
			before, _ := vfs.ReadFile("test.wal")
			if err := follower.FollowerApply(2, sealGroup(2, tc.payload)); err == nil {
				t.Fatal("hostile batch accepted")
			}
			if after, _ := vfs.ReadFile("test.wal"); !bytes.Equal(before, after) {
				t.Fatal("rejected batch reached the follower's log")
			}
			// The same LSN still applies, and the node still restarts.
			var good bytes.Buffer
			appendRecord(&good, &walRecord{op: walInsert, txn: 1, table: "t", rid: 0, row: []Value{NewInt(7)}})
			appendRecord(&good, &walRecord{op: walCommit, txn: 1, lsn: 2})
			if err := follower.FollowerApply(2, good.Bytes()); err != nil {
				t.Fatalf("good batch after the hostile one: %v", err)
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
			appendRecord(&log, &walRecord{op: walDDL, txn: 1, sql: "CREATE TABLE t (x INTEGER)"})
			appendRecord(&log, &walRecord{op: walCommit, txn: 1, lsn: 1})
			appendRecord(&log, &walRecord{op: walInsert, txn: 1, table: "t", rid: 0, row: []Value{NewInt(7)}})
			appendRecord(&log, &walRecord{op: walCommit, txn: 1, lsn: 2})
			clean := log.Len()
			log.Write(sealGroup(3, tc.payload))
			vfs := NewMemVFS()
			f, _ := vfs.Create("test.wal")
			f.Write(log.Bytes())
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
// cuts at every offset: txn 1 creates the table (its marker ends at ddlEnd),
// txns firstTxn..lastTxn each insert one row (x = 100+txn at rid
// txn-firstTxn) behind their own marker, as one flush lays them down.
func tornSweepLog(firstTxn, lastTxn uint64) (data []byte, ddlEnd int, markerEnd map[uint64]int) {
	var log bytes.Buffer
	// txn 1's marker precedes all dependent inserts, exactly as group
	// commit preserves enqueue order (a transaction only sees the table
	// after the DDL committed and released its locks).
	appendRecord(&log, &walRecord{op: walDDL, txn: 1, sql: "CREATE TABLE t (x INTEGER)"})
	appendRecord(&log, &walRecord{op: walCommit, txn: 1, lsn: 1})
	ddlEnd = log.Len()
	markerEnd = map[uint64]int{}
	for i := firstTxn; i <= lastTxn; i++ {
		appendRecord(&log, &walRecord{op: walInsert, txn: i, table: "t", rid: int64(i - firstTxn), row: []Value{NewInt(int64(100 + i))}})
		appendRecord(&log, &walRecord{op: walCommit, txn: i, lsn: i})
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

// reseal returns data with every record's CRC recomputed, as far as the
// length words frame whole records: a mutated payload then reaches the
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

// FuzzLogReader feeds arbitrary bytes — as given, and with their CRCs
// resealed so mutated payloads get past the checksum — to the log reader
// and then, group by group, to FollowerApply on an engine holding the two
// tables the seed logs write to. Neither may panic; the reader may not
// allocate more than a small multiple of its input; and what the reader
// accepts must be exactly what appendRecord writes: re-encoding the
// decoded groups reproduces the accepted prefix byte for byte.
func FuzzLogReader(f *testing.F) {
	torn, _, _ := tornSweepLog(2, 6)
	flip := flipSweepLog(f)
	for _, log := range [][]byte{torn, flip} {
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
			fuzzFollowerApply(t, in)
		}
	})
}

// fuzzReader checks the reader alone: bounded allocation, contiguous
// groups, and the re-encode identity over the accepted prefix.
func fuzzReader(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	groups := readGroups(data)
	runtime.ReadMemStats(&after)
	// A value costs 32 bytes of row for at least one byte of input and a
	// record 88 bytes of walRecord for at least ten; readGroups' own copy
	// doubles the latter. TotalAlloc is the whole process's, so the constant
	// leaves room for what the fuzz worker's other goroutines allocate
	// meanwhile — a count the decoder believed would overshoot it by orders
	// of magnitude.
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+(64<<10)); alloc > limit {
		t.Fatalf("reading %d bytes allocated %d, limit %d", len(data), alloc, limit)
	}
	var re bytes.Buffer
	end := 0
	for _, g := range groups {
		if g.start != end {
			t.Fatalf("group at lsn %d starts at %d, the previous one ended at %d", g.lsn, g.start, end)
		}
		end = g.end
		for i := range g.recs {
			appendRecord(&re, &g.recs[i])
		}
		// The marker's own txn is not among what the reader yields; read it
		// back from the group's last record.
		markerAt := re.Len()
		var marker walRecord
		if markerAt+8 > g.end || !decodeRecord(data[markerAt+4:g.end-4], &marker) || marker.op != walCommit || marker.lsn != g.lsn {
			t.Fatalf("group at lsn %d: its records re-encode to %d bytes, which is not where its marker starts", g.lsn, markerAt-g.start)
		}
		appendRecord(&re, &marker)
		if re.Len() != g.end {
			t.Fatalf("group at lsn %d re-encodes to %d bytes, the reader took %d", g.lsn, re.Len()-g.start, g.end-g.start)
		}
	}
	if !bytes.Equal(re.Bytes(), data[:end]) {
		t.Fatalf("accepted prefix of %d bytes does not re-encode to itself", end)
	}
	if got := committedLen(data); got != end {
		t.Fatalf("committedLen = %d, groups end at %d", got, end)
	}
}

// fuzzFollowerApply ships the input to a follower whole and group by
// group, then restarts the follower from whatever reached its log.
func fuzzFollowerApply(t *testing.T, data []byte) {
	// The follower starts from a two-table log whose markers carry LSN 0,
	// so every LSN the input can name is still ahead of it.
	var log bytes.Buffer
	for _, ddl := range []string{"CREATE TABLE t (x INTEGER)", "CREATE TABLE fb (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)"} {
		appendRecord(&log, &walRecord{op: walDDL, txn: 1, sql: ddl})
		appendRecord(&log, &walRecord{op: walCommit, txn: 1})
	}
	vfs := NewMemVFS()
	f, _ := vfs.Create("test.wal")
	f.Write(log.Bytes())
	db, err := Open(Options{VFS: vfs, Path: "test.wal"})
	if err != nil {
		t.Fatal(err)
	}
	_ = db.FollowerApply(1, data) // almost always refused; must not panic
	for _, g := range readGroups(data) {
		tooSparse := false
		for _, r := range g.recs {
			tooSparse = tooSparse || r.rid > fuzzMaxRid
		}
		if !tooSparse {
			_ = db.FollowerApply(g.lsn, data[g.start:g.end])
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
