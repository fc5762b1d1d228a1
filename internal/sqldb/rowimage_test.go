package sqldb

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// values decodes the whole row.
func (r rowImage) values() []Value {
	vals := make([]Value, r.width())
	for i := range vals {
		vals[i] = r.col(i)
	}
	return vals
}

// delta lays out an update record's delta: the changed-column bitmap, then
// vals' cells.
func delta(bitmap []byte, vals ...Value) []byte {
	d := append([]byte(nil), bitmap...)
	for _, v := range vals {
		d = appendValue(d, v)
	}
	return d
}

// deltaValues splits an update record's delta into its bitmap and the
// changed values.
func deltaValues(r walRecord) (bitmap []byte, vals []Value) {
	n := (r.cols + 7) / 8
	bitmap = r.delta[:n]
	rd := byteReader{b: r.delta[n:]}
	for rd.off < len(rd.b) {
		v, ok := rd.value()
		if !ok {
			return bitmap, nil
		}
		vals = append(vals, v)
	}
	return bitmap, vals
}

// row is the oracle decoder of a counted row: the count, then each value as
// byteReader.value reads it — the decoder the log and the pages had before
// rows were images, beside which rowImage.col is a second one.
func (r *byteReader) row() ([]Value, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.b)-r.off) {
		return nil, false
	}
	row := make([]Value, n)
	for i := range row {
		if row[i], ok = r.value(); !ok {
			return nil, false
		}
	}
	return row, true
}

// imageCases are rows whose images are easy to get wrong: every type, the
// edge values of each cell encoding, no columns at all, and one long
// enough to need the wide header.
func imageCases() [][]Value {
	negZero := math.Copysign(0, -1)
	return [][]Value{
		{},
		{NullValue()},
		{NewInt(0), NewInt(-1), NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(1 << 40)},
		{NewFloat(negZero), NewFloat(0), NewFloat(math.NaN()), NewFloat(math.Inf(-1)), NewFloat(math.SmallestNonzeroFloat64)},
		{NewText(""), NewText("\x00"), NewText(strings.Repeat("x", 200)), NullValue(), NewBool(true), NewBool(false)},
		{NewTime(time.Date(2006, 10, 1, 12, 0, 0, 1000, time.UTC)), NewTime(time.Unix(-1, 0)), NullValue()},
		allTypesRow(7),
		{NewInt(1), NewText(strings.Repeat("wide", 1<<14+1)), NewFloat(2.5)},
	}
}

// countedRow is a row as the log and the page records write it: the
// column count, then each value's cell.
func countedRow(vals []Value) []byte {
	b := binary.AppendUvarint(nil, uint64(len(vals)))
	for _, v := range vals {
		b = appendValue(b, v)
	}
	return b
}

// FuzzRowImage holds the row image to the bytes it is made from: a counted
// row as the log and the page records hold it, decoded into an image.
// Every accepted input reads, column by column, exactly what the value
// decoder reads from the same bytes; its cells write back to those bytes,
// as encodeRecord and the log write them and as imageOf lays the values
// out; a skimming read accepts the same inputs; and what the decode
// allocates is bounded by the input.
func FuzzRowImage(f *testing.F) {
	for _, vals := range imageCases() {
		b := countedRow(vals)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(append(b, 0))
	}
	f.Add([]byte{0x80})                           // a torn count
	f.Add([]byte{2, byte(Text), 0x85, 0x00})      // a padded length
	f.Add([]byte{1, 9})                           // no such type
	f.Add([]byte{3, byte(Int), 0xff, byte(Null)}) // a torn uvarint cell
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := byteReader{b: data}
		img, ok := rd.image()
		runtime.ReadMemStats(&after)
		// An image takes its cells and at most 4 header bytes per column,
		// each column at least a byte of input. TotalAlloc is the whole
		// process's, so the constant leaves room for the fuzz worker's own.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+(64<<10)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), alloc, limit)
		}
		skim := byteReader{b: data, skim: true}
		if _, sok := skim.image(); sok != ok || ok && skim.off != rd.off {
			t.Fatalf("skimming: ok %v at %d; reading: ok %v at %d", sok, skim.off, ok, rd.off)
		}
		oracle := byteReader{b: data}
		vals, vok := oracle.row()
		if vok != ok || ok && oracle.off != rd.off {
			t.Fatalf("values decoder: ok %v at %d; image: ok %v at %d", vok, oracle.off, ok, rd.off)
		}
		if !ok {
			return
		}
		if img.width() != len(vals) {
			t.Fatalf("image of %d columns, the row has %d", img.width(), len(vals))
		}
		for i, v := range vals {
			if got := img.col(i); got != v || img.isNull(i) != v.IsNull() {
				t.Fatalf("column %d reads %#v (null %v), the values decoder %#v", i, got, img.isNull(i), v)
			}
			// A key part of a non-FLOAT column is its cell (keyPart): the
			// cell must be the value's equality key.
			if key := appendEqual(nil, v); v.Type() != Float && img.cell(i) != string(key) {
				t.Fatalf("column %d's cell %x, its value's equality key %x", i, img.cell(i), key)
			}
		}
		if got := append(binary.AppendUvarint(nil, uint64(img.width())), img.cells()...); !bytes.Equal(got, data[:rd.off]) {
			t.Fatalf("cells write back as %x, read from %x", got, data[:rd.off])
		}
		if again := imageOf(vals); again != img {
			t.Fatalf("imageOf lays the values out as %x, the decode as %x", again, img)
		}
		var fromImage, fromValues bytes.Buffer
		encodeRecord(&fromImage, 7, 3, false, img)
		writeUvarint(&fromValues, 7)
		fromValues.WriteByte(0)
		writeUvarint(&fromValues, 3)
		writeUvarint(&fromValues, uint64(len(vals)))
		for _, v := range vals {
			fromValues.Write(appendValue(nil, v))
		}
		if !bytes.Equal(fromImage.Bytes(), fromValues.Bytes()) {
			t.Fatalf("page record from the image %x, from the values %x", fromImage.Bytes(), fromValues.Bytes())
		}
	})
}

// TestRowImageLayout: each case round-trips through imageOf, the header is
// narrow until the image outgrows 16-bit offsets, and a splice that sets
// nothing, or sets every column to what it holds, is the image it started
// from.
func TestRowImageLayout(t *testing.T) {
	for ci, vals := range imageCases() {
		img := imageOf(vals)
		if img.width() != len(vals) {
			t.Fatalf("case %d: width %d, want %d", ci, img.width(), len(vals))
		}
		for i, v := range vals {
			if got := img.col(i); got != v {
				t.Errorf("case %d column %d: %#v, want %#v", ci, i, got, v)
			}
		}
		if wide := len(img) > math.MaxUint16; (img[0] == imgWide) != wide {
			t.Errorf("case %d: %d-byte image has offset width %d", ci, len(img), img[0])
		}
		bitmap := make([]byte, (len(vals)+7)/8)
		if got := splice(img, bitmap, nil); got != img {
			t.Errorf("case %d: an empty splice changed the image", ci)
		}
		for i := range bitmap {
			bitmap[i] = 0xff
		}
		if n := len(vals) % 8; n != 0 {
			bitmap[len(bitmap)-1] = 1<<n - 1
		}
		if got := splice(img, bitmap, []byte(img.cells())); got != img {
			t.Errorf("case %d: splicing every cell in again changed the image", ci)
		}
	}
}

// headImage is the image at the head of rid's chain in table name.
func headImage(t *testing.T, db *DB, name string, rid int64) rowImage {
	t.Helper()
	tbl, err := db.lookupTable(name)
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.slot(rid)
	if s.chainHead == nil {
		t.Fatalf("%s has no slot %d", name, rid)
	}
	return s.head.Load().data
}

// TestRowImageWideText: a TEXT cell over 64 KiB makes the image switch to
// 32-bit offsets in memory, and the row round-trips through an insert, an
// update of another column (a splice of the wide image) and a read. A
// paged engine refuses the same row at write-through exactly as it did
// when rows were values: the record is longer than a page holds, the store
// records the sticky failure, and the version keeps its image in memory.
func TestRowImageWideText(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", 1<<12+7) // 65,648 bytes
	check := func(t *testing.T, db *DB, n int64) {
		t.Helper()
		rows := mustQuery(t, db, `SELECT k, v, n FROM w`)
		if rows.Len() != 1 || rows.Data[0][1].Text() != long || rows.Data[0][2].Int64() != n {
			t.Fatalf("read back %d rows, n %v, a text of %d bytes", rows.Len(), rows.Data[0][2], len(rows.Data[0][1].Text()))
		}
	}
	t.Run("memory", func(t *testing.T) {
		db := New()
		defer db.Close()
		mustExec(t, db, `CREATE TABLE w (k INTEGER PRIMARY KEY, v TEXT NOT NULL, n INTEGER NOT NULL)`)
		mustExec(t, db, `INSERT INTO w VALUES (1, ?, 0)`, long)
		if img := headImage(t, db, "w", 0); img[0] != imgWide || img.col(1).Text() != long {
			t.Fatalf("a %d-byte image with offset width %d", len(img), img[0])
		}
		check(t, db, 0)
		mustExec(t, db, `UPDATE w SET n = n + 1 WHERE k = 1`)
		check(t, db, 1)
	})
	t.Run("paged", func(t *testing.T) {
		db := openPagedOpts(t, NewMemVFS(), 8, 8192)
		defer db.Close()
		mustExec(t, db, `CREATE TABLE w (k INTEGER PRIMARY KEY, v TEXT NOT NULL, n INTEGER NOT NULL)`)
		mustExec(t, db, `INSERT INTO w VALUES (1, ?, 0)`, long)
		if st := db.BufferPoolStats(); !strings.Contains(st.Failed, "exceeding the 8176-byte page record limit") {
			t.Fatalf("the store took a %d-byte row: failure %q", len(long), st.Failed)
		}
		if img := headImage(t, db, "w", 0); img[0] != imgWide {
			t.Fatalf("the refused version kept a %d-byte image with offset width %d", len(img), img[0])
		}
		check(t, db, 0)
	})
}

// TestRowImageSpecialValues: NULL, NaN and −0 are stored as the cells they
// are — a NaN's bits and −0's sign survive the image, the log and a
// restart — and an UPDATE from −0 to +0 logs the cell (its bytes changed)
// while the index on the column keeps one entry (the key has them equal).
func TestRowImageSpecialValues(t *testing.T) {
	vfs := NewMemVFS()
	db := openVFS(t, vfs)
	mustExec(t, db, `CREATE TABLE f (k INTEGER PRIMARY KEY, x FLOAT, s TEXT)`)
	mustExec(t, db, `CREATE INDEX f_x ON f (x)`)
	nan := math.Float64frombits(0x7ff8000000000bad)
	negZero := math.Copysign(0, -1)
	mustExec(t, db, `INSERT INTO f VALUES (1, ?, NULL)`, nan)
	mustExec(t, db, `INSERT INTO f VALUES (2, ?, '')`, negZero)
	mustExec(t, db, `INSERT INTO f VALUES (3, NULL, NULL)`)
	want := map[int64]uint64{1: math.Float64bits(nan), 2: math.Float64bits(negZero)}
	verify := func(db *DB, stage string) {
		t.Helper()
		rows := mustQuery(t, db, `SELECT k, x, s FROM f ORDER BY k`)
		for _, r := range rows.Data {
			k, x := r[0].Int64(), r[1]
			if bits, ok := want[k]; ok {
				if x.Type() != Float || math.Float64bits(x.Float64()) != bits {
					t.Errorf("%s: row %d reads x %#v, want bits %x", stage, k, x, bits)
				}
			} else if !x.IsNull() {
				t.Errorf("%s: row %d reads x %#v, want NULL", stage, k, x)
			}
			if (k == 2) == r[2].IsNull() {
				t.Errorf("%s: row %d reads s %#v", stage, k, r[2])
			}
		}
	}
	verify(db, "written")
	logLen := func() int {
		data, _ := vfs.ReadFile("test.wal")
		return len(data)
	}
	before := logLen()
	mustExec(t, db, `UPDATE f SET x = ? WHERE k = 2`, 0.0)
	want[2] = 0
	if logLen() == before {
		t.Fatal("the −0 → +0 update logged nothing")
	}
	tbl, _ := db.lookupTable("f")
	entries := 0
	var kb []byte
	tbl.findIndex("f_x").tree.scanRange("", "", &kb, func(string, int64) bool { entries++; return true })
	if entries != 3 {
		t.Errorf("the index on x holds %d entries after −0 → +0, want 3", entries)
	}
	verify(db, "updated")
	db.Close()
	db = openVFS(t, vfs)
	defer db.Close()
	verify(db, "reopened")
}

// TestRowImageLeftJoinPadded: a result of picks reads a LEFT JOIN's padded
// side — no image — as NULL, beside the matched side's columns.
func TestRowImageLeftJoinPadded(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE a (id INTEGER PRIMARY KEY, name TEXT)`)
	mustExec(t, db, `CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER, tag TEXT)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 'one'), (2, 'two')`)
	mustExec(t, db, `INSERT INTO b VALUES (10, 1, 'x')`)
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	rows, err := tx.QueryValues(context.Background(), `SELECT a.name, b.tag, b.id FROM a LEFT JOIN b ON b.a_id = a.id ORDER BY a.id`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.picks == nil {
		t.Fatal("the bare-column result is not read through picks")
	}
	var got [][]Value
	for rows.Next() {
		got = append(got, []Value{rows.Col(0), rows.Col(1), rows.Col(2)})
	}
	want := [][]Value{{NewText("one"), NewText("x"), NewInt(10)}, {NewText("two"), NullValue(), NullValue()}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestRowImageOutlivesVersion: a value read out of a result holds the
// image it was read from, not the version — so after its transaction ended
// (taking the result back), the row was updated, the old version was
// pruned off its chain and the heap collected, the values read inside the
// transaction still read the row as its statement saw it, on both engines.
func TestRowImageOutlivesVersion(t *testing.T) {
	for name, opts := range map[string]Options{
		"memory":  {},
		"paged-2": {VFS: NewMemVFS(), Path: "outlive.db", PoolPages: 2, PageSize: 1024},
	} {
		t.Run(name, func(t *testing.T) {
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			mustExec(t, db, `CREATE TABLE r (id INTEGER PRIMARY KEY, tag TEXT NOT NULL)`)
			for i := 1; i <= 30; i++ {
				mustExec(t, db, `INSERT INTO r VALUES (?, ?)`, i, fmt.Sprintf("old-%02d", i))
			}
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			rows, err := tx.QueryValues(context.Background(), `SELECT tag FROM r WHERE id <= ? ORDER BY id`, NewInt(10))
			if err != nil {
				t.Fatal(err)
			}
			var tags []Value
			for rows.Next() {
				tags = append(tags, rows.Col(0))
			}
			if len(tags) != 10 {
				t.Fatalf("read %d rows, want 10", len(tags))
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ { // each write prunes the version before it
				mustExec(t, db, `UPDATE r SET tag = ? WHERE id <= 10`, fmt.Sprintf("new-%d", round))
			}
			db.Vacuum()
			runtime.GC()
			for i, v := range tags {
				if got, want := v.Text(), fmt.Sprintf("old-%02d", i+1); got != want {
					t.Fatalf("row %d reads %q, want %q", i+1, got, want)
				}
			}
		})
	}
}
