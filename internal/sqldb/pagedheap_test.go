package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"condorj2/internal/sqldb/pager"
)

// checkSlottedPage holds a page image to its model — slot → record bytes,
// dead slots absent — and to the layout's own rules: the image passes
// pageValid, live extents are disjoint and lie above both the directory
// and freeHigh.
func checkSlottedPage(t *testing.T, img []byte, model map[int][]byte) {
	t.Helper()
	if !pageValid(img) {
		t.Fatalf("page no longer passes pageValid (slots %d, freeHigh %d)", pageSlots(img), pageFreeHigh(img))
	}
	slots := pageSlots(img)
	dirEnd := pageHdrSize + slots*slotDirEntry
	type extent struct{ slot, off, n int }
	var live []extent
	for i := 0; i < slots; i++ {
		off, n := pageSlotEntry(img, i)
		want, ok := model[i]
		switch {
		case !ok && n != 0:
			t.Fatalf("slot %d is dead in the model, the page has %d bytes there", i, n)
		case ok && !bytes.Equal(img[off:off+n], want):
			t.Fatalf("slot %d holds %q, the model %q", i, img[off:off+n], want)
		}
		if n > 0 {
			live = append(live, extent{i, off, n})
		}
	}
	for slot := range model {
		if slot >= slots {
			t.Fatalf("the model has slot %d, the page %d slots", slot, slots)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].off < live[b].off })
	floor := max(dirEnd, pageFreeHigh(img))
	for _, e := range live {
		if e.off < floor {
			t.Fatalf("slot %d's record at %d overlaps what lies below %d (directory end %d, freeHigh %d)", e.slot, e.off, floor, dirEnd, pageFreeHigh(img))
		}
		floor = e.off + e.n
	}
}

func TestSlottedPageBasics(t *testing.T) {
	const size = 256
	img, scratch := make([]byte, size), make([]byte, size)
	pageInit(img, 9)
	model := map[int][]byte{}
	insert := func(rec string) int {
		t.Helper()
		slot, ok := pageInsert(img, []byte(rec), scratch)
		if !ok {
			t.Fatalf("insert of %d bytes refused", len(rec))
		}
		model[slot] = []byte(rec)
		checkSlottedPage(t, img, model)
		return slot
	}
	for i, rec := range []string{"alpha", "bravo-bravo", "charlie"} {
		if slot := insert(rec); slot != i {
			t.Fatalf("record %d landed in slot %d", i, slot)
		}
	}
	if pageTableID(img) != 9 || pageFreeHigh(img) != size-len("alphabravo-bravocharlie") {
		t.Fatalf("header: table %d, freeHigh %d", pageTableID(img), pageFreeHigh(img))
	}
	// An erased slot is the next one handed out; its bytes come back only
	// with compaction, which moves records and no slot.
	pageErase(img, 1)
	delete(model, 1)
	checkSlottedPage(t, img, model)
	pageErase(img, 40) // no such slot: nothing happens
	checkSlottedPage(t, img, model)
	if slot := insert("delta"); slot != 1 {
		t.Fatalf("dead slot 1 not reused: got %d", slot)
	}
	pageCompact(img, scratch)
	checkSlottedPage(t, img, model)
	if want := size - len("alphadeltacharlie"); pageFreeHigh(img) != want {
		t.Fatalf("freeHigh after compaction = %d, want %d", pageFreeHigh(img), want)
	}
	// Fill up, then free space in the middle: a record that fits only in a
	// compacted page gets one, a record that fits in no page leaves this
	// one as it was.
	for {
		if _, ok := pageInsert(img, []byte("0123456789abcdef"), scratch); !ok {
			break
		}
		model[len(model)] = []byte("0123456789abcdef")
	}
	checkSlottedPage(t, img, model)
	pageErase(img, 3)
	delete(model, 3)
	pageErase(img, 5)
	delete(model, 5)
	before := append([]byte(nil), img...)
	if _, ok := pageInsert(img, bytes.Repeat([]byte("x"), 60), scratch); ok {
		t.Fatal("a 60-byte record fitted a page with 32 bytes dead")
	}
	if !bytes.Equal(img, before) {
		t.Fatal("a refused insert changed the page (it compacted for nothing)")
	}
	if slot := insert(strings.Repeat("y", 30)); slot != 3 {
		t.Fatalf("30-byte record after compaction landed in slot %d", slot)
	}
}

// TestSlottedPageAgainstModel drives seeded random insert / erase /
// compact histories and checks every step against a map: slot indexes
// stable across compaction, freeHigh exact, and a page that refuses a
// record really has no room for it — nor compacts looking for some.
func TestSlottedPageAgainstModel(t *testing.T) {
	for _, size := range []int{pager.MinPageSize, 1024, pager.DefaultPageSize} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			img, scratch := make([]byte, size), make([]byte, size)
			pageInit(img, 7)
			model := map[int][]byte{}
			liveBytes := func() (n int) {
				for _, rec := range model {
					n += len(rec)
				}
				return n
			}
			for step := 0; step < 1500; step++ {
				slots := pageSlots(img)
				switch op := rng.Intn(10); {
				case op < 5:
					rec := make([]byte, 1+rng.Intn(size/8))
					if rng.Intn(20) == 0 {
						rec = make([]byte, size/2+rng.Intn(size/2))
					}
					rng.Read(rec)
					wantSlot := slots
					for i := 0; i < slots; i++ {
						if _, live := model[i]; !live {
							wantSlot = i
							break
						}
					}
					dir := pageHdrSize + slots*slotDirEntry
					if wantSlot == slots {
						dir += slotDirEntry
					}
					fits := dir+liveBytes()+len(rec) <= size
					before := append([]byte(nil), img...)
					slot, ok := pageInsert(img, rec, scratch)
					if ok != fits {
						t.Fatalf("size %d seed %d step %d: insert of %d bytes ok=%v, the model says fits=%v (directory %d, live %d)",
							size, seed, step, len(rec), ok, fits, dir, liveBytes())
					}
					if !ok {
						if !bytes.Equal(img, before) {
							t.Fatalf("size %d seed %d step %d: a refused insert changed the page", size, seed, step)
						}
						break
					}
					if slot != wantSlot {
						t.Fatalf("size %d seed %d step %d: landed in slot %d, lowest free is %d", size, seed, step, slot, wantSlot)
					}
					model[slot] = rec
					if off, _ := pageSlotEntry(img, slot); off != pageFreeHigh(img) {
						t.Fatalf("size %d seed %d step %d: freeHigh %d, newest record at %d", size, seed, step, pageFreeHigh(img), off)
					}
				case op < 9:
					i := rng.Intn(slots + 2)
					pageErase(img, i)
					delete(model, i)
				default:
					pageCompact(img, scratch)
					if want := size - liveBytes(); pageFreeHigh(img) != want {
						t.Fatalf("size %d seed %d step %d: freeHigh %d after compaction, want %d", size, seed, step, pageFreeHigh(img), want)
					}
				}
				if pageSlots(img) < slots {
					t.Fatalf("size %d seed %d step %d: slot count fell %d → %d", size, seed, step, slots, pageSlots(img))
				}
				checkSlottedPage(t, img, model)
			}
		}
	}
}

// sealPage stamps the pager's checksum on a page image, as WriteBatch does.
func sealPage(img []byte) {
	binary.LittleEndian.PutUint32(img[:pager.CheckHeader], crc32.Checksum(img[pager.CheckHeader:], crc32.MakeTable(crc32.Castagnoli)))
}

type hostilePage struct {
	name string
	img  []byte
}

// hostilePages derives from one good page image the images a checksum
// cannot tell from a page: each is sealed, none is well-formed. Run
// against the parent of the change that added pageValid: the first
// panics Open ("slice bounds out of range [:12000] with capacity 8192");
// the slot counts have record bytes read as directory entries until one
// fails to decode (or, failing that, the page end is passed); the two
// freeHigh images open without complaint, and the next insert into the
// first of them is cut short by the page end; the last two are refused
// only because the bytes they point at happen not to decode.
func hostilePages(good []byte) []hostilePage {
	size := len(good)
	slots, free := pageSlots(good), pageFreeHigh(good)
	mutate := func(f func(img []byte)) []byte {
		img := append([]byte(nil), good...)
		f(img)
		sealPage(img)
		return img
	}
	put16 := func(img []byte, at, v int) { binary.LittleEndian.PutUint16(img[at:], uint16(v)) }
	return []hostilePage{
		{"record extent past the page end", mutate(func(img []byte) { pageSetSlot(img, 0, size-192, 4000) })},
		{"slot count past what a page can hold", mutate(func(img []byte) { put16(img, pageHdrSlots, (size-pageHdrSize)/slotDirEntry+1) })},
		{"slot count 65535", mutate(func(img []byte) { put16(img, pageHdrSlots, 0xFFFF) })},
		{"directory running over the records", mutate(func(img []byte) { put16(img, pageHdrSlots, (free-pageHdrSize)/slotDirEntry+1) })},
		{"freeHigh beyond the page", mutate(func(img []byte) { put16(img, pageHdrFree, size+1) })},
		{"freeHigh inside the directory", mutate(func(img []byte) { put16(img, pageHdrFree, pageHdrSize+slots*slotDirEntry-1) })},
		{"record extent inside the directory", mutate(func(img []byte) { pageSetSlot(img, 0, pageHdrSize, 8) })},
		{"more live bytes than the record region", mutate(func(img []byte) {
			for i := 0; i < 2 && i < slots; i++ {
				pageSetSlot(img, i, free, size-free)
			}
		})},
	}
}

// pagedStoreWithOnePage builds a checkpointed paged store whose table t
// (20 rows) sits on page 1, crashes it, and returns the VFS and the good
// image of that page.
func pagedStoreWithOnePage(t *testing.T) (*MemVFS, []byte) {
	t.Helper()
	vfs := NewMemVFS()
	db := openPagedOpts(t, vfs, 8, pager.DefaultPageSize)
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprintf("value-%02d", i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	good := make([]byte, pager.DefaultPageSize)
	readPage1(t, vfs, good)
	if pageTableID(good) == 0 || pageSlots(good) != 20 || !pageValid(good) {
		t.Fatalf("page 1 is not the table's page: table id %d, %d slots", pageTableID(good), pageSlots(good))
	}
	return vfs, good
}

func readPage1(t *testing.T, vfs *MemVFS, buf []byte) {
	t.Helper()
	f, err := vfs.OpenRandom("test.db.pages")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
}

func writePage1(t *testing.T, vfs *MemVFS, img []byte) {
	t.Helper()
	f, err := vfs.OpenRandom("test.db.pages")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
}

// TestPagedCorruptPageImages: a page whose checksum holds but whose header
// or directory points outside it is refused where it enters. Recovery
// names the page and fails — twice over, and opens again once the page is
// repaired; a running engine that faults such a page in reads no record
// from it, writes none to it, erases none in it, and latches the store's
// sticky failure. Nothing panics and nothing is indexed by the image.
func TestPagedCorruptPageImages(t *testing.T) {
	_, first := pagedStoreWithOnePage(t)
	for i, h := range hostilePages(first) {
		t.Run(h.name, func(t *testing.T) {
			// A store of its own: the last probe below leaves a row behind.
			vfs, good := pagedStoreWithOnePage(t)
			h := hostilePages(good)[i]
			open := func() (*DB, error) {
				return Open(Options{VFS: vfs, Path: "test.db", PoolPages: 8, PageSize: pager.DefaultPageSize})
			}
			if pageValid(h.img) {
				t.Fatal("pageValid accepts the image")
			}
			writePage1(t, vfs, h.img)
			for attempt := 0; attempt < 2; attempt++ {
				db, err := open()
				if err == nil {
					db.Close()
					t.Fatalf("attempt %d: Open accepted the store", attempt)
				}
				if !strings.Contains(err.Error(), "corrupt page 1") {
					t.Fatalf("attempt %d: Open: %v", attempt, err)
				}
			}
			writePage1(t, vfs, good)

			// The same image arriving under a running engine, through the
			// pool: nothing of page 1 is resident after a clean recovery.
			for _, via := range []struct {
				name, want string
				touch      func(t *testing.T, db *DB)
			}{
				{"readRow", "no record at page 1", func(t *testing.T, db *DB) {
					rows := mustQuery(t, db, `SELECT v FROM t WHERE k = 3`)
					if rows.Len() != 0 {
						t.Errorf("read %v out of a corrupt page", rows.Data)
					}
				}},
				{"erase", "corrupt page 1", func(t *testing.T, db *DB) {
					db.table("t").heap.erase(makeLoc(1, 0))
				}},
				{"writeRow", "corrupt page 1", func(t *testing.T, db *DB) {
					mustExec(t, db, `INSERT INTO t VALUES (100, 'lands on a fresh page')`)
					rows := mustQuery(t, db, `SELECT v FROM t WHERE k = 100`)
					if rows.Len() != 1 || rows.Data[0][0].Text() != "lands on a fresh page" {
						t.Errorf("the insert past the corrupt page reads back %v", rows.Data)
					}
				}},
			} {
				db, err := open()
				if err != nil {
					t.Fatalf("%s: Open on the repaired store: %v", via.name, err)
				}
				if got := mustQuery(t, db, `SELECT count(*) FROM t`).Data[0][0].Int64(); got != 20 {
					t.Fatalf("%s: repaired store holds %d rows", via.name, got)
				}
				if st := db.BufferPoolStats(); st.Failed != "" {
					t.Fatalf("%s: repaired store already failed: %s", via.name, st.Failed)
				}
				db.store.pool.Forget([]pager.PageID{1}) // the count above loaded it
				writePage1(t, vfs, h.img)
				via.touch(t, db)
				if st := db.BufferPoolStats(); !strings.Contains(st.Failed, via.want) {
					t.Errorf("%s: sticky failure %q, want one naming %q", via.name, st.Failed, via.want)
				}
				// Crash rather than Close: the failed store refuses its
				// final checkpoint. Put the good page back for the next.
				writePage1(t, vfs, good)
			}
		})
	}
}

// FuzzPageImage feeds arbitrary bytes to everything that reads a page or
// a meta image from disk — pageValid, recovery's scanPage, decodeMeta —
// as they are and resealed so the meta's checksum is not what stops them.
// None may panic or allocate beyond a multiple of the input, scanPage may
// accept nothing pageValid refuses, and an image pageValid accepts stays
// valid, in bounds, through insert, erase and compaction.
func FuzzPageImage(f *testing.F) {
	img := make([]byte, pager.MinPageSize)
	pageInit(img, 3)
	var rec bytes.Buffer
	for rid := int64(0); rid < 6; rid++ {
		rec.Reset()
		encodeRecord(&rec, uint64(10+rid), rid, rid == 4, imageOf([]Value{NewInt(rid), NewText("fuzz"), NullValue(), NewFloat(0.5)}))
		pageInsert(img, rec.Bytes(), make([]byte, len(img)))
	}
	pageErase(img, 2)
	f.Add(img)
	for _, h := range hostilePages(img) {
		f.Add(h.img)
	}
	meta := &pagedMeta{gen: 3, ckptLSN: 41, nextTableID: 2, pageSize: 512, tables: []metaTable{
		{tableID: 1, autoHigh: 1 << 40, ddl: "CREATE TABLE t (k INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)", indexes: []string{"CREATE INDEX byv ON t (v)"}},
		{tableID: 2, ddl: "CREATE TABLE u (x INTEGER)", indexes: []string{}},
	}}
	metaImg := encodeMeta(meta)
	if got, ok := decodeMeta(metaImg); !ok || !reflect.DeepEqual(got, meta) {
		f.Fatalf("the meta round trip gives %+v, want %+v", got, meta)
	}
	f.Add(metaImg)
	// The older layouts are sealed but foreign: refused, not misread.
	for _, old := range [][]byte{oldLayoutMeta(meta), unmarkedLayoutMeta(meta), seqLayoutMeta(meta)} {
		if _, ok := decodeMeta(old); ok || !metaSealed(old) {
			f.Fatalf("the older meta layout %q is not a sealed, refused image", old[:4])
		}
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		records := 0
		scanErr := scanPage(data, func(slot int, rec pageRecord) { records++ })
		valid := pageValid(data)
		decodeMeta(data)
		decodeMeta(resealMeta(data))
		runtime.ReadMemStats(&after)
		// A decoded value costs 32 bytes for at least one of input, a meta
		// table entry 56 for at least four; live records cannot add up to
		// more than the page. The constant is room for the fuzz worker's
		// own goroutines (see fuzzReader).
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+(64<<10)); alloc > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(data), alloc, limit)
		}
		if scanErr == nil && !valid {
			t.Fatalf("scanPage accepted (%d records) an image pageValid refuses", records)
		}
		if !valid {
			return
		}
		img, scratch := append([]byte(nil), data...), make([]byte, len(data))
		slots := pageSlots(img)
		if _, ok := pageInsert(img, []byte("one more record"), scratch); ok && !pageValid(img) {
			t.Fatal("insert into a valid page left an invalid one")
		}
		for i := 0; i < slots; i += 2 {
			pageErase(img, i)
		}
		pageCompact(img, scratch)
		if !pageValid(img) {
			t.Fatal("erase + compaction of a valid page left an invalid one")
		}
		if pageSlots(img) < slots {
			t.Fatalf("slot count fell %d → %d", slots, pageSlots(img))
		}
	})
}

// resealMeta gives data the meta magic and a matching trailing checksum.
func resealMeta(data []byte) []byte {
	if len(data) < len(metaMagic)+4 {
		return data
	}
	out := append([]byte(nil), data...)
	copy(out, metaMagic)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], metaCRC))
	return out
}

// heapOf returns table name's paged heap.
func heapOf(t *testing.T, db *DB, name string) *pagedHeap {
	t.Helper()
	tbl := db.table(name)
	if tbl == nil || tbl.heap == nil {
		t.Fatalf("no paged table %q", name)
	}
	return tbl.heap
}

// frameRows pins page pid, and returns its frame and what rides it.
func frameRows(t *testing.T, db *DB, pid pager.PageID) (*pager.Frame, *pageRows) {
	t.Helper()
	f, err := db.store.pool.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	f.RLock()
	pr, _ := f.Attachment().(*pageRows)
	f.RUnlock()
	db.store.pool.Unpin(f, false)
	return f, pr
}

// allTypesRow is one row with every value type and the edge values of
// each encoding.
func allTypesRow(i int64) []Value {
	return []Value{NewInt(i), NewText(fmt.Sprintf("text-%d", i)), NewFloat(-0.25 * float64(i)), NewBool(i%2 == 0),
		NewTime(time.Date(2007, 1, 7, 9, 0, int(i), 0, time.UTC)), NullValue(), NewInt(-i), NewText("")}
}

// equalRows reports whether image a holds exactly the values b.
func equalRows(a rowImage, b []Value) bool {
	if a.width() != len(b) {
		return false
	}
	for i := range b {
		if a.col(i) != b[i] {
			return false
		}
	}
	return true
}

// sameImage reports whether a and b are one image — the same bytes in
// memory, not two copies of them.
func sameImage(a, b rowImage) bool {
	return len(a) == len(b) && unsafe.StringData(string(a)) == unsafe.StringData(string(b))
}

// TestPagedSlotReuseServesNewRow: the row riding a frame for a slot goes
// when the slot's record is erased, and the next record to land in the
// slot brings its own — a read through the reused location never sees the
// row that was there before.
func TestPagedSlotReuseServesNewRow(t *testing.T) {
	db := openPagedOpts(t, NewMemVFS(), 8, 1024)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (a INTEGER, b TEXT, c FLOAT, d BOOLEAN, e TIMESTAMP, f INTEGER, g INTEGER, h TEXT)`)
	h := heapOf(t, db, "t")
	var locs []pageLoc
	for i := int64(0); i < 3; i++ {
		loc, err := h.writeRow(i, imageOf(allTypesRow(i)), false, 1)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	old := h.readRow(locs[1])
	if !equalRows(old, allTypesRow(1)) {
		t.Fatalf("read back %v", old)
	}
	if again := h.readRow(locs[1]); !sameImage(again, old) {
		t.Fatal("a second read of a resident row copied it again")
	}
	h.erase(locs[1])
	if _, pr := frameRows(t, db, locs[1].pid()); pr.get(locs[1].slot()) != noRow {
		t.Fatal("the erased slot's row still rides the frame")
	}
	// A tombstone takes the slot next: it must not be served as a row, nor
	// leave the old one behind.
	loc, err := h.writeRow(7, noRow, true, 1)
	if err != nil || loc != locs[1] {
		t.Fatalf("tombstone landed at %+v (err %v), want the freed %+v", loc, err, locs[1])
	}
	if _, pr := frameRows(t, db, loc.pid()); pr.get(loc.slot()) != noRow {
		t.Fatal("a tombstone's slot carries a row")
	}
	h.erase(loc)
	loc, err = h.writeRow(8, imageOf(allTypesRow(8)), false, 1)
	if err != nil || loc != locs[1] {
		t.Fatalf("new row landed at %+v (err %v), want the freed %+v", loc, err, locs[1])
	}
	if got := h.readRow(loc); !equalRows(got, allTypesRow(8)) {
		t.Fatalf("the reused slot serves %v, want row 8", got)
	}
	// The neighbours were not disturbed, before or after a compaction.
	for _, i := range []int64{0, 2} {
		if got := h.readRow(locs[i]); !equalRows(got, allTypesRow(i)) {
			t.Fatalf("row %d reads %v", i, got)
		}
	}
	if st := db.BufferPoolStats(); st.Failed != "" {
		t.Fatal(st.Failed)
	}
}

// TestPagedEvictReloadDecodesEqualRow: what rides a frame leaves with the
// page. After eviction and reload the row is copied out of the page bytes
// again — a different image, equal in every value type to the one that
// was written through and served from the frame before.
func TestPagedEvictReloadDecodesEqualRow(t *testing.T) {
	db := openPagedOpts(t, NewMemVFS(), 2, 512)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (a INTEGER, b TEXT, c FLOAT, d BOOLEAN, e TIMESTAMP, f INTEGER, g INTEGER, h TEXT)`)
	h := heapOf(t, db, "t")
	const rows = 60 // a dozen pages on a 2-frame pool
	locs := make([]pageLoc, rows)
	written := make([]rowImage, rows)
	for i := range locs {
		written[i] = imageOf(allTypesRow(int64(i)))
		loc, err := h.writeRow(int64(i), written[i], false, 1)
		if err != nil {
			t.Fatal(err)
		}
		locs[i] = loc
	}
	last := rows - 1
	if got := h.readRow(locs[last]); !sameImage(got, written[last]) {
		t.Fatal("the row just written through is not the one riding its frame")
	}
	before := db.BufferPoolStats()
	for pass := 0; pass < 2; pass++ {
		for i, loc := range locs {
			got := h.readRow(loc)
			if got != written[i] {
				t.Fatalf("pass %d row %d: read %v, wrote %v", pass, i, got.values(), written[i].values())
			}
			if i < rows/2 && sameImage(got, written[i]) {
				t.Fatalf("pass %d row %d: served the written image after its page was evicted", pass, i)
			}
			if again := h.readRow(loc); !sameImage(again, got) {
				t.Fatalf("pass %d row %d: a resident row was copied twice", pass, i)
			}
		}
	}
	after := db.BufferPoolStats()
	if after.Evictions == before.Evictions || after.Failed != "" {
		t.Fatalf("no eviction happened or the store failed: %+v", after)
	}
}

// TestPagedDropTableForgetsDecodedRows: DROP TABLE forgets the table's
// pages, and with them the rows decoded from them.
func TestPagedDropTableForgetsDecodedRows(t *testing.T) {
	db := openPagedOpts(t, NewMemVFS(), 16, 512)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE gone (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `CREATE TABLE keep (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 40; i++ {
		mustExec(t, db, `INSERT INTO gone VALUES (?, ?)`, i, fmt.Sprintf("gone-%02d", i))
		mustExec(t, db, `INSERT INTO keep VALUES (?, ?)`, i, fmt.Sprintf("keep-%02d", i))
	}
	mustQuery(t, db, `SELECT sum(k) FROM gone`)
	mustQuery(t, db, `SELECT sum(k) FROM keep`)
	riding := func(name string) (frames []*pager.Frame, rows int) {
		h := heapOf(t, db, name)
		h.mu.Lock()
		pages := append([]pager.PageID(nil), h.pages...)
		h.mu.Unlock()
		for _, pid := range pages {
			f, pr := frameRows(t, db, pid)
			frames = append(frames, f)
			for _, row := range pr.rows {
				if row != noRow {
					rows++
				}
			}
		}
		return frames, rows
	}
	goneFrames, goneRows := riding("gone")
	_, keepRows := riding("keep")
	if goneRows != 40 || keepRows != 40 {
		t.Fatalf("rows riding frames before the drop: gone %d, keep %d, want 40 each", goneRows, keepRows)
	}
	mustExec(t, db, `DROP TABLE gone`)
	for _, f := range goneFrames {
		pr, _ := f.Attachment().(*pageRows)
		if f.PID() != 0 || len(pr.rows) != 0 || pr.checked {
			t.Fatalf("frame of a dropped table's page: pid %d, %d rows riding, checked %v", f.PID(), len(pr.rows), pr.checked)
		}
	}
	if _, rows := riding("keep"); rows != 40 {
		t.Fatalf("the surviving table kept %d of its 40 decoded rows", rows)
	}
}

// TestPagedConcurrentReadersShareRows: readers of the same few pages race
// each other through every state a slot's row can be in — riding the
// frame (shared latch), not yet decoded (exclusive latch, one decodes and
// the rest find it), gone with an evicted frame — while a writer keeps
// landing new versions in the slots GC frees. Every read must return the
// row's own values. Run under -race by make race-pager.
func TestPagedConcurrentReadersShareRows(t *testing.T) {
	db := openPagedOpts(t, NewMemVFS(), 3, 512)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, tag TEXT NOT NULL, n INTEGER NOT NULL)`)
	const rows = 120
	for i := 0; i < rows; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, 0)`, i, fmt.Sprintf("tag-%03d", i))
	}
	stop := make(chan struct{})
	errs := make(chan error, 8)
	done := make(chan struct{})
	go func() { // the writer: n only ever grows, tag never changes
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(`UPDATE t SET n = n + 1 WHERE k = ?`, i%rows); err != nil {
				errs <- err
				return
			}
			if i%32 == 0 {
				db.Vacuum()
			}
		}
	}()
	var readers [4]chan struct{}
	for r := range readers {
		readers[r] = make(chan struct{})
		go func(r int) {
			defer close(readers[r])
			seen := make([]int64, rows)
			for i := 0; i < 1500; i++ {
				k := (i*7 + r*31) % rows
				got, err := db.Query(`SELECT tag, n FROM t WHERE k = ?`, k)
				if err != nil {
					errs <- err
					return
				}
				if got.Len() != 1 || got.Data[0][0].Text() != fmt.Sprintf("tag-%03d", k) || got.Data[0][1].Int64() < seen[k] {
					errs <- fmt.Errorf("reader %d: k=%d read %v, n was %d before", r, k, got.Data, seen[k])
					return
				}
				seen[k] = got.Data[0][1].Int64()
			}
		}(r)
	}
	for _, r := range readers {
		<-r
	}
	close(stop)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if st := db.BufferPoolStats(); st.Failed != "" || st.Evictions == 0 {
		t.Fatalf("store failed or nothing was evicted: %+v", st)
	}
}
