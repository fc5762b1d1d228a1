package sqldb

import (
	"testing"
	"unsafe"

	"condorj2/internal/sqldb/pager"
)

// TestVersionHeaderLayout pins what a row costs before its image: a
// version is 48 bytes, a Go size class, and a slot one pointer held inline
// in its table's chunk, with one more word beside it, the base, only in a
// paged table. A version's location packs page id, slot and tombstone flag
// into one word, each read back whole at its bounds, and a tombstone that
// was never paged names page 0.
func TestVersionHeaderLayout(t *testing.T) {
	if size := unsafe.Sizeof(rowVersion{}); size != 48 {
		t.Errorf("a rowVersion is %d bytes, want 48", size)
	}
	if size := unsafe.Sizeof(chainHead{}); size != 8 {
		t.Errorf("a slot's chain head is %d bytes, want 8", size)
	}
	if size := unsafe.Sizeof(baseLoc{}); size != 8 {
		t.Errorf("a slot's base is %d bytes, want 8", size)
	}
	var logOnly, paged slots
	paged.paged = true
	logOnly.grow(1)
	paged.grow(1)
	if logOnly.bases != nil || len(paged.bases) != len(paged.chunks) || len(paged.bases[0]) != len(paged.chunks[0]) {
		t.Errorf("base chunks: %d without pages, %d of %d chunks with", len(logOnly.bases), len(paged.bases), len(paged.chunks))
	}
	for _, pid := range []pager.PageID{1, 2, maxLocPID - 1, maxLocPID} {
		for _, slot := range []int{0, 1, 65534, 65535} {
			for _, tomb := range []bool{false, true} {
				loc := makeLoc(pid, slot)
				if tomb {
					loc |= locTomb
				}
				if loc.pid() != pid || loc.slot() != slot || loc.tomb() != tomb {
					t.Errorf("page %d slot %d tomb %v reads back as page %d slot %d tomb %v",
						pid, slot, tomb, loc.pid(), loc.slot(), loc.tomb())
				}
			}
		}
	}
	if v := (rowVersion{loc: locTomb}); !v.isTomb() || v.loc.pid() != 0 || v.loc.slot() != 0 {
		t.Errorf("an in-memory tombstone names page %d slot %d (tomb %v)", v.loc.pid(), v.loc.slot(), v.isTomb())
	}
	if v := (rowVersion{}); v.isTomb() || v.loc.pid() != 0 {
		t.Error("a new version is a tombstone or names a page")
	}
}

// TestVersionSlotsStayPut holds a slot taken from table.slot — the
// pointer every read and write of a row works through after the latch is
// released — while another goroutine inserts rows past several chunk
// boundaries. The slot must stay the row's: every update written through
// it is what a fresh lookup reads, and the table hands out the same slot
// at the end. A heap that moved its slots as it grew would lose updates
// to a copy.
func TestVersionSlotsStayPut(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	mustExec(t, db, `INSERT INTO t VALUES (0, 0)`)
	tbl := db.table("t")
	held := tbl.slot(0)
	const rows = 2 * slotChunkMax // rids 1..8192: past every doubling chunk and into the fixed ones
	done := make(chan error, 1)
	go func() {
		for id := int64(1); id <= rows; id++ {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, id, id); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var updates int64
	for inserting := true; inserting; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			inserting = false
		default:
		}
		updates++
		mustExec(t, db, `UPDATE t SET v = ? WHERE id = 0`, updates)
		if got := tbl.resolve(held.currentVersion(0)).col(1).Int64(); got != updates {
			t.Fatalf("update %d: the held slot reads %d", updates, got)
		}
		if got := mustQuery(t, db, `SELECT v FROM t WHERE id = 0`).Data[0][0].Int64(); got != updates {
			t.Fatalf("update %d: a lookup reads %d, the update went elsewhere", updates, got)
		}
	}
	if tbl.slot(0) != held {
		t.Fatal("row 0's slot moved")
	}
	if c := heapCensus(db).tables["t"]; c.slots != rows+1 {
		t.Fatalf("%d slots after %d inserts", c.slots, rows+1)
	}
	if got := mustQuery(t, db, `SELECT count(*), sum(v) FROM t WHERE id > 0`).Data[0]; got[0].Int64() != rows || got[1].Int64() != rows*(rows+1)/2 {
		t.Fatalf("the inserted rows read back as %v", got)
	}
	t.Logf("%d updates through the held slot while %d rows went in", updates, rows)
}
