//go:build !race

package sqldb

// Under the race detector sync.Pool drops a share of what is put back, so
// allocation counts there say nothing about the statement path.

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// allocDB is a WAL-backed engine (MemVFS, group commit — the daemon's
// layout) holding the heartbeat's two shapes: a table read by unique key
// and one read four rows at a time through a secondary index. poolPages >
// 0 puts the rows on pages, in a pool large enough that all stay resident.
func allocDB(t *testing.T, poolPages int) *DB {
	t.Helper()
	db, err := Open(Options{VFS: NewMemVFS(), Path: "alloc.wal", Sync: SyncGroup, PoolPages: poolPages})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, ddl := range []string{
		`CREATE TABLE machines (name TEXT PRIMARY KEY, state TEXT NOT NULL, beats INTEGER NOT NULL)`,
		`CREATE TABLE vms (id INTEGER PRIMARY KEY AUTOINCREMENT, machine TEXT NOT NULL, seq INTEGER NOT NULL,
			state TEXT NOT NULL, memory_mb INTEGER NOT NULL, UNIQUE (machine, seq))`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []string{"node-a", "node-b", "node-c"} {
		if _, err := db.Exec(`INSERT INTO machines (name, state, beats) VALUES (?, 'up', 0)`, m); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 4; seq++ {
			if _, err := db.Exec(`INSERT INTO vms (machine, seq, state, memory_mb) VALUES (?, ?, 'idle', 512)`, m, seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestStatementAllocs holds the statement path to its rule: a statement
// allocates what outlives its transaction and borrows the rest, its
// result included (scratch.go). Each budget records
// what the case measured before the executor scratch, the plan-time lock
// footprint, in-place index-entry comparison and the lock-table freelist →
// after; the slack is a field or two, not a per-statement query object.
// Arguments are pre-boxed (the caller's cost, not the engine's).
//
// The paged engine runs the same cases with every page resident. A
// committed row rides its page's frame from the write-through on (or from
// its first decode after a reload), the record is encoded into the heap's
// buffer, compaction works in the heap's scratch page and a pruned
// version's page location stays on the stack, so pages add nothing to a
// statement: 1 / 7 / 19 / 24 → 1 / 4 / 7 / 7, the in-memory figures, and
// the UPDATE's budget is theirs.
func TestStatementAllocs(t *testing.T) {
	t.Run("in-memory", func(t *testing.T) { statementAllocs(t, allocDB(t, 0), 7) })
	t.Run("paged", func(t *testing.T) {
		db := allocDB(t, 64)
		statementAllocs(t, db, 7)
		if st := db.BufferPoolStats(); st.Evictions != 0 || st.Failed != "" {
			t.Fatalf("the pages were meant to stay resident: %+v", st)
		}
	})
}

func statementAllocs(t *testing.T, db *DB, updateBudget float64) {
	ctx := context.Background()
	name, one := any("node-b"), any(int64(1))
	cases := []struct {
		name   string
		budget float64
		run    func(tx *Tx)
	}{
		// The Tx itself. 1 → 1.
		{"empty read-write transaction", 1, func(tx *Tx) {}},
		// Tx, Rows, its one row reference, Data, the row's cells. 32 → 4, 5
		// since the native call fills Data from the references, 4 since
		// the transaction lends the statement its Rows and references and
		// Query allocates only the materialized copy.
		{"point SELECT by unique key", 8, func(tx *Tx) {
			rows, err := tx.Query(`SELECT name, state, beats FROM machines WHERE name = ?`, name)
			if err != nil || rows.Len() != 1 {
				t.Fatalf("rows %v, err %v", rows, err)
			}
		}},
		// Tx, Rows, its four row references, Data, one array of cells (four
		// row locks and a table lock, all from the freelist). 53 → 7 → 5 →
		// 4 with the result lent, as above.
		{"4-row index-range SELECT", 12, func(tx *Tx) {
			rows, err := tx.Query(`SELECT id, machine, seq, state, memory_mb FROM vms WHERE machine = ?`, name)
			if err != nil || rows.Len() != 4 {
				t.Fatalf("rows %v, err %v", rows, err)
			}
		}},
		// The same read as the service layer runs it: the result lent by
		// the transaction and read in place. The Tx alone.
		{"4-row index-range SELECT, lent (QueryValues)", 2, func(tx *Tx) {
			rows, err := tx.QueryValues(ctx, `SELECT id, machine, seq, state, memory_mb FROM vms WHERE machine = ?`, NewText("node-b"))
			if err != nil || rows.Len() != 4 {
				t.Fatalf("rows %v, err %v", rows, err)
			}
		}},
		// Tx, the new row image, its version, the commit's batch and its
		// done channel, the device's amortized append. 48 → 10 → 8, since
		// the log's write buffer is reused, → 7 with no channel to appoint
		// a flusher.
		{"one-row UPDATE + group commit", updateBudget, func(tx *Tx) {
			res, err := tx.Exec(`UPDATE machines SET state = 'up', beats = beats + ? WHERE name = ?`, one, name)
			if err != nil || res.RowsAffected != 1 {
				t.Fatalf("res %+v, err %v", res, err)
			}
		}},
	}
	for _, c := range cases {
		once := func() {
			tx, err := db.BeginTx(ctx, TxOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c.run(tx)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		once() // plan, pool and freelist warm
		got := testing.AllocsPerRun(500, once)
		t.Logf("%s: %.0f allocations", c.name, got)
		if got > c.budget {
			t.Errorf("%s: %.0f allocations, budget %.0f", c.name, got, c.budget)
		}
	}
}

// TestPageCompactAllocs: a full page with every other record erased — the
// state nearly every insert into a full page finds — is compacted, and
// the record inserted, in the heap's scratch page and nothing else. The
// slice of live extents and the reflection sort over it cost 4
// allocations / 3.1 KB for an 8 KiB page of 64-byte records → 0.
func TestPageCompactAllocs(t *testing.T) {
	img, scratch := make([]byte, 8192), make([]byte, 8192)
	rec, wide := make([]byte, 64), make([]byte, 100)
	pageInit(img, 1)
	for {
		if _, ok := pageInsert(img, rec, scratch); !ok {
			break
		}
	}
	full := append([]byte(nil), img...)
	slots := pageSlots(img)
	got := testing.AllocsPerRun(200, func() {
		copy(img, full)
		for i := 0; i < slots; i += 2 {
			pageErase(img, i)
		}
		if _, ok := pageInsert(img, wide, scratch); !ok {
			t.Fatal("the record did not fit the compacted page")
		}
		if pageFreeHigh(img) != 8192-(slots/2)*64-100 {
			t.Fatalf("freeHigh %d: the page was not compacted", pageFreeHigh(img))
		}
	})
	t.Logf("compaction + insert: %.0f allocations", got)
	if got > 0 {
		t.Errorf("%.0f allocations, budget 0", got)
	}
}

// bytesPerRun is the bytes f allocates, averaged over runs after a warm-up
// that fills the plan cache and the pools. The collector is held off while
// it measures: a cycle empties the sync.Pools, and the refill (one
// transaction scratch, ~44 KB) would be counted against whichever
// measurement it happened to land in.
func bytesPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestOrderedSelectAllocs budgets the read path through database/sql — the
// driver's cursor included, Scan into plain variables — by what it costs
// per row it returns and by what it does not cost per row it merely reads.
//
// 100 rows, five columns, LIMIT 100 of 5,000 on the path that orders them.
// In one direction, which stopped at the LIMIT before too: 301 B per
// returned row when a result row was a copy (the copy, its share of the
// sort collection's and the result's arrays, the boxed cells) → 140 B as a
// reference: the reference, and the boxes database/sql's interface needs
// for two int64s, a float64 and two string headers. In the scheduler's two
// directions, all 5,000 tied on priority: 33.5 KB per returned row — every
// tied row read, copied and sorted — → 138 B.
//
// The top 10 of N rows all tied on the one key the path orders (the mirror
// shape: nothing can stop the scan early), N = 500 and 5,000: 94 KB and
// 3.3 MB per statement → 2.0 KB for both: the bounded heap keeps 11
// entries, and what a statement allocates no longer depends on how many
// rows it read.
func TestOrderedSelectAllocs(t *testing.T) {
	engine := New()
	defer engine.Close()
	pool := sql.OpenDB(engine.Connector())
	defer pool.Close()
	for _, ddl := range []string{
		`CREATE TABLE jobs (id INTEGER PRIMARY KEY, owner TEXT NOT NULL, state TEXT NOT NULL, priority FLOAT NOT NULL, length_sec INTEGER NOT NULL)`,
		`CREATE INDEX jobs_sp ON jobs (state, priority, id)`,
	} {
		if _, err := engine.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5500; i++ {
		state := "idle" // 5,000 of them
		if i > 5000 {
			state = "held" // 500
		}
		if _, err := engine.Exec(`INSERT INTO jobs VALUES (?, ?, ?, 0.5, ?)`, i+1000, fmt.Sprintf("owner-%d", i%7), state, 60+i); err != nil {
			t.Fatal(err)
		}
	}
	read := func(sql string, state any, want int) func() {
		return func() {
			rows, err := pool.Query(sql, state)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for rows.Next() {
				var id, length int64
				var owner, state string
				var prio float64
				if err := rows.Scan(&id, &owner, &state, &prio, &length); err != nil {
					t.Fatal(err)
				}
				n++
			}
			if err := rows.Err(); err != nil || n != want {
				t.Fatalf("%d rows, err %v; want %d", n, err, want)
			}
		}
	}
	const cols = `SELECT id, owner, state, priority, length_sec FROM jobs WHERE state = ? `

	for _, c := range []struct{ name, orderBy string }{
		{"one direction", `ORDER BY priority, id LIMIT 100`},
		{"the scheduler's", `ORDER BY priority DESC, id LIMIT 100`},
	} {
		perRow := bytesPerRun(200, read(cols+c.orderBy, any("idle"), 100)) / 100
		t.Logf("100 rows in index order, %s: %.0f bytes per returned row", c.name, perRow)
		if perRow > 180 {
			t.Errorf("%s: %.0f bytes per returned row, budget 180", c.name, perRow)
		}
	}

	// The least of three measurements per size: a loaded machine can add
	// a few hundred bytes of runtime noise to any one of them, and the
	// comparison below is about what the statement costs.
	least := func(f func()) float64 {
		b := bytesPerRun(50, f)
		for i := 0; i < 2; i++ {
			b = min(b, bytesPerRun(50, f))
		}
		return b
	}
	small := least(read(cols+`ORDER BY priority, id DESC LIMIT 10`, any("held"), 10))
	large := least(read(cols+`ORDER BY priority, id DESC LIMIT 10`, any("idle"), 10))
	t.Logf("top 10 of 500 tied rows: %.0f bytes; of 5,000: %.0f bytes", small, large)
	if large > 4096 {
		t.Errorf("top 10 of 5,000 tied rows: %.0f bytes, budget 4096", large)
	}
	if large > small+512 {
		t.Errorf("top 10 of 5,000 rows costs %.0f bytes, of 500 rows %.0f: the cost grows with the rows read", large, small)
	}
}

// TestHashJoinProbeAllocs: a hash join's probe looks up its key in the
// build side's table from the scratch's buffer, so what a statement
// allocates does not grow with the rows it probes. Before, each probed row
// allocated a buffer and a string for its key: 2 allocations per row.
func TestHashJoinProbeAllocs(t *testing.T) {
	perStatement := func(probed int) float64 {
		db := New()
		defer db.Close()
		for _, s := range []string{
			`CREATE TABLE vms (id INTEGER PRIMARY KEY, machine TEXT NOT NULL, state TEXT NOT NULL)`,
			`CREATE TABLE matches (id INTEGER PRIMARY KEY, vm INTEGER NOT NULL, job INTEGER NOT NULL)`,
		} {
			if _, err := db.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			if _, err := db.Exec(`INSERT INTO vms VALUES (?, 'node-a', 'idle')`, 100+i); err != nil {
				t.Fatal(err)
			}
		}
		want := int64(0) // half the matches name a VM that exists
		for i := 0; i < probed; i++ {
			if _, err := db.Exec(`INSERT INTO matches VALUES (?, ?, ?)`, i, 100+i%8, i); err != nil {
				t.Fatal(err)
			}
			if i%8 < 4 {
				want++
			}
		}
		const q = `SELECT count(*) FROM matches m JOIN vms v ON m.vm = v.id + 0`
		plan, err := db.Query(`EXPLAIN ` + q)
		if err != nil {
			t.Fatal(err)
		}
		if p := fmt.Sprint(plan.Data); !strings.Contains(p, "HASH JOIN") {
			t.Fatalf("%s: plan %s, want a hash join", q, p)
		}
		run := func() {
			rows, err := db.Query(q)
			if err != nil || rows.Data[0][0].Int64() != want {
				t.Fatalf("rows %v, err %v", rows, err)
			}
		}
		run()
		return testing.AllocsPerRun(100, run)
	}
	small, large := perStatement(10), perStatement(1000)
	t.Logf("hash join probing 10 rows: %.0f allocations; 1,000 rows: %.0f", small, large)
	if large > small+2 {
		t.Errorf("probing 1,000 rows allocates %.0f, 10 rows %.0f: the cost grows with the rows probed", large, small)
	}
}

// TestAggregateAllocs runs the pool-status shape — GROUP BY a TEXT column
// with five groups, count(*) only — over 100 and over 10,000 rows: a
// folded row must allocate nothing, so the larger run may cost no more
// than two allocations above the smaller.
func TestAggregateAllocs(t *testing.T) {
	states := []string{"Owner", "Unclaimed", "Matched", "Claimed", "Preempting"}
	perStatement := func(n int) float64 {
		db := New()
		defer db.Close()
		if _, err := db.Exec(`CREATE TABLE machines (id INTEGER PRIMARY KEY, state TEXT NOT NULL)`); err != nil {
			t.Fatal(err)
		}
		var vals []string
		for i := 0; i < n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s')", i, states[i%len(states)]))
			if len(vals) == 500 || i == n-1 {
				if _, err := db.Exec(`INSERT INTO machines VALUES ` + strings.Join(vals, ", ")); err != nil {
					t.Fatal(err)
				}
				vals = vals[:0]
			}
		}
		run := func() {
			rows, err := db.Query(`SELECT state, count(*) FROM machines GROUP BY state`)
			if err != nil || rows.Len() != len(states) || rows.Data[0][1].Int64() != int64(n/len(states)) {
				t.Fatalf("rows %v, err %v", rows, err)
			}
		}
		run()
		return testing.AllocsPerRun(100, run)
	}
	small, large := perStatement(100), perStatement(10000)
	t.Logf("status aggregation over 100 rows: %.0f allocations; 10,000 rows: %.0f", small, large)
	if large > small+2 {
		t.Errorf("aggregating 10,000 rows allocates %.0f, 100 rows %.0f: the cost grows with the rows folded", large, small)
	}
}

// TestIndexEntryAllocs inserts 10,000 jobs under the CAS's four jobs
// indexes (internal/core's schema) and budgets what an insert allocates and
// what a row keeps live, its index entries included. When a key was a
// []Value of 32-byte cells and a node held the rid beside it: 1,317 bytes
// allocated per insert, 1,060–1,095 bytes live per row. One encoded string
// per entry: 1,013 and 750–800. The row an image, not values: 725 and 481.
// Entry keys in B+tree leaves, not one skiplist node each: 725 → 569
// allocated, 506 → 350 live. Each key its suffix in its leaf's byte block
// under a prefix the leaf stores once, not a string of its own: 424 and
// 205. A 48-byte version and the row's slot inline in its table's chunk:
// 379 and 183.
//
// The paged engine runs the same inserts, logged and written through to
// pages in a pool that holds them all, and is measured after a checkpoint
// has emptied the log: what stays live per row there is its image riding
// its page's frame, its record twice (the page file and the frame), its
// entries and its slot. 1,360–1,410 bytes are allocated per insert. With
// the row's version kept 410–412 bytes stay live per row; with the version
// absorbed into an 8-byte base at its commit, 371–382.
func TestIndexEntryAllocs(t *testing.T) {
	t.Run("in-memory", func(t *testing.T) {
		db := New()
		defer db.Close()
		indexEntryAllocs(t, db, 470, 200)
	})
	t.Run("paged", func(t *testing.T) {
		db, err := Open(Options{VFS: NewMemVFS(), Path: "alloc.wal", PoolPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		indexEntryAllocs(t, db, 1600, 395)
		if st := db.BufferPoolStats(); st.Evictions != 0 || st.Failed != "" {
			t.Fatalf("the pages were meant to stay resident: %+v", st)
		}
	})
}

func indexEntryAllocs(t *testing.T, db *DB, insertBudget, liveBudget float64) {
	for _, s := range []string{
		`CREATE TABLE jobs (
			id INTEGER PRIMARY KEY AUTOINCREMENT,
			owner TEXT NOT NULL,
			workflow_id INTEGER,
			state TEXT NOT NULL DEFAULT 'idle',
			length_sec INTEGER NOT NULL,
			min_memory_mb INTEGER NOT NULL DEFAULT 0,
			priority FLOAT NOT NULL DEFAULT 0.5,
			depends_on INTEGER,
			submitted_at TIMESTAMP,
			matched_at TIMESTAMP,
			started_at TIMESTAMP
		)`,
		`CREATE INDEX jobs_state ON jobs (state, id)`,
		`CREATE INDEX jobs_state_priority ON jobs (state, priority, id)`,
		`CREATE INDEX jobs_depends ON jobs (depends_on)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	const n = 10000
	owners := make([]any, 50)
	for i := range owners {
		owners[i] = fmt.Sprintf("user-%02d", i)
	}
	length, at := any(int64(600)), any(time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := db.Exec(`INSERT INTO jobs (owner, length_sec, submitted_at) VALUES (?, ?, ?)`, owners[i%50], length, at); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil { // a no-op unless paged
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perInsert := float64(after.TotalAlloc-before.TotalAlloc) / n
	live := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	c := heapCensus(db)
	t.Logf("%.0f bytes allocated per insert, %.0f bytes live per row\n%v", perInsert, live, c)
	if tc, paged := c.tables["jobs"], db.store != nil; tc.slots != n || tc.versions+tc.bases != n || paged && tc.versions != 0 {
		t.Errorf("%d inserts left %d slots, %d versions and %d bases", n, tc.slots, tc.versions, tc.bases)
	}
	if perInsert > insertBudget {
		t.Errorf("%.0f bytes allocated per insert, budget %.0f", perInsert, insertBudget)
	}
	if live > liveBudget {
		t.Errorf("%.0f bytes live per row, budget %.0f", live, liveBudget)
	}
}

// TestRowImageAllocs inserts 20,000 rows of the CAS's jobs shape — half
// idle, half running, as the harness preloads them — then moves half of
// them on with one UPDATE, and budgets what a stored row costs. The table
// has no index, so what stays live is the rows alone: per version its
// image, the rowVersion and the slot (counted by heapCensus). When a row
// was a []Value of 32-byte cells: 449 bytes live per version, 680
// allocated per insert and 1,452 per update (the update's share of one
// 10,000-row statement). As one image per version: 169, 400 and 867. With
// a 48-byte version, not 64, and each slot inline in its table's chunk,
// not an object of its own behind a pointer: 143, 346 and 826.
func TestRowImageAllocs(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE jobs (
		id INTEGER NOT NULL,
		owner TEXT NOT NULL,
		workflow_id INTEGER,
		state TEXT NOT NULL DEFAULT 'idle',
		length_sec INTEGER NOT NULL,
		min_memory_mb INTEGER NOT NULL DEFAULT 0,
		priority FLOAT NOT NULL DEFAULT 0.5,
		depends_on INTEGER,
		submitted_at TIMESTAMP,
		matched_at TIMESTAMP,
		started_at TIMESTAMP
	)`)
	const n = 20000
	owners := make([]any, 50)
	for i := range owners {
		owners[i] = fmt.Sprintf("user-%02d", i)
	}
	length := any(int64(600))
	at := any(time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC))
	later := any(time.Date(2006, 10, 1, 0, 5, 0, 0, time.UTC))
	var before, inserted, updated runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		var err error
		if i%2 == 0 {
			_, err = db.Exec(`INSERT INTO jobs (id, owner, length_sec, submitted_at) VALUES (?, ?, ?, ?)`,
				int64(i), owners[i%50], length, at)
		} else {
			_, err = db.Exec(`INSERT INTO jobs (id, owner, state, length_sec, submitted_at, matched_at, started_at)
				VALUES (?, ?, 'running', ?, ?, ?, ?)`, int64(i), owners[i%50], length, at, at, at)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&inserted)
	if _, err := db.Exec(`UPDATE jobs SET state = 'running', matched_at = ?, started_at = ? WHERE id < ?`, later, later, int64(n/2)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&updated)
	perInsert := float64(inserted.TotalAlloc-before.TotalAlloc) / n
	perUpdate := float64(updated.TotalAlloc-inserted.TotalAlloc) / (n / 2)
	liveInserted := (float64(inserted.HeapAlloc) - float64(before.HeapAlloc)) / n
	nv := heapCensus(db).tables["jobs"].versions
	liveUpdated := (float64(updated.HeapAlloc) - float64(before.HeapAlloc)) / float64(nv)
	t.Logf("%.0f bytes allocated per insert, %.0f per update; %.0f bytes live per version after the inserts, %.0f over %d versions after the update",
		perInsert, perUpdate, liveInserted, liveUpdated, nv)
	if perInsert > 680 {
		t.Errorf("%.0f bytes allocated per insert, budget 680", perInsert)
	}
	if perUpdate > 1452 {
		t.Errorf("%.0f bytes allocated per update, budget 1452", perUpdate)
	}
	for _, live := range []float64{liveInserted, liveUpdated} {
		if live > 160 {
			t.Errorf("%.0f bytes live per row version, budget 160", live)
		}
	}
}

// TestLogReaderAllocs: a logged group costs its reader one allocation, the
// record array, and nothing once that array is the reader's to reuse — no
// record allocates: an update's delta is a view of the log, and its table
// is an id, never a name to copy out. The redo resolves those ids without
// db.mu (and so without a lookup by name): applyGroup redoes the group to
// the end while the test holds db.mu.
func TestLogReaderAllocs(t *testing.T) {
	if got := unsafe.Sizeof(walRecord{}); got != 96 {
		t.Errorf("walRecord is %d bytes; fuzzReader's allocation bound counts 96", got)
	}
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE machines (name TEXT PRIMARY KEY, state TEXT NOT NULL, beats INTEGER NOT NULL)`)
	const n = 64
	for i := 0; i < n; i++ {
		mustExec(t, db, `INSERT INTO machines VALUES (?, 'up', 0)`, fmt.Sprintf("node-%02d", i))
	}
	tbl, err := db.lookupTable("machines")
	if err != nil {
		t.Fatal(err)
	}
	sc := new(txScratch)
	recs := make([]walRecord, n)
	for rid := range recs {
		old := tbl.currentRow(int64(rid), 0)
		recs[rid] = sc.updateRecord(tbl.tableID, int64(rid), old, imageOf([]Value{old.col(0), old.col(1), NewInt(1)}))
	}
	data := groupBytes(1, recs...)

	if a := testing.AllocsPerRun(100, func() {
		if rd := (logReader{data: data}); !rd.next() || len(rd.recs) != n {
			t.Fatal("the group does not decode")
		}
	}); a != 1 {
		t.Errorf("decoding a %d-record group allocates %.0f times, want 1 (the record array)", n, a)
	}
	rd := logReader{data: data}
	if a := testing.AllocsPerRun(100, func() {
		rd.end = 0
		if !rd.next() {
			t.Fatal("the group does not decode")
		}
	}); a != 0 {
		t.Errorf("decoding into a reused reader allocates %.0f times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		for i := range rd.recs {
			if db.tableByID(rd.recs[i].tableID) != tbl {
				t.Fatal("a record's id does not resolve to its table")
			}
		}
	}); a != 0 {
		t.Errorf("resolving %d table ids allocates %.0f times, want 0", n, a)
	}

	db.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- db.applyGroup(1, rd.recs, nil) }()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		err = fmt.Errorf("applyGroup still waiting after 10s: it takes db.mu")
	}
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if rows := mustQuery(t, db, `SELECT count(*) FROM machines WHERE beats = 1`); rows.Data[0][0].Int64() != n {
		t.Fatalf("%v rows redone, want %d", rows.Data[0][0], n)
	}
}

// TestMemVFSAppendAllocs budgets what a growing file allocates: a log
// appended in 128-byte writes, and a page file grown by WriteAt a page
// at a time, each to 4 MiB, allocate at most their bytes plus one
// extent. A file kept in one slice grown by append allocates about five
// times its bytes.
func TestMemVFSAppendAllocs(t *testing.T) {
	const size = 4 << 20
	for _, c := range []struct {
		name  string
		chunk int
		grow  func(vfs *MemVFS, p []byte)
	}{
		{"append", 128, func(vfs *MemVFS, p []byte) {
			f, _ := vfs.Create("log")
			for n := 0; n < size; n += len(p) {
				f.Write(p)
			}
		}},
		{"writeAt", 4096, func(vfs *MemVFS, p []byte) {
			f, _ := vfs.OpenRandom("pages")
			for n := 0; n < size; n += len(p) {
				f.WriteAt(p, int64(n))
			}
		}},
	} {
		p := bytes.Repeat([]byte{7}, c.chunk)
		got := bytesPerRun(3, func() { c.grow(NewMemVFS(), p) })
		t.Logf("%s: %.0f bytes for a %d-byte file", c.name, got, size)
		if limit := float64(size + memExtent); got > limit {
			t.Errorf("%s: %.0f bytes allocated for a %d-byte file, budget %.0f", c.name, got, size, limit)
		}
	}
}
