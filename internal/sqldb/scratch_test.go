package sqldb

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Borrowed working memory must never leak: not into a result before its
// time (a *Rows QueryValues hands over is the transaction's until it ends,
// one Query hands over the caller's for good), not into the next
// statement's view of the world, and not — through the lock table's
// recycled entries — across owners.

// scratchFixture is the heartbeat's schema in miniature: machines read by
// unique key, vms four to a machine behind a secondary index, matches
// joined to both.
func scratchFixture(t *testing.T, db *DB) {
	t.Helper()
	for _, ddl := range []string{
		`CREATE TABLE machines (name TEXT PRIMARY KEY, state TEXT NOT NULL, beats INTEGER NOT NULL)`,
		`CREATE TABLE vms (id INTEGER PRIMARY KEY AUTOINCREMENT, machine TEXT NOT NULL, seq INTEGER NOT NULL,
			state TEXT NOT NULL, UNIQUE (machine, seq))`,
		`CREATE TABLE matches (id INTEGER PRIMARY KEY AUTOINCREMENT, vm_id INTEGER NOT NULL, job TEXT NOT NULL, UNIQUE (vm_id))`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m < 6; m++ {
		name := fmt.Sprintf("node-%d", m)
		if _, err := db.Exec(`INSERT INTO machines (name, state, beats) VALUES (?, 'up', 0)`, name); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 4; seq++ {
			res, err := db.Exec(`INSERT INTO vms (machine, seq, state) VALUES (?, ?, 'idle')`, name, seq)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO matches (vm_id, job) VALUES (?, ?)`, res.LastInsertID, fmt.Sprintf("job-%d-%d", m, seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The statements: a small index-range read, and a larger, differently
// shaped follow-up — a three-table join probing two indexes per outer row,
// ordered (so it fills the sort buffers too), then an UPDATE through the
// DML path's rid list.
const (
	scratchSmall  = `SELECT id, machine, seq, state FROM vms WHERE machine = ?`
	scratchJoin   = `SELECT m.name, v.seq, x.job FROM machines m JOIN vms v ON v.machine = m.name JOIN matches x ON x.vm_id = v.id WHERE m.beats >= ? ORDER BY x.job DESC`
	scratchUpdate = `UPDATE vms SET state = 'claimed' WHERE machine = ?`
)

func copyRows(data [][]Value) [][]Value {
	out := make([][]Value, len(data))
	for i, row := range data {
		out[i] = append([]Value(nil), row...)
	}
	return out
}

// TestRowsDoNotAliasScratch keeps statement A's *Rows while the same
// transaction runs B and C through the same scratch — and again after the
// transaction has finished and another has taken its scratch from the pool
// — and requires A's rows, columns and cursor untouched.
func TestRowsDoNotAliasScratch(t *testing.T) {
	db := New()
	scratchFixture(t, db)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	a, err := tx.Query(scratchSmall, "node-2")
	if err != nil || a.Len() != 4 {
		t.Fatalf("A: %v rows, err %v", a, err)
	}
	want, wantCols := copyRows(a.Data), append([]string(nil), a.Columns...)

	check := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(a.Data, want) || !reflect.DeepEqual(a.Columns, wantCols) {
			t.Fatalf("%s: A's result changed:\n got %v %v\nwant %v %v", when, a.Columns, a.Data, wantCols, want)
		}
	}
	b, err := tx.Query(scratchJoin, 0)
	if err != nil || b.Len() != 24 {
		t.Fatalf("B: %v rows, err %v", b, err)
	}
	check("after the join on the same Tx")
	wantB := copyRows(b.Data)
	if res, err := tx.Exec(scratchUpdate, "node-4"); err != nil || res.RowsAffected != 4 {
		t.Fatalf("C: %+v, err %v", res, err)
	}
	check("after the UPDATE on the same Tx")
	// A again, now with different parameters: the first result must not be
	// the buffer the second is built in.
	a2, err := tx.Query(scratchSmall, "node-5")
	if err != nil || a2.Len() != 4 {
		t.Fatalf("A2: %v rows, err %v", a2, err)
	}
	check("after re-running A's own statement")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The scratch is back in the pool; the next transaction borrows it.
	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Query(scratchJoin, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(scratchUpdate, "node-2"); err != nil {
		t.Fatal(err)
	}
	check("after another transaction reused the scratch")
	if !reflect.DeepEqual(b.Data, wantB) {
		t.Fatal("B's result changed after another transaction reused the scratch")
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for a.Next() {
		if !reflect.DeepEqual(a.Row(), want[n]) {
			t.Fatalf("row %d through the cursor = %v, want %v", n, a.Row(), want[n])
		}
		n++
	}
	if n != 4 {
		t.Fatalf("cursor yielded %d rows, want 4", n)
	}
}

// TestSQLRowsDoNotAliasScratch is the same through database/sql on one
// pooled connection: A's open *sql.Rows is read on while B and C run on
// the same sql.Tx, and what a first transaction scanned out stays intact
// while a second one reuses the connection and the scratch.
func TestSQLRowsDoNotAliasScratch(t *testing.T) {
	pool, engine := openSQL(t)
	pool.SetMaxOpenConns(1)
	scratchFixture(t, engine)

	type vm struct {
		id            int64
		machine, stat string
		seq           int64
	}
	want := []vm{{9, "node-2", "idle", 0}, {10, "node-2", "idle", 1}, {11, "node-2", "idle", 2}, {12, "node-2", "idle", 3}}
	scan := func(rows *sql.Rows) vm {
		t.Helper()
		var v vm
		if err := rows.Scan(&v.id, &v.machine, &v.seq, &v.stat); err != nil {
			t.Fatal(err)
		}
		return v
	}
	tx, err := pool.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rowsA, err := tx.Query(scratchSmall, "node-2")
	if err != nil {
		t.Fatal(err)
	}
	var got []vm
	if !rowsA.Next() {
		t.Fatal("A: no first row")
	}
	got = append(got, scan(rowsA))
	rowsB, err := tx.Query(scratchJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	nb := 0
	for rowsB.Next() {
		nb++
	}
	if err := rowsB.Close(); err != nil || nb != 24 {
		t.Fatalf("B: %d rows, err %v", nb, err)
	}
	if _, err := tx.Exec(scratchUpdate, "node-4"); err != nil {
		t.Fatal(err)
	}
	for rowsA.Next() {
		got = append(got, scan(rowsA))
	}
	if err := rowsA.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("A read around B and C = %v, want %v", got, want)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, err := pool.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rowsB, err = tx2.Query(scratchJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rowsB.Next() {
	}
	rowsB.Close()
	if _, err := tx2.Exec(scratchUpdate, "node-2"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("A's scanned values after the second transaction = %v, want %v", got, want)
	}
}

// TestLentRowsLiveUntilTheTransactionEnds: a result QueryValues hands over
// is lent by its transaction, and stays what its statement produced while
// later statements of the transaction run — the same statement again, an
// UPDATE of the rows it read, a join and a write issued between two of its
// rows, as a beans.Each callback issues them — until the transaction ends.
// Then it is taken back: under the race detector reading it panics,
// otherwise it reads as empty. On both engines.
func TestLentRowsLiveUntilTheTransactionEnds(t *testing.T) {
	for name, opts := range map[string]Options{
		"memory":  {},
		"paged-2": {VFS: NewMemVFS(), Path: "lent.db", PoolPages: 2, PageSize: 1024},
	} {
		t.Run(name, func(t *testing.T) {
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			scratchFixture(t, db)
			ctx := context.Background()
			vms := func(machine string, first int64) [][]Value {
				var rows [][]Value
				for seq := int64(0); seq < 4; seq++ {
					rows = append(rows, []Value{NewInt(first + seq), NewText(machine), NewInt(seq), NewText("idle")})
				}
				return rows
			}
			next := func(rows *Rows) []Value {
				t.Helper()
				if !rows.Next() {
					return nil
				}
				return []Value{rows.Col(0), rows.Col(1), rows.Col(2), rows.Col(3)}
			}

			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Rollback() // a failure mid-way must not leave Close waiting on it
			a, err := tx.QueryValues(ctx, scratchSmall, NewText("node-2"))
			if err != nil {
				t.Fatal(err)
			}
			got := [][]Value{next(a)}
			b, err := tx.QueryValues(ctx, scratchSmall, NewText("node-5"))
			if err != nil {
				t.Fatal(err)
			}
			if res, err := tx.ExecValues(ctx, scratchUpdate, NewText("node-2")); err != nil || res.RowsAffected != 4 {
				t.Fatalf("UPDATE of the rows A read: %+v, err %v", res, err)
			}
			for row := next(a); row != nil && len(got) < 8; row = next(a) { // bounded: a result reused underneath need not end
				got = append(got, row)
				j, err := tx.QueryValues(ctx, scratchJoin, NewInt(0))
				if err != nil || j.Len() != 24 {
					t.Fatalf("join between two of A's rows: %v rows, err %v", j, err)
				}
				if _, err := tx.ExecValues(ctx, `UPDATE machines SET beats = beats + 1 WHERE name = ?`, NewText("node-2")); err != nil {
					t.Fatal(err)
				}
			}
			if want := vms("node-2", 9); !reflect.DeepEqual(got, want) {
				t.Errorf("A read around later statements:\n got %v\nwant %v", got, want)
			}
			got = nil
			for row := next(b); row != nil && len(got) < 8; row = next(b) {
				got = append(got, row)
			}
			if want := vms("node-5", 21); !reflect.DeepEqual(got, want) {
				t.Errorf("the second run of A's statement:\n got %v\nwant %v", got, want)
			}
			if now, err := tx.Query(scratchSmall, "node-2"); err != nil || now.Len() != 4 || now.Data[0][3].Text() != "claimed" {
				t.Fatalf("the UPDATE did not reach the table: %v, err %v", now, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			if !raceEnabled {
				if a.Next() || b.Len() != 0 {
					t.Error("a result taken back by its transaction still reads rows")
				}
				return
			}
			defer func() {
				if recover() == nil {
					t.Error("reading a result its transaction took back did not panic")
				}
			}()
			a.Next()
		})
	}
}

// TestPooledScratchPinsNothing looks at a scratch after its transaction
// has finished — it is in the pool, possibly for a long time — and
// requires every buffer empty, zeroed to its capacity (no row, version,
// index key or parameter string stays reachable through it) and no larger
// than a pooled scratch may keep, even after a statement that scanned and
// returned far more than that and a transaction that ran more queries than
// a pooled scratch keeps results for: every result taken back, the arena
// of their row images emptied.
func TestPooledScratchPinsNothing(t *testing.T) {
	db, err := Open(Options{VFS: NewMemVFS(), Path: "pin.wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	scratchFixture(t, db)
	mustExec(t, db, `CREATE TABLE big (id INTEGER PRIMARY KEY, tag TEXT NOT NULL)`)
	for i := 0; i < 3*scratchKeep; i++ {
		mustExec(t, db, `INSERT INTO big VALUES (?, ?)`, i, fmt.Sprintf("tag-%d", i))
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []struct {
		sql  string
		args []any
	}{
		{scratchJoin, []any{0}},
		{scratchSmall, []any{"node-1"}},
		{`SELECT id, tag FROM big WHERE id >= ? ORDER BY tag`, []any{0}},
		{`SELECT tag, id, count(*) FROM big WHERE id >= ? GROUP BY tag, id`, []any{0}},
		{`INSERT INTO machines (name, state, beats) VALUES (?, ?, ?)`, []any{"node-x", "up", 1}},
		{scratchUpdate, []any{"node-3"}},
		{`DELETE FROM matches WHERE vm_id = ?`, []any{5}},
		{`UPDATE big SET tag = 'x' WHERE id >= ?`, []any{0}},
	} {
		if _, _, err := tx.execStmtCtx(context.Background(), mustParse(t, db, stmt.sql), mustValues(t, tx, stmt.args)); err != nil {
			t.Fatalf("%s: %v", stmt.sql, err)
		}
	}
	for i := 0; i < 2*resultsKeep; i++ {
		if _, err := tx.QueryValues(context.Background(), scratchSmall, NewText("node-1")); err != nil {
			t.Fatal(err)
		}
	}
	sc := tx.sc
	if sc == nil {
		t.Fatal("no scratch attached after statements")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.sc != nil {
		t.Fatal("scratch still attached after Commit")
	}
	if !reflect.DeepEqual(sc.q, query{}) || !reflect.DeepEqual(sc.env, evalEnv{}) {
		t.Error("pooled scratch still holds its last statement's query or environment")
	}
	checkEmpty(t, "rows", sc.rows)
	checkEmpty(t, "params", sc.params)
	if sl := &sc.sorter; sl.q != nil || sl.items != nil {
		t.Error("pooled scratch's sort unit still points at its last statement")
	}
	checkPooled(t, "sorter.entries", sc.sorter.entries, false)
	checkEmpty(t, "sorter.keys", sc.sorter.keys)
	checkEmpty(t, "sorter.refs", sc.sorter.refs)
	checkEmpty(t, "sorter.rows", sc.sorter.rows)
	checkPooled(t, "rids", sc.rids, false)
	checkEmpty(t, "provided", sc.provided)
	checkEmpty(t, "keyTargets", sc.keyTargets)
	checkEmpty(t, "locked", sc.locked)
	checkEmpty(t, "redo", sc.redo)
	checkPooled(t, "deltas", sc.deltas, false)
	checkPooled(t, "set", sc.set, false)
	checkEmpty(t, "versions", sc.versions)
	checkEmpty(t, "gcPend", sc.gcPend)
	for i := range sc.scans[:cap(sc.scans)] {
		op := &sc.scans[:cap(sc.scans)][i]
		if op.q != nil || op.tbl != nil || op.ap.index != nil || op.resume != "" || op.revStart != "" || op.group != "" {
			t.Errorf("scans[%d] still points at its last pass", i)
		}
		name := fmt.Sprintf("scans[%d].", i)
		checkPooled(t, name+"prefix", op.prefix, false)
		checkPooled(t, name+"lo", op.lo, false)
		checkPooled(t, name+"hi", op.hi, false)
		checkPooled(t, name+"bound", op.bound, false)
		checkPooled(t, name+"walk", op.walk, false)
		checkPooled(t, name+"resumeKey", op.resumeKey, false)
		checkPooled(t, name+"groupKey", op.groupKey, false)
		checkPooled(t, name+"rids", op.rids, false)
		checkPooled(t, name+"ends", op.ends, false)
		// Key bytes pin nothing; they are bounded by a window's worth.
		if len(op.keys) != 0 || cap(op.keys) > keyBytesKeep {
			t.Errorf("%skeys: length %d, capacity %d in the pool, cap %d", name, len(op.keys), cap(op.keys), keyBytesKeep)
		}
		checkEmpty(t, name+"rows", op.rows)
	}
	if c := sc.walBuf.Cap(); c > 64*scratchKeep {
		t.Errorf("walBuf kept %d bytes", c)
	}
	checkPooled(t, "eqKey", sc.eqKey, false)
	if sc.lent != 0 {
		t.Errorf("%d results still lent in the pool", sc.lent)
	}
	if len(sc.results) > resultsKeep || cap(sc.results) > resultsKeep {
		t.Errorf("results: length %d, capacity %d in the pool, cap %d", len(sc.results), cap(sc.results), resultsKeep)
	}
	var taken Rows
	taken.release()
	for i, r := range sc.results[:cap(sc.results)] {
		if i >= len(sc.results) {
			if r != nil {
				t.Errorf("results[%d] past the length still points at a result", i)
			}
		} else if !reflect.DeepEqual(*r, taken) {
			t.Errorf("results[%d] was not taken back: %+v", i, *r)
		}
	}
	checkEmpty(t, "refs", sc.refs)
}

// checkEmpty requires a pooled, pointer-bearing scratch buffer to be
// empty, zero out to its capacity, and within what a pooled scratch may
// keep.
func checkEmpty[T any](t *testing.T, name string, s []T) {
	t.Helper()
	checkPooled(t, name, s, true)
}

// checkPooled is checkEmpty; a buffer of plain numbers (zeroed false) pins
// nothing and only has to be empty and small.
func checkPooled[T any](t *testing.T, name string, s []T, zeroed bool) {
	t.Helper()
	if len(s) != 0 {
		t.Errorf("%s: length %d in the pool", name, len(s))
	}
	if cap(s) > scratchKeep {
		t.Errorf("%s: kept capacity %d, cap %d", name, cap(s), scratchKeep)
	}
	if !zeroed {
		return
	}
	var zero T
	for i, v := range s[:cap(s)] {
		if !reflect.DeepEqual(v, zero) {
			t.Errorf("%s[%d] = %v: not zeroed", name, i, v)
			return
		}
	}
}

func mustParse(t *testing.T, db *DB, sql string) Statement {
	t.Helper()
	stmt, err := db.parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func mustValues(t *testing.T, tx *Tx, args []any) []Value {
	t.Helper()
	vals, err := tx.toValues(args)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestKeyLockHashMatchesEncoding pins the key-lock hash to the key's
// encoded columns: a scan's key lock (hashed from its coerced, encoded
// equality prefix) and a writer's (hashed from the row) must name the same
// resource, FNV-1a over appendKeyValue's bytes.
func TestKeyLockHashMatchesEncoding(t *testing.T) {
	tbl, ix := &table{tableID: 3}, &index{cols: []int{2, 0}, num: 2}
	rows := [][]Value{
		{NewInt(7), NewText("skip"), NewText("node-0417")},
		{NewInt(-1), NullValue(), NewText("")},
		{NewFloat(2.5), NewBool(true), NewTime(time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC))},
		{NewInt(1 << 40), NewText("x"), NewBool(false)},
		{NullValue(), NewText("x"), NewInt(300)},
		{NewInt(0), NewText("x"), NewText(strings.Repeat("long\x00", 40))},
	}
	for _, row := range rows {
		enc := appendKeyValue(appendKeyValue(nil, row[2]), row[0])
		h := fnvOffset
		for _, b := range enc {
			h = (h ^ uint64(b)) * fnvPrime
		}
		want := lockTarget{table: 3, index: 2, rid: int64(h >> 1)}
		if got := tbl.keyLockTarget(ix, enc); got != want {
			t.Errorf("keyLockTarget(%x) = %+v, want %+v", enc, got, want)
		}
		if got := tbl.rowKeyLockTarget(ix, imageOf(row)); got != want {
			t.Errorf("rowKeyLockTarget(%v) = %+v, want %+v", row, got, want)
		}
	}
}

// TestEntryMatchesInPlace holds the in-place index-entry comparison to the
// build-a-key-and-compare definition: the same columns, one type per
// column, and the rid tiebreaker.
func TestEntryMatchesInPlace(t *testing.T) {
	ix := &index{cols: []int{1, 0}}
	row := imageOf([]Value{NewInt(4), NewText("idle"), NewFloat(1)})
	keys := []string{
		ix.entryKey(row, 9),
		ix.entryKey(row, 10),
		entry(9, NewText("idle"), NewFloat(4)), // another type encodes apart
		entry(9, NewText("idle"), NewInt(5)),
		probe(NewText("idle"), NewInt(4)),
		entry(9, NewText("idle"), NewInt(4)) + "\x00",
		entry(9, NewInt(4), NewText("idle")),
		entry(9, NullValue(), NewInt(4)),
		entry(9, NewText("idle\x00"), NewInt(4)),
	}
	for i, k := range keys {
		want := i == 0
		if got := ix.entryMatches(k, row, 9); got != want {
			t.Errorf("entryMatches(%x) = %v, want %v", k, got, want)
		}
	}
	other := []Value{NewInt(4), NewText("idle"), NewFloat(2)}
	if !ix.sameKey(row, imageOf(other)) {
		t.Error("sameKey: rows equal on the indexed columns reported different")
	}
	other[1] = NewText("busy")
	if ix.sameKey(row, imageOf(other)) {
		t.Error("sameKey: rows differing on an indexed column reported same")
	}
	fx := &index{cols: []int{0}}
	if !fx.sameKey(imageOf([]Value{NewFloat(math.Copysign(0, -1))}), imageOf([]Value{NewFloat(0)})) {
		t.Error("sameKey: -0 and +0 share one entry, reported different")
	}
}

// lockTableIdle reports what is left in the lock table: linked resources,
// and any shard whose freelist is over its cap or holds an entry that is
// not empty.
func lockTableIdle(lm *lockManager) (linked int, err error) {
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.mu.Lock()
		linked += len(sh.res)
		if len(sh.free) > lockFreeMax {
			err = fmt.Errorf("shard %d: freelist holds %d entries, cap %d", i, len(sh.free), lockFreeMax)
		}
		for _, rl := range sh.free {
			if len(rl.holders) != 0 || len(rl.queue) != 0 {
				err = fmt.Errorf("shard %d: free entry with %d holders, %d queued", i, len(rl.holders), len(rl.queue))
			}
		}
		sh.mu.Unlock()
	}
	return linked, err
}

// TestLockTableHygieneUnderStress churns the lock table every way an
// entry can be taken and given back — disjoint-row writers, same-row
// writers that queue, lock waits ended by cancellation and by the
// lock-wait timeout, deadlock victims, a scan that row-locks far more
// than a freelist holds — and requires, at quiescence, nothing held,
// every shard's table empty, and every freelist within its cap with only
// empty entries. A recycled entry that surfaced with a holder or a queued
// request would have panicked where it was reused (lockShard.resource).
func TestLockTableHygieneUnderStress(t *testing.T) {
	db := lockFixture(t, 400)
	db.SetLockTimeout(3 * time.Millisecond)
	const (
		workers = 8
		rounds  = 150
	)
	var wg sync.WaitGroup
	outcomes := make([]map[string]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		outcomes[w] = make(map[string]int)
		go func(w int) {
			defer wg.Done()
			note := func(err error) {
				switch {
				case err == nil:
					outcomes[w]["ok"]++
				case errors.Is(err, ErrDeadlock):
					outcomes[w]["deadlock"]++
				case errors.Is(err, ErrLockTimeout):
					outcomes[w]["timeout"]++
				case IsCancellation(err):
					outcomes[w]["canceled"]++
				default:
					t.Errorf("worker %d: %v", w, err)
				}
			}
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithCancel(context.Background())
				if r%5 == 4 {
					// A wait this short is usually ended by the context.
					ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
				}
				tx, err := db.BeginTx(ctx, TxOptions{})
				if err != nil {
					cancel()
					note(err)
					continue
				}
				own := 1 + w*40 + r%40 // this worker's rows: never contended
				hotA, hotB := 390+(w+r)%4, 390+(w+r+1)%4
				if w%2 == 1 {
					hotA, hotB = hotB, hotA // opposite orders: deadlocks
				}
				_, err = tx.Exec(`UPDATE kv SET n = n + 1 WHERE id = ?`, own)
				if err == nil {
					_, err = tx.Exec(`UPDATE kv SET n = n + 1 WHERE id = ?`, hotA)
				}
				if err == nil && r%16 == w {
					// Sit on a hot row past the lock-wait timeout and the
					// short contexts, so some waiters give up rather than
					// being granted or chosen as victims.
					time.Sleep(2 * db.LockTimeout())
				}
				if err == nil {
					_, err = tx.Exec(`UPDATE kv SET n = n + 1 WHERE id = ?`, hotB)
				}
				if err == nil && w == 0 && r%25 == 0 {
					// Far more row locks than the freelists hold.
					_, err = tx.Query(`SELECT id, n FROM kv WHERE id >= ? AND id <= ?`, 1, 380)
				}
				if err != nil {
					note(err)
					tx.Rollback()
				} else {
					note(tx.Commit())
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	total := make(map[string]int)
	for _, o := range outcomes {
		for k, n := range o {
			total[k] += n
		}
	}
	t.Logf("outcomes: %v; lock stats: %+v", total, db.LockStats())
	if total["ok"] == 0 || total["deadlock"] == 0 || total["timeout"]+total["canceled"] == 0 {
		t.Errorf("stress missed a way of giving a lock entry back: %v", total)
	}
	ls := db.LockStats()
	if ls.HeldRow != 0 || ls.HeldTable != 0 {
		t.Errorf("at quiescence HeldRow = %d, HeldTable = %d, want 0, 0", ls.HeldRow, ls.HeldTable)
	}
	linked, err := lockTableIdle(db.locks)
	if linked != 0 {
		t.Errorf("at quiescence %d resources still linked in the lock table", linked)
	}
	if err != nil {
		t.Error(err)
	}
	db.locks.wfMu.Lock()
	if n := len(db.locks.waitsFor); n != 0 {
		t.Errorf("at quiescence %d waits-for entries remain", n)
	}
	db.locks.wfMu.Unlock()
}

// TestResultOutlivesItsRows: a result of row references — held raw, in the
// copy the database/sql driver owns (Rows.own); held open in a *sql.Rows;
// and materialized into Rows.Data — keeps reading what its statement saw
// after everything that can happen to the rows it references: its own
// transaction's uncommitted write rolled back, every row updated, half of
// them deleted, the versions and slots reclaimed past the watermark and
// reused by new rows, and (paged, on a 2-frame pool) every page evicted.
// Version rows and the rows riding resident pages are never written after
// publication; this is the test of that rule.
func TestResultOutlivesItsRows(t *testing.T) {
	engines := map[string]Options{
		"memory":  {},
		"paged-2": {VFS: NewMemVFS(), Path: "outlive.db", PoolPages: 2, PageSize: 1024},
	}
	const sel = `SELECT id, tag, n FROM r WHERE id <= ? ORDER BY id`
	for name, opts := range engines {
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		pool := sql.OpenDB(db.Connector())
		mustExec(t, db, `CREATE TABLE r (id INTEGER PRIMARY KEY, tag TEXT NOT NULL, n INTEGER NOT NULL)`)
		mustExec(t, db, `CREATE TABLE filler (id INTEGER PRIMARY KEY, pad TEXT NOT NULL)`)
		for i := 1; i <= 40; i++ {
			mustExec(t, db, `INSERT INTO r VALUES (?, ?, ?)`, i, fmt.Sprintf("tag-%d", i), i*10)
		}
		for i := 1; i <= 200; i++ {
			mustExec(t, db, `INSERT INTO filler VALUES (?, ?)`, i, fmt.Sprintf("pad-%040d", i))
		}
		want := func(mine bool) [][]Value {
			var rows [][]Value
			for i := int64(1); i <= 20; i++ {
				tag := fmt.Sprintf("tag-%d", i)
				if mine && i == 3 {
					tag = "mine"
				}
				rows = append(rows, []Value{NewInt(i), NewText(tag), NewInt(i * 10)})
			}
			return rows
		}

		// Through database/sql, unread: the cursor holds the references.
		sqlRows, err := pool.Query(sel, 20)
		if err != nil {
			t.Fatal(err)
		}
		// Natively, raw and materialized, in a transaction that sees its own
		// uncommitted write and then rolls it back.
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(`UPDATE r SET tag = 'mine' WHERE id = 3`); err != nil {
			t.Fatal(err)
		}
		_, lent, err := tx.execStmtCtx(context.Background(), mustParse(t, db, sel), mustValues(t, tx, []any{20}))
		if err != nil {
			t.Fatal(err)
		}
		raw := lent.own()
		if raw.picks == nil || raw.Data != nil || len(raw.refs) != 20 {
			t.Fatalf("%s: the column-only result is not row references: %d refs, picks %v, data %v", name, len(raw.refs), raw.picks, raw.Data)
		}
		native, err := tx.Query(sel, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}

		mustExec(t, db, `UPDATE r SET tag = 'new', n = n + 1000`)
		mustExec(t, db, `DELETE FROM r WHERE id < 30 AND id >= 2`)
		db.Vacuum()
		for i := 100; i < 140; i++ { // into the reclaimed slots and page space
			mustExec(t, db, `INSERT INTO r VALUES (?, 'reuse', -1)`, i)
		}
		db.Vacuum()
		if db.store != nil {
			before := db.BufferPoolStats().Evictions
			mustQuery(t, db, `SELECT count(*) FROM filler`)
			if st := db.BufferPoolStats(); st.Evictions < before+4 || st.Failed != "" {
				t.Fatalf("%s: the filler scan was meant to evict every page: %+v", name, st)
			}
		}
		if now := mustQuery(t, db, sel, 20); now.Len() != 1 || now.Data[0][1].Text() != "new" {
			t.Fatalf("%s: the table did not change under the held results: %v", name, now.Data)
		}

		var got [][]Value
		for sqlRows.Next() {
			var id, n int64
			var tag string
			if err := sqlRows.Scan(&id, &tag, &n); err != nil {
				t.Fatal(err)
			}
			got = append(got, []Value{NewInt(id), NewText(tag), NewInt(n)})
		}
		if err := sqlRows.Err(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want(false)) {
			t.Errorf("%s: through database/sql:\n got %v\nwant %v", name, got, want(false))
		}
		raw = raw.materialize()
		if !reflect.DeepEqual(raw.Data, want(true)) {
			t.Errorf("%s: the raw references:\n got %v\nwant %v", name, raw.Data, want(true))
		}
		if !reflect.DeepEqual(native.Data, want(true)) {
			t.Errorf("%s: Rows.Data:\n got %v\nwant %v", name, native.Data, want(true))
		}
		// Data is the caller's own: writing it reaches no row.
		raw.Data[0][1] = NewText("scribble")
		if again := mustQuery(t, db, `SELECT tag FROM r WHERE id = 1`); again.Data[0][0].Text() != "new" {
			t.Errorf("%s: a write to Rows.Data reached the table: %v", name, again.Data)
		}
		pool.Close()
		db.Close()
	}
}
