package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// jobRow mirrors the test table for computing expected orderings in Go.
type jobRow struct {
	id    int64
	state string
	prio  float64
}

func orderedScanFixture(t *testing.T) (*DB, []jobRow) {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY, state TEXT NOT NULL, priority FLOAT NOT NULL)`)
	mustExec(t, db, `CREATE INDEX jobs_sp ON jobs (state, priority, id)`)
	var all []jobRow
	for i := int64(1); i <= 200; i++ {
		state := "idle"
		if i%3 == 0 {
			state = "running"
		}
		// Small priority domain: plenty of ties to exercise tie handling.
		prio := float64((i*37)%9) / 10
		mustExec(t, db, `INSERT INTO jobs VALUES (?, ?, ?)`, i, state, prio)
		all = append(all, jobRow{id: i, state: state, prio: prio})
	}
	return db, all
}

// expectTopIdle computes the ground truth for
// WHERE state = 'idle' ORDER BY priority DESC, id LIMIT k.
func expectTopIdle(all []jobRow, k int) []int64 {
	var idle []jobRow
	for _, r := range all {
		if r.state == "idle" {
			idle = append(idle, r)
		}
	}
	sort.Slice(idle, func(a, b int) bool {
		if idle[a].prio != idle[b].prio {
			return idle[a].prio > idle[b].prio
		}
		return idle[a].id < idle[b].id
	})
	if k > len(idle) {
		k = len(idle)
	}
	ids := make([]int64, k)
	for i := 0; i < k; i++ {
		ids[i] = idle[i].id
	}
	return ids
}

// TestOrderedReverseScanTopN is the scheduler's hot selection: the mixed-
// direction ORDER BY (priority DESC, id ASC) rides a reverse index scan on
// (state, priority, id), collecting only through the last tie instead of
// scanning every idle row.
func TestOrderedReverseScanTopN(t *testing.T) {
	db, all := orderedScanFixture(t)
	defer db.Close()
	for _, k := range []int{1, 5, 10, 1000} {
		rows := mustQuery(t, db, `SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority DESC, id LIMIT ?`, k)
		want := expectTopIdle(all, k)
		if rows.Len() != len(want) {
			t.Fatalf("k=%d: got %d rows, want %d", k, rows.Len(), len(want))
		}
		for i, r := range rows.Data {
			if r[0].Int64() != want[i] {
				t.Fatalf("k=%d: row %d = %d, want %d", k, i, r[0].Int64(), want[i])
			}
		}
	}
}

// TestOrderedScanStopsEarly locks in the perf win: with unique priorities
// the reverse scan must visit roughly LIMIT rows, not every idle row.
func TestOrderedScanStopsEarly(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY, state TEXT NOT NULL, priority FLOAT NOT NULL)`)
	mustExec(t, db, `CREATE INDEX jobs_sp ON jobs (state, priority, id)`)
	for i := int64(1); i <= 500; i++ {
		mustExec(t, db, `INSERT INTO jobs VALUES (?, 'idle', ?)`, i, float64(i)/1000)
	}
	var scanned int
	db.SetStatsHook(func(s StmtStats) {
		if s.Kind == "SELECT" {
			scanned = s.RowsScanned
		}
	})
	rows := mustQuery(t, db, `SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority DESC, id LIMIT 10`)
	if rows.Len() != 10 {
		t.Fatalf("got %d rows", rows.Len())
	}
	// Highest priority = highest id.
	if got := rows.Data[0][0].Int64(); got != 500 {
		t.Fatalf("top row id = %d, want 500", got)
	}
	if scanned > 30 {
		t.Fatalf("scanned %d rows for LIMIT 10 ordered scan; early termination broken", scanned)
	}
}

// TestOrderedForwardScan: same-direction ORDER BY suffixes ride a forward
// index scan (the VM selection pattern: WHERE state = ? ORDER BY id LIMIT ?).
func TestOrderedForwardScan(t *testing.T) {
	db, all := orderedScanFixture(t)
	defer db.Close()
	var scanned int
	db.SetStatsHook(func(s StmtStats) {
		if s.Kind == "SELECT" {
			scanned = s.RowsScanned
		}
	})
	rows := mustQuery(t, db, `SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority, id LIMIT 7`)
	// Ground truth: idle rows by (prio asc, id asc).
	var idle []jobRow
	for _, r := range all {
		if r.state == "idle" {
			idle = append(idle, r)
		}
	}
	sort.Slice(idle, func(a, b int) bool {
		if idle[a].prio != idle[b].prio {
			return idle[a].prio < idle[b].prio
		}
		return idle[a].id < idle[b].id
	})
	if rows.Len() != 7 {
		t.Fatalf("got %d rows", rows.Len())
	}
	for i, r := range rows.Data {
		if r[0].Int64() != idle[i].id {
			t.Fatalf("row %d = %d, want %d", i, r[0].Int64(), idle[i].id)
		}
	}
	// Fully ordered (priority, id both provided): stop right at LIMIT
	// (one extra index entry may land in the collection batch).
	if scanned > 8 {
		t.Fatalf("scanned %d rows for fully ordered LIMIT 7", scanned)
	}
}

// TestOrderedScanWithRangeBound combines a range predicate with the
// reverse ordered scan.
func TestOrderedScanWithRangeBound(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY, state TEXT NOT NULL, priority FLOAT NOT NULL)`)
	mustExec(t, db, `CREATE INDEX jobs_sp ON jobs (state, priority, id)`)
	for i := int64(1); i <= 100; i++ {
		mustExec(t, db, `INSERT INTO jobs VALUES (?, 'idle', ?)`, i, float64(i))
	}
	rows := mustQuery(t, db, `SELECT id FROM jobs WHERE state = 'idle' AND priority >= 40 AND priority < 60 ORDER BY priority DESC LIMIT 5`)
	want := []int64{59, 58, 57, 56, 55}
	if rows.Len() != len(want) {
		t.Fatalf("got %d rows, want %d", rows.Len(), len(want))
	}
	for i, r := range rows.Data {
		if r[0].Int64() != want[i] {
			t.Fatalf("row %d = %d, want %d", i, r[0].Int64(), want[i])
		}
	}
	// Strict bounds mirrored: ascending through the same window.
	rows = mustQuery(t, db, `SELECT id FROM jobs WHERE state = 'idle' AND priority > 40 AND priority <= 60 ORDER BY priority LIMIT 5`)
	want = []int64{41, 42, 43, 44, 45}
	for i, r := range rows.Data {
		if r[0].Int64() != want[i] {
			t.Fatalf("asc row %d = %d, want %d", i, r[0].Int64(), want[i])
		}
	}
}

// TestOrderedScanSurvivesMutation re-checks ordering after deletes and
// priority updates (index maintenance + ordered scan agree).
func TestOrderedScanSurvivesMutation(t *testing.T) {
	db, all := orderedScanFixture(t)
	defer db.Close()
	mustExec(t, db, `DELETE FROM jobs WHERE id <= 50 AND state = 'idle'`)
	mustExec(t, db, `UPDATE jobs SET priority = 0.95 WHERE id = 100`)
	var live []jobRow
	for _, r := range all {
		if r.state == "idle" && r.id <= 50 {
			continue
		}
		if r.id == 100 {
			r.prio = 0.95
		}
		live = append(live, r)
	}
	rows := mustQuery(t, db, `SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority DESC, id LIMIT 10`)
	want := expectTopIdle(live, 10)
	if rows.Len() != len(want) {
		t.Fatalf("got %d rows, want %d", rows.Len(), len(want))
	}
	for i, r := range rows.Data {
		if r[0].Int64() != want[i] {
			t.Fatalf("row %d = %d, want %d", i, r[0].Int64(), want[i])
		}
	}
	if want[0] != 100 {
		t.Fatalf("test fixture broken: expected id 100 on top, got %d", want[0])
	}
}

// TestOrderedScanSurvivesMovesMidWalk: a locking read is stopped inside its
// first small batch of the grouped walk — on the lock of the batch's first
// row — while a writer moves rows the walk has collected down below its
// cursor, deletes one, moves a row from a low group into the cursor's own
// group ahead of it and shuffles rows between groups further down. The
// cursor is keys, so the walk resumes where it was: each row comes back
// once, at the position of the entry it holds after the writer's commit.
func TestOrderedScanSurvivesMovesMidWalk(t *testing.T) {
	// Groups by priority, highest first: 0.8 holds ids 8, 17, 26, … (22
	// rows), 0.7 holds 7, 16, 25, …; ids 64 and 100 start in 0.1.
	for _, c := range []struct {
		limit  int
		moveIn int64 // from 0.1 into the group the first batch ends in, past its last entry
		moves  map[int64]float64
	}{
		// The batch ends at (0.8, 62).
		{limit: 6, moveIn: 64, moves: map[int64]float64{64: 0.8}},
		// ... at (0.7, 88), a group on; 16 is a collected row of that group.
		{limit: 31, moveIn: 100, moves: map[int64]float64{100: 0.7, 16: 0.6}},
	} {
		db, all := orderedScanFixture(t)
		writer, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		wexec := func(sql string, args ...any) {
			t.Helper()
			if _, err := writer.Exec(sql, args...); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		wexec(`UPDATE jobs SET priority = priority WHERE id = 8`) // the top row: the reader will wait here
		waited := db.LockStats().Waited
		type result struct {
			ids []int64
			err error
		}
		done := make(chan result, 1)
		go func() {
			tx, err := db.Begin()
			if err != nil {
				done <- result{err: err}
				return
			}
			defer tx.Rollback()
			rows, err := tx.Query(`SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority DESC, id LIMIT ?`, c.limit)
			if err != nil {
				done <- result{err: err}
				return
			}
			var ids []int64
			for _, r := range rows.Data {
				ids = append(ids, r[0].Int64())
			}
			done <- result{ids: ids}
		}()
		for db.LockStats().Waited == waited {
			select {
			case r := <-done:
				t.Fatalf("the reader finished without waiting: %+v", r)
			default:
				time.Sleep(time.Millisecond)
			}
		}
		moves := map[int64]float64{17: 0.1, 10: 0.2, 6: 0.4}
		for id, p := range c.moves {
			moves[id] = p
		}
		for id, p := range moves {
			wexec(`UPDATE jobs SET priority = ? WHERE id = ?`, p, id)
		}
		wexec(`DELETE FROM jobs WHERE id = 26`)
		if err := writer.Commit(); err != nil {
			t.Fatal(err)
		}
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		var live []jobRow
		for _, row := range all {
			if p, ok := moves[row.id]; ok {
				row.prio = p
			}
			if row.id != 26 {
				live = append(live, row)
			}
		}
		want := expectTopIdle(live, c.limit)
		if !reflect.DeepEqual(r.ids, want) {
			t.Errorf("LIMIT %d:\n got %v\nwant %v", c.limit, r.ids, want)
		}
		if last := want[len(want)-1]; last != c.moveIn {
			t.Fatalf("test fixture broken: the row moved in ahead of the cursor (%d) should close the result, %d does", c.moveIn, last)
		}
		db.Close()
	}
}

// TestExplainOrderedScan is the access-path regression test: the planner
// must choose the order-providing index and report the reverse ordered
// scan, not a seq scan or the plain (state, id) index.
func TestExplainOrderedScan(t *testing.T) {
	db, _ := orderedScanFixture(t)
	defer db.Close()
	mustExec(t, db, `CREATE INDEX jobs_state ON jobs (state, id)`)
	rows := mustQuery(t, db, `EXPLAIN SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority DESC, id LIMIT 10`)
	if rows.Len() != 1 {
		t.Fatalf("EXPLAIN rows = %d", rows.Len())
	}
	access := rows.Data[0][1].Text()
	if !strings.Contains(access, "INDEX SCAN USING jobs_sp") {
		t.Fatalf("access = %q, want jobs_sp index scan", access)
	}
	if !strings.Contains(access, "ORDER REVERSE") {
		t.Fatalf("access = %q, want ORDER REVERSE", access)
	}
	// Same-direction ascending suffix: forward ordered scan.
	rows = mustQuery(t, db, `EXPLAIN SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority, id LIMIT 10`)
	access = rows.Data[0][1].Text()
	if !strings.Contains(access, "jobs_sp") || !strings.Contains(access, " ORDER") || strings.Contains(access, "REVERSE") {
		t.Fatalf("access = %q, want forward ordered jobs_sp scan", access)
	}
}

// TestExplainOrderOnlyScan: ORDER BY … LIMIT with no predicate any index
// serves — the queue-status shapes — rides the index that provides the
// order, in a snapshot read and a locked read alike: the plan does not
// depend on the read mode, so both share the statement's cached plan.
func TestExplainOrderOnlyScan(t *testing.T) {
	shapes := []struct{ sql, access string }{
		{`SELECT id FROM jobs ORDER BY id LIMIT ?`, "INDEX SCAN USING pk_jobs () ORDER"},
		{`SELECT id FROM jobs ORDER BY id DESC LIMIT ?`, "INDEX SCAN USING pk_jobs () ORDER REVERSE"},
		{`SELECT id FROM jobs WHERE priority = 0.3 ORDER BY id LIMIT ?`, "INDEX SCAN USING pk_jobs () ORDER"},
		{`SELECT id FROM jobs WHERE priority = 0.3 ORDER BY id DESC LIMIT ?`, "INDEX SCAN USING pk_jobs () ORDER REVERSE"},
	}
	db, _ := orderedScanFixture(t)
	defer db.Close()
	explain := func(readOnly bool, sql string) string {
		t.Helper()
		tx, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: readOnly})
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		rows, err := tx.Query("EXPLAIN "+sql, 10)
		if err != nil {
			t.Fatal(err)
		}
		return rows.Data[0][1].Text()
	}
	for _, sh := range shapes {
		for i, readOnly := range []bool{true, false, true, false} {
			want := sh.access
			if i > 0 { // the first EXPLAIN planned it; every later one hits
				want += " [CACHED]"
			}
			if got := explain(readOnly, sh.sql); got != want {
				t.Errorf("%s (read-only %v, run %d): access %q, want %q", sh.sql, readOnly, i, got, want)
			}
		}
	}
	// Without a LIMIT there is no early stop to pay for the index walk.
	if got := explain(true, `SELECT id FROM jobs ORDER BY id`); got != "SEQ SCAN" {
		t.Errorf("no LIMIT: access %q, want SEQ SCAN", got)
	}
}

// TestOrderOnlyScanLocksLikeSeqScan: a locked whole-index scan takes the
// one table S lock a seq scan takes, and no row locks.
func TestOrderOnlyScanLocksLikeSeqScan(t *testing.T) {
	db, _ := orderedScanFixture(t)
	defer db.Close()
	const q = `SELECT id FROM jobs ORDER BY id DESC LIMIT 3`
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	plan, err := tx.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Data[0][1].Text(), "INDEX SCAN USING pk_jobs () ORDER REVERSE"; got != want {
		t.Fatalf("locked read's access = %q, want %q", got, want)
	}
	before := db.LockStats()
	rows, err := tx.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.LockStats().Acquired - before.Acquired; got != 1 {
		t.Fatalf("locked whole-index scan acquired %d locks, want 1 (the table's)", got)
	}
	if ls := db.LockStats(); ls.HeldRow != 0 {
		t.Fatalf("locked whole-index scan holds %d row locks", ls.HeldRow)
	}
	if rows.Len() != 3 || rows.Data[0][0].Int64() != 200 || rows.Data[2][0].Int64() != 198 {
		t.Fatalf("rows = %v, want ids 200, 199, 198", rows.Data)
	}
}

// TestOrderOnlyScanMatchesSeqScan: the ordered scan returns what the
// oracle's sort-everything evaluation does, from a snapshot and under
// locks — through OFFSET, ties the index order does not break, reverse and
// mixed directions, and limits past the table.
func TestOrderOnlyScanMatchesSeqScan(t *testing.T) {
	db, _ := orderedScanFixture(t)
	defer db.Close()
	queries := []struct {
		sql  string
		args []any
	}{
		{`SELECT id, state FROM jobs ORDER BY id LIMIT ?`, []any{7}},
		{`SELECT id, state FROM jobs ORDER BY id DESC LIMIT ? OFFSET ?`, []any{7, 5}},
		{`SELECT id FROM jobs WHERE priority = 0.3 ORDER BY id LIMIT ? OFFSET ?`, []any{4, 3}},
		{`SELECT id FROM jobs WHERE priority = 0.3 ORDER BY id DESC LIMIT ?`, []any{1000}},
		{`SELECT id FROM jobs WHERE priority = 9.9 ORDER BY id LIMIT ?`, []any{3}},
		{`SELECT id, state FROM jobs ORDER BY state, id LIMIT ? OFFSET ?`, []any{9, 130}},
		{`SELECT id FROM jobs ORDER BY state, priority DESC, id LIMIT ? OFFSET ?`, []any{20, 60}},
		{`SELECT id FROM jobs ORDER BY state DESC, priority DESC, id DESC LIMIT ?`, []any{15}},
		{`SELECT id FROM jobs ORDER BY id LIMIT ?`, []any{0}},
		{`SELECT id FROM jobs ORDER BY id LIMIT ?`, []any{1000}},
	}
	for _, qu := range queries {
		want, err := refQuery(db, qu.sql, qu.args...)
		if err != nil {
			t.Fatal(err)
		}
		for _, readOnly := range []bool{true, false} {
			got := func() *Rows {
				tx, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: readOnly})
				if err != nil {
					t.Fatal(err)
				}
				defer tx.Rollback()
				plan, err := tx.Query("EXPLAIN "+qu.sql, qu.args...)
				if err != nil {
					t.Fatal(err)
				}
				if access := plan.Data[0][1].Text(); !strings.HasPrefix(access, "INDEX SCAN") {
					t.Fatalf("%s (read-only %v): access %q", qu.sql, readOnly, access)
				}
				got, err := tx.Query(qu.sql, qu.args...)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}()
			if d := diffRows(got, want, true); d != "" {
				t.Errorf("%s %v (read-only %v): %s", qu.sql, qu.args, readOnly, d)
			}
		}
	}
}

// TestOrderedScanAliasShadowNotUsed: an output alias shadowing a column
// name makes ORDER BY sort by the output expression; the ordered-scan
// early exit must not kick in (it would truncate the scan at the wrong
// end). Regression test for a review finding.
func TestOrderedScanAliasShadowNotUsed(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, state INTEGER NOT NULL, priority INTEGER NOT NULL)`)
	mustExec(t, db, `CREATE INDEX t_sp ON t (state, priority)`)
	for i := int64(1); i <= 10; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 1, ?)`, i, i)
	}
	// ORDER BY priority binds to the alias (0 - priority), so ascending
	// alias order is descending column order.
	rows := mustQuery(t, db, `SELECT 0 - priority AS priority FROM t WHERE state = 1 ORDER BY priority LIMIT 2`)
	if rows.Len() != 2 || rows.Data[0][0].Int64() != -10 || rows.Data[1][0].Int64() != -9 {
		t.Fatalf("alias-shadowed ORDER BY = %v, want [-10, -9]", rows.Data)
	}
}

// TestOrderedScanDoesNotBeatSelectiveIndex: order provision is only a
// tie-break; an equality predicate on a different index must still win,
// keeping the plan on the selective access path. Regression test for a
// review finding.
func TestOrderedScanDoesNotBeatSelectiveIndex(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY, state TEXT NOT NULL, priority FLOAT NOT NULL, depends_on INTEGER)`)
	mustExec(t, db, `CREATE INDEX jobs_sp ON jobs (state, priority, id)`)
	mustExec(t, db, `CREATE INDEX jobs_depends ON jobs (depends_on)`)
	for i := int64(1); i <= 50; i++ {
		mustExec(t, db, `INSERT INTO jobs VALUES (?, 'idle', ?, ?)`, i, float64(i), i%7)
	}
	rows := mustQuery(t, db, `EXPLAIN SELECT id FROM jobs WHERE depends_on = 3 ORDER BY state, priority, id`)
	access := rows.Data[0][1].Text()
	if !strings.Contains(access, "jobs_depends") {
		t.Fatalf("access = %q, want the selective jobs_depends index", access)
	}
	// And the results are still correct.
	res := mustQuery(t, db, `SELECT id FROM jobs WHERE depends_on = 3 ORDER BY state, priority, id`)
	var want []int64
	for i := int64(1); i <= 50; i++ {
		if i%7 == 3 {
			want = append(want, i)
		}
	}
	if res.Len() != len(want) {
		t.Fatalf("got %d rows, want %d", res.Len(), len(want))
	}
	for i, r := range res.Data {
		if r[0].Int64() != want[i] {
			t.Fatalf("row %d = %d, want %d", i, r[0].Int64(), want[i])
		}
	}
}

// TestOrderedScansCrossConcurrentLeafSplits runs windowed ordered scans
// over an index of long keys that share long prefixes — a forward walk,
// and a grouped walk (ORDER BY label DESC, id, which a LIMIT makes worth
// stopping early) — in read-only snapshots
// while a writer inserts and deletes rows under the same index, splitting,
// repacking and merging its leaves between the scans' windows. The scans'
// cursor keys are their own copies, never views of a leaf, so each scan
// returns exactly what a full scan of its snapshot holds, sorted.
func TestOrderedScansCrossConcurrentLeafSplits(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE items (id INTEGER PRIMARY KEY, state TEXT NOT NULL, label TEXT NOT NULL)`)
	mustExec(t, db, `CREATE INDEX items_sl ON items (state, label, id)`)
	label := func(id int64) string {
		return strings.Repeat("l", 40+int(id%5)*30) + fmt.Sprintf("%02d", id%37)
	}
	const rows = 1200
	for id := int64(1); id <= rows; id++ {
		mustExec(t, db, `INSERT INTO items VALUES (?, 'open', ?)`, id, label(id))
	}
	for _, c := range []struct{ order, plan string }{
		{"label, id", " ORDER"},
		{"label DESC, id", " ORDER REVERSE BY label"},
	} {
		ex := mustQuery(t, db, `EXPLAIN SELECT id FROM items WHERE state = 'open' ORDER BY `+c.order+` LIMIT 100000`)
		if access := ex.Data[0][1].Text(); !strings.Contains(access, "items_sl") || !strings.HasSuffix(access, c.plan) {
			t.Fatalf("ORDER BY %s: access %q, want an items_sl scan ending %q", c.order, access, c.plan)
		}
	}
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(3))
		next := int64(rows + 1)
		for {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			tx, err := db.Begin()
			if err != nil {
				writerDone <- err
				return
			}
			for range 40 {
				if _, err = tx.Exec(`INSERT INTO items VALUES (?, 'open', ?)`, next, label(next)); err != nil {
					break
				}
				next++
			}
			if err == nil {
				lo := rng.Int63n(next)
				_, err = tx.Exec(`DELETE FROM items WHERE id >= ? AND id < ?`, lo, lo+40)
			}
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Rollback()
			}
			if err != nil {
				writerDone <- err
				return
			}
		}
	}()
	for round := 0; round < 12; round++ {
		tx, err := db.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		all, err := tx.Query(`SELECT id, label, state FROM items`)
		if err != nil {
			t.Fatal(err)
		}
		type item struct {
			id    int64
			label string
		}
		var open []item
		for _, r := range all.Data {
			if r[2].Text() == "open" {
				open = append(open, item{r[0].Int64(), r[1].Text()})
			}
		}
		for _, desc := range []bool{false, true} {
			order := "label, id"
			if desc {
				order = "label DESC, id"
			}
			got, err := tx.Query(`SELECT id FROM items WHERE state = 'open' ORDER BY ` + order + ` LIMIT 100000`)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(open, func(a, b int) bool {
				if open[a].label != open[b].label {
					return (open[a].label < open[b].label) != desc
				}
				return open[a].id < open[b].id
			})
			if got.Len() != len(open) {
				t.Fatalf("round %d, ORDER BY %s: %d rows, the snapshot holds %d", round, order, got.Len(), len(open))
			}
			for i, r := range got.Data {
				if r[0].Int64() != open[i].id {
					t.Fatalf("round %d, ORDER BY %s: row %d is %d, want %d", round, order, i, r[0].Int64(), open[i].id)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
}
