package sqldb

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// The read path's two claims — a SELECT reads no more than it returns
// where an index orders it, and what it returns is exactly what sorting
// everything would — are held here, the second against refQuery, the
// oracle that sorts everything.

// topKEngines opens the engines the differential runs on: in memory, and
// paged on a 4-frame pool where every statement evicts.
func topKEngines(t *testing.T) map[string]func() *DB {
	return map[string]func() *DB{
		"memory": New,
		"paged-4": func() *DB {
			db, err := Open(Options{VFS: NewMemVFS(), Path: "topk.db", PoolPages: 4, PageSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
	}
}

// topKFixture loads the same rows into db: t, 480 rows in two g partitions
// with heavy ties on a (NULL among its values) and b; u and v, the join
// partners. indexed adds the secondary indexes whose order the planner may
// ride; without them every ORDER BY is a scan and a sort.
func topKFixture(t *testing.T, db *DB, indexed bool) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, g TEXT NOT NULL, a INTEGER, b INTEGER NOT NULL, c TEXT NOT NULL)`)
	mustExec(t, db, `CREATE TABLE u (k INTEGER PRIMARY KEY, name TEXT NOT NULL)`)
	mustExec(t, db, `CREATE TABLE v (id INTEGER PRIMARY KEY, k INTEGER NOT NULL, w INTEGER NOT NULL)`)
	if indexed {
		mustExec(t, db, `CREATE INDEX t_gab ON t (g, a, b)`)
		mustExec(t, db, `CREATE INDEX t_gabi ON t (g, b, a, id)`)
		mustExec(t, db, `CREATE INDEX v_k ON v (k, w)`)
	}
	for i := int64(1); i <= 480; i++ {
		g := "x"
		if i%4 == 0 {
			g = "y"
		}
		var a any = (i * 7) % 9 // nine values, NULL for one of them
		if (i*7)%9 == 4 {
			a = nil
		}
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?, ?, ?)`, i, g, a, (i*13)%5, fmt.Sprintf("c%03d", (i*31)%97))
	}
	for k := int64(0); k < 7; k++ { // a = 7, 8 and NULL find no partner
		mustExec(t, db, `INSERT INTO u VALUES (?, ?)`, k, fmt.Sprintf("name-%d", (k*3)%7))
	}
	for i := int64(1); i <= 12; i++ {
		mustExec(t, db, `INSERT INTO v VALUES (?, ?, ?)`, i, i%4, (i*5)%6)
	}
}

// topKShape is one statement of the differential: the SELECT up to its
// ORDER BY, and the ORDER BY. Every order ends on a unique key, so the
// answer is one sequence.
type topKShape struct {
	name, sel, orderBy string
	// access, when set, is what EXPLAIN must show on the indexed engine in
	// a snapshot read, so the shape is known to test the path it is here for.
	access string
}

var topKShapes = []topKShape{
	{name: "grouped: a DESC, b over (g, a, b), rid ties ascending",
		sel: `SELECT id, a, b FROM t WHERE g = 'x'`, orderBy: `a DESC, b, id`, access: "INDEX SCAN USING t_gab (g = 'x') ORDER REVERSE BY a"},
	{name: "grouped in full: b DESC, a, id over (g, b, a, id)",
		sel: `SELECT id, a, b, c FROM t WHERE g = 'y'`, orderBy: `b DESC, a, id`, access: "INDEX SCAN USING t_gabi (g = 'y') ORDER REVERSE BY b"},
	{name: "mirror: a, b DESC keeps one ordered item",
		sel: `SELECT id, a, b FROM t WHERE g = 'x'`, orderBy: `a, b DESC, id`, access: "INDEX SCAN USING t_gab (g = 'x') ORDER"},
	{name: "range bound on the grouped column",
		sel: `SELECT id, a, b FROM t WHERE g = 'x' AND a >= 2 AND a < 7`, orderBy: `a DESC, b, id`, access: "INDEX SCAN USING t_gab (g = 'x', a >= 2, a < 7) ORDER REVERSE"},
	{name: "one direction, reverse",
		sel: `SELECT id, a, b FROM t WHERE g = 'y'`, orderBy: `b DESC, a DESC, id DESC`, access: "INDEX SCAN USING t_gabi (g = 'y') ORDER REVERSE"},
	{name: "order-only on the primary key",
		sel: `SELECT id, c FROM t`, orderBy: `id DESC`, access: "INDEX SCAN USING pk_t () ORDER REVERSE"},
	{name: "no path orders it: the heap alone",
		sel: `SELECT c, id FROM t WHERE g = 'x'`, orderBy: `c DESC, id`},
	{name: "expression outputs on the grouped path",
		sel: `SELECT id, a, b, a + b, b * 2 FROM t WHERE g = 'x'`, orderBy: `a DESC, b, id`, access: "INDEX SCAN USING t_gab (g = 'x') ORDER REVERSE BY a"},
	{name: "ordered by an output alias and an ordinal",
		sel: `SELECT id, b - a AS d FROM t WHERE g = 'y'`, orderBy: `d DESC, 1`},
	{name: "three-table join",
		sel:     `SELECT t.id, t.a, u.name, v.w, v.id FROM t JOIN u ON u.k = t.b JOIN v ON v.k = u.k WHERE t.g = 'y'`,
		orderBy: `t.a DESC, v.w, t.id, v.id`},
	{name: "LEFT JOIN ordered by the padded side",
		sel: `SELECT t.id, u.name, u.k FROM t LEFT JOIN u ON u.k = t.a WHERE t.g = 'x'`, orderBy: `u.name DESC, t.id`},
}

// TestTopKOrderedDifferential runs every shape at every LIMIT and OFFSET,
// as a snapshot read and as a locking read, on both engines, with and
// without the indexes — and requires the oracle's rows each time.
func TestTopKOrderedDifferential(t *testing.T) {
	limits := []int{0, 1, 5, 37, 300, 5000}
	offsets := []int{0, 3, 200}
	for engine, open := range topKEngines(t) {
		for _, indexed := range []bool{true, false} {
			db := open()
			topKFixture(t, db, indexed)
			for _, sh := range topKShapes {
				if n := mustQuery(t, db, sh.sel).Len(); n < 50 {
					t.Fatalf("%s: the fixture gives the shape only %d rows", sh.name, n)
				}
				sql := sh.sel + ` ORDER BY ` + sh.orderBy + ` LIMIT ? OFFSET ?`
				want := make(map[[2]int]*Rows)
				for _, limit := range limits {
					for _, offset := range offsets {
						w, err := refQuery(db, sql, limit, offset)
						if err != nil {
							t.Fatalf("%s LIMIT %d OFFSET %d: oracle: %v", sh.name, limit, offset, err)
						}
						want[[2]int{limit, offset}] = w
					}
				}
				if indexed && sh.access != "" {
					plan := mustQuery(t, db, `EXPLAIN `+sql, 5, 0)
					if got := strings.TrimSuffix(plan.Data[0][1].Text(), " [CACHED]"); got != sh.access {
						t.Errorf("%s: access %q, want %q", sh.name, got, sh.access)
					}
				}
				for _, locking := range []bool{false, true} {
					tx, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: !locking})
					if err != nil {
						t.Fatal(err)
					}
					for _, limit := range limits {
						for _, offset := range offsets {
							got, err := tx.Query(sql, limit, offset)
							if err != nil {
								t.Fatalf("%s LIMIT %d OFFSET %d: %v", sh.name, limit, offset, err)
							}
							if d := diffRows(got, want[[2]int{limit, offset}], true); d != "" {
								t.Fatalf("%s, indexed %v, locking %v, %s, LIMIT %d OFFSET %d: %s",
									sh.name, indexed, locking, engine, limit, offset, d)
							}
						}
					}
					tx.Rollback()
				}
			}
			db.Close()
		}
	}
}

// TestTopKReadsWhatItReturns: where the access path orders the statement
// in full, the scan reads LIMIT + OFFSET + 1 entries, however many rows tie
// on the leading key — and a locking read locks those and no others; where
// it orders a prefix, through the last tie on it; LIMIT 0 reads nothing.
func TestTopKReadsWhatItReturns(t *testing.T) {
	db := New()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY, state TEXT NOT NULL, priority FLOAT NOT NULL, owner TEXT NOT NULL)`)
	mustExec(t, db, `CREATE INDEX jobs_sp ON jobs (state, priority, id)`)
	for i := int64(1); i <= 3000; i++ {
		mustExec(t, db, `INSERT INTO jobs VALUES (?, 'idle', 0.5, ?)`, i, fmt.Sprintf("u%d", i%3))
	}
	var scanned int
	db.SetStatsHook(func(s StmtStats) {
		if s.Kind == "SELECT" {
			scanned = s.RowsScanned
		}
	})
	for _, c := range []struct {
		sql         string
		args        []any
		rows, reads int
		first       int64
	}{
		{`SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority DESC, id LIMIT ?`, []any{10}, 10, 11, 1},
		{`SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority DESC, id LIMIT ? OFFSET ?`, []any{10, 25}, 10, 36, 26},
		// Past one scan batch (256 entries) the read is in whole batches.
		{`SELECT id, owner FROM jobs WHERE state = 'idle' ORDER BY priority DESC, id LIMIT ?`, []any{400}, 400, 512, 1},
		{`SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority DESC, id LIMIT ?`, []any{0}, 0, 0, 0},
		// The mirror shape orders one item: every row ties on it, all are read.
		{`SELECT id FROM jobs WHERE state = 'idle' ORDER BY priority, id DESC LIMIT ?`, []any{10}, 10, 3000, 3000},
	} {
		for _, locking := range []bool{false, true} {
			tx, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: !locking})
			if err != nil {
				t.Fatal(err)
			}
			scanned = -1
			rows, err := tx.Query(c.sql, c.args...)
			if err != nil {
				t.Fatal(err)
			}
			first := int64(0)
			if rows.Len() > 0 {
				first = rows.Data[0][0].Int64()
			}
			if rows.Len() != c.rows || first != c.first {
				t.Errorf("%s %v (locking %v): %d rows from id %d, want %d from id %d", c.sql, c.args, locking, rows.Len(), first, c.rows, c.first)
			}
			if scanned != c.reads {
				t.Errorf("%s %v (locking %v): scanned %d entries, want %d", c.sql, c.args, locking, scanned, c.reads)
			}
			if held := db.LockStats().HeldRow; locking && held != int64(c.reads) {
				t.Errorf("%s %v: %d row locks held, want one per entry read (%d)", c.sql, c.args, held, c.reads)
			}
			tx.Rollback()
		}
	}
}
