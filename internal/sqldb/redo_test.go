package sqldb

// Differential test of the redo against the transaction path. A seeded
// random history of DML, transactions (committed and rolled back) and DDL
// runs on a leader — statements, unique checks, the lock manager, rollback
// — while its committed groups are collected as a follower
// would receive them. Then the same groups go through the redo twice: a
// reopen from the leader's crash image (Open → redoLog, over a page image
// when the leader is paged and checkpointed at random points), and an empty
// follower that applies the shipped runs and promotes. The three engines
// must describe the same database. This is "follower equals leader at equal
// LSN" stated once, for recovery too.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tableState is everything about one table that a restart or a promotion
// must reproduce.
type tableState struct {
	id       uint32              // the permanent id the log names the table by
	ddl      []string            // the table's DDL, then its indexes' in name order
	rows     map[int64]string    // rid → row
	entries  map[string][]string // index → the entries a fresh snapshot emits, sorted
	liveRows int64
	autoHigh int64
	// holes are the free rids below the highest live one. Free slots past
	// it are representation, not state: a slot that only a rolled-back
	// insert or a since-reclaimed row ever touched exists on the engine
	// that ran the history and not on one that rebuilt from a page image,
	// and either way the next insert may take it.
	holes []int64
}

// engineState reads db's tables at quiescence. It also checks what each
// engine owes itself: liveRows counts the live rows, every index holds
// exactly one reachable entry per live row, and the free list is exactly
// the empty slots.
func engineState(t *testing.T, who string, db *DB) map[string]tableState {
	t.Helper()
	out := make(map[string]tableState)
	snap := db.clock.Load()
	for name, tbl := range db.cat.Load().byName {
		st := tableState{
			id:       tbl.tableID,
			ddl:      []string{tbl.schema.DDL()},
			rows:     make(map[int64]string),
			entries:  make(map[string][]string),
			liveRows: tbl.liveRows.Load(),
			autoHigh: tbl.autoHigh.Load(),
		}
		tbl.latch.RLock()
		var empty []int64
		for rid := range tbl.rows.n {
			s := tbl.rows.at(rid)
			if row := tbl.resolve(s.visibleVersion(snap)); row != noRow {
				st.rows[rid] = canonValues(row.values())
				st.holes = append(st.holes, empty[len(st.holes):]...)
			} else if s.head.Load() == nil && s.loadBase() == 0 {
				empty = append(empty, rid)
			} else {
				t.Errorf("%s: %s slot %d holds versions but no live row after the GC drained", who, name, rid)
			}
		}
		if int64(len(st.rows)) != st.liveRows {
			t.Errorf("%s: %s liveRows = %d, heap holds %d live rows", who, name, st.liveRows, len(st.rows))
		}
		free := append([]int64(nil), tbl.free...)
		sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
		if !reflect.DeepEqual(free, empty) && (len(free) > 0 || len(empty) > 0) {
			t.Errorf("%s: %s free list %v, empty slots %v", who, name, free, empty)
		}
		for _, ix := range tbl.indexes {
			st.ddl = append(st.ddl, ix.schema.DDL())
			ents := []string{}
			var kb []byte
			ix.tree.scanRange("", "", &kb, func(k string, rid int64) bool {
				if row := tbl.resolve(tbl.rows.at(rid).visibleVersion(snap)); row != noRow && ix.entryMatches(k, row, rid) {
					ents = append(ents, canonValues(append(ix.keyValues(row), NewInt(rid))))
				}
				return true
			})
			if len(ents) != len(st.rows) {
				t.Errorf("%s: index %s reaches %d rows of %s, %d are live", who, ix.schema.Name, len(ents), name, len(st.rows))
			}
			sort.Strings(ents)
			st.entries[ix.schema.Name] = ents
		}
		tbl.latch.RUnlock()
		sort.Strings(st.ddl[1:])
		out[name] = st
	}
	return out
}

// redoHistory drives one seeded history on the leader and collects the
// groups it commits.
type redoHistory struct {
	t       *testing.T
	rng     *rand.Rand
	db      *DB
	tables  []string
	dropped []string // names free for a CREATE TABLE to take again
	made    int      // names ever made
	script  []string
	shipped []byte // every group committed, as a run
	last    uint64 // the LSN of shipped's last group
}

func (h *redoHistory) fail(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s\nhistory:\n  %s", fmt.Sprintf(format, args...), strings.Join(h.script, "\n  "))
}

// collect drains the leader's newly committed groups, as a shipping loop
// would; called after every step, so a checkpoint's truncation never gets
// ahead of the follower.
func (h *redoHistory) collect() {
	run, _, err := h.db.CommittedSince(h.last, 0)
	if err != nil {
		h.fail("CommittedSince(%d): %v", h.last, err)
	}
	if gs := readGroups(run); len(gs) > 0 {
		h.shipped, h.last = append(h.shipped, run...), gs[len(gs)-1].lsn
	}
}

type execer interface {
	Exec(sql string, args ...any) (Result, error)
}

// run executes one statement. A unique violation is part of a random
// history; anything else is a defect.
func (h *redoHistory) run(on execer, sql string) error {
	h.script = append(h.script, sql)
	_, err := on.Exec(sql)
	var uv *UniqueViolationError
	if err != nil && !errors.As(err, &uv) {
		h.fail("%q: %v", sql, err)
	}
	return err
}

func (h *redoHistory) table() string { return h.tables[h.rng.Intn(len(h.tables))] }

// createTable creates a table under a new name, or under a dropped one:
// the log names a table by its id, so the redo must tell the table a name
// held before from the one holding it now.
func (h *redoHistory) createTable() {
	var name string
	if n := len(h.dropped); n > 0 && h.rng.Intn(2) == 0 {
		name, h.dropped = h.dropped[n-1], h.dropped[:n-1]
	} else {
		name = fmt.Sprintf("t%d", h.made)
		h.made++
	}
	var defs []string
	for ci, c := range fuzzCols {
		d := c.name + " " + c.typ
		if ci == 0 && h.rng.Intn(3) > 0 {
			d += " PRIMARY KEY AUTOINCREMENT"
		}
		defs = append(defs, d)
	}
	h.run(h.db, fmt.Sprintf("CREATE TABLE %s (%s)", name, strings.Join(defs, ", ")))
	h.tables = append(h.tables, name)
}

// dml builds one random INSERT, UPDATE or DELETE from joinfuzz's row
// generators; key columns change as often as the others.
func (h *redoHistory) dml() string {
	rng, tn := h.rng, h.table()
	where := func() string {
		col := []string{"id", "id", "a", "b"}[rng.Intn(4)]
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("%s <= %d", col, rng.Intn(8))
		}
		return fmt.Sprintf("%s = %d", col, rng.Intn(12))
	}
	switch n := rng.Intn(10); {
	case n < 5:
		if rng.Intn(2) == 0 { // the table assigns the id, where it can
			return fmt.Sprintf("INSERT INTO %s (a, b, s, f) VALUES (%s, %s, %s, %s)",
				tn, fuzzIntLit(rng), fuzzIntLit(rng), fuzzTextLit(rng), fuzzFloatLit(rng))
		}
		return fmt.Sprintf("INSERT INTO %s VALUES (%d, %s, %s, %s, %s)",
			tn, 1+rng.Intn(40), fuzzIntLit(rng), fuzzIntLit(rng), fuzzTextLit(rng), fuzzFloatLit(rng))
	case n < 8:
		set := []string{
			"a = " + fuzzIntLit(rng), "b = " + fuzzIntLit(rng), "s = " + fuzzTextLit(rng),
			"f = " + fuzzFloatLit(rng), "a = b, b = a", fmt.Sprintf("id = id + %d", 20+rng.Intn(20)),
		}[rng.Intn(6)]
		return fmt.Sprintf("UPDATE %s SET %s WHERE %s", tn, set, where())
	default:
		return fmt.Sprintf("DELETE FROM %s WHERE %s", tn, where())
	}
}

func (h *redoHistory) ddl() {
	rng := h.rng
	switch rng.Intn(5) {
	case 0:
		h.createTable()
	case 1:
		if len(h.tables) > 1 {
			i := rng.Intn(len(h.tables))
			h.run(h.db, "DROP TABLE "+h.tables[i])
			h.dropped = append(h.dropped, h.tables[i])
			h.tables = append(h.tables[:i], h.tables[i+1:]...)
		}
	case 2, 3:
		tn := h.table()
		cols := [][]string{{"a"}, {"b"}, {"s"}, {"a", "b"}, {"s", "a"}, {"f"}}[rng.Intn(6)]
		unique := ""
		if rng.Intn(4) == 0 {
			unique = "UNIQUE "
		}
		h.run(h.db, fmt.Sprintf("CREATE %sINDEX IF NOT EXISTS ix_%s_%d ON %s (%s)",
			unique, tn, rng.Intn(3), tn, strings.Join(cols, ", ")))
	default:
		h.run(h.db, fmt.Sprintf("DROP INDEX IF EXISTS ix_%s_%d", h.table(), rng.Intn(3)))
	}
}

// step runs one unit of history: a statement, a multi-statement
// transaction that commits or rolls back, a DDL, or a checkpoint.
func (h *redoHistory) step(checkpoints bool) {
	switch n := h.rng.Intn(20); {
	case n < 12:
		h.run(h.db, h.dml())
	case n < 16:
		tx, err := h.db.Begin()
		if err != nil {
			h.fail("Begin: %v", err)
		}
		h.script = append(h.script, "BEGIN")
		failed := false
		for i := 2 + h.rng.Intn(4); i > 0 && !failed; i-- {
			failed = h.run(tx, h.dml()) != nil
		}
		if failed || h.rng.Intn(3) == 0 {
			h.script = append(h.script, "ROLLBACK")
			err = tx.Rollback()
		} else {
			h.script = append(h.script, "COMMIT")
			err = tx.Commit()
		}
		if err != nil {
			h.fail("ending transaction: %v", err)
		}
	case n < 19 || !checkpoints:
		h.ddl()
	default:
		h.script = append(h.script, "-- checkpoint")
		if err := h.db.Checkpoint(); err != nil {
			h.fail("Checkpoint: %v", err)
		}
	}
	h.collect()
}

func TestRedoMatchesLeader(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for _, paged := range []bool{false, true} {
		for seed := 1; seed <= seeds; seed++ {
			kind := "log-only"
			if paged {
				kind = "paged"
			}
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				runRedoCase(t, int64(seed), paged)
			})
		}
	}
}

func runRedoCase(t *testing.T, seed int64, paged bool) {
	open := func(vfs VFS) *DB {
		opts := Options{VFS: vfs, Path: "redo.wal"}
		if paged {
			// A pool this small evicts constantly, so the page file runs
			// ahead of every checkpoint: the image holds effects of the
			// tail the reopen then redoes over it.
			opts.PoolPages, opts.PageSize = 4, 1024
		}
		db, err := Open(opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return db
	}
	vfs := NewMemVFS()
	h := &redoHistory{t: t, rng: rand.New(rand.NewSource(seed)), db: open(vfs)}
	h.createTable()
	h.createTable()
	h.collect()
	for i := 0; i < 150; i++ {
		h.step(paged)
	}

	leader := h.db
	leader.Vacuum()
	// The state includes each table's autoincrement mark: the largest value
	// a committed write stored, which every redo must reach from the log —
	// the leader's own, though a delete removed the row holding it.
	want := engineState(t, "leader", leader)

	// (a) The crash image: the leader is abandoned, not closed.
	reopened := open(vfs)
	defer reopened.Close()
	// (b) The shipped groups, in runs as a shipping loop delivers them.
	follower := open(NewMemVFS())
	defer follower.Close()
	for rest := readGroups(h.shipped); len(rest) > 0; {
		n := 1 + h.rng.Intn(8)
		if n > len(rest) {
			n = len(rest)
		}
		if err := follower.ApplyCommitted(h.shipped[rest[0].start:rest[n-1].end]); err != nil {
			h.fail("ApplyCommitted: %v", err)
		}
		rest = rest[n:]
	}
	follower.RebuildAfterReplication()

	for who, db := range map[string]*DB{"reopened": reopened, "promoted follower": follower} {
		got := engineState(t, who, db)
		if len(got) != len(want) {
			h.fail("%s has %d tables, the leader %d", who, len(got), len(want))
		}
		for name, w := range want {
			if g := got[name]; !reflect.DeepEqual(g, w) {
				h.fail("%s: table %s differs from the leader\n got: %+v\nwant: %+v", who, name, g, w)
			}
		}
		if db.AppliedLSN() != leader.DurableLSN() {
			h.fail("%s applied through lsn %d, the leader's log ends at %d", who, db.AppliedLSN(), leader.DurableLSN())
		}
	}
}

// TestRedoDropRecreateSameName: a table dropped and created again under its
// name is a second table with an id of its own, and the log names each by
// that id. Every redo must give the second t exactly its own rows, never
// the first one's: a reopen that redoes the whole log, a paged store
// redoing its tail over a checkpoint taken between the DROP and the second
// CREATE, and a follower applying the shipped groups.
func TestRedoDropRecreateSameName(t *testing.T) {
	const first, second = uint32(1), uint32(2)
	history := func(t *testing.T, db *DB, between func()) {
		t.Helper()
		mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
		for k := 1; k <= 5; k++ {
			mustExec(t, db, `INSERT INTO t VALUES (?, 'first')`, k)
		}
		mustExec(t, db, `DROP TABLE t`)
		between()
		mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT, n INTEGER)`)
		for k := 3; k <= 4; k++ {
			mustExec(t, db, `INSERT INTO t VALUES (?, 'second', ?)`, k, 10*k)
		}
	}
	check := func(t *testing.T, who string, db *DB) {
		t.Helper()
		rows := mustQuery(t, db, `SELECT k, v, n FROM t ORDER BY k`)
		if got := fmt.Sprint(rows.Data); got != "[[3 'second' 30] [4 'second' 40]]" {
			t.Fatalf("%s: t holds %s, want the second table's two rows", who, got)
		}
		tbl, err := db.lookupTable("t")
		if err != nil {
			t.Fatal(err)
		}
		if tbl.tableID != second || db.tableByID(uint64(first)) != nil {
			t.Fatalf("%s: t has id %d (want %d), and id %d resolves to %v", who, tbl.tableID, second, first, db.tableByID(uint64(first)))
		}
		if tbl.heap != nil && tbl.heap.tableID != second {
			t.Fatalf("%s: t's page heap carries id %d, want %d", who, tbl.heap.tableID, second)
		}
	}

	t.Run("whole log", func(t *testing.T) {
		vfs := NewMemVFS()
		history(t, openVFS(t, vfs), func() {}) // abandoned: a crash
		reopened := openVFS(t, vfs)
		defer reopened.Close()
		check(t, "reopened", reopened)
	})

	t.Run("tail over a checkpoint", func(t *testing.T) {
		vfs := NewMemVFS()
		db := openPaged(t, vfs)
		var whole []byte // the log before the checkpoint cut it
		history(t, db, func() {
			whole, _ = vfs.ReadFile("test.db")
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}) // abandoned: a crash
		tail, _ := vfs.ReadFile("test.db")
		if g := readGroups(tail); len(g) != 3 || g[0].recs[0].op != walDDL || g[0].recs[0].tableID != uint64(second) {
			t.Fatalf("the tail above the checkpoint is %d groups, want the second CREATE and its two inserts", len(g))
		}
		reopened := openPaged(t, vfs)
		check(t, "reopened", reopened)
		reopened.Close()

		// A checkpoint snapshots the catalog after it fixes its LSN, so its
		// meta can be newer than the log it keeps: here the meta holds no t
		// while the tail still starts with the first t's inserts and DROP.
		// The redo skips the records of the table id the catalog lost and
		// puts none of them into the t it creates after.
		m, err := readPagedMeta(vfs, "test.db")
		if err != nil || m == nil {
			t.Fatalf("meta: %v", err)
		}
		if len(m.tables) != 1 || m.tables[0].tableID != second {
			t.Fatalf("the reopened store's meta holds %+v, want t under id %d", m.tables, second)
		}
		m.gen++
		m.tables, m.nextTableID, m.ckptLSN = nil, first, 1 // through the first CREATE
		a, b := metaPaths("test.db")
		for _, name := range []string{a, b} {
			f, _ := vfs.Create(name)
			f.Write(encodeMeta(m))
		}
		for _, name := range []string{"test.db.pages", "test.db.dwb"} {
			vfs.Remove(name)
		}
		f, _ := vfs.Create("test.db")
		f.Write(whole)
		f.Write(tail)
		rewound := openPaged(t, vfs)
		defer rewound.Close()
		check(t, "rewound", rewound)
	})

	t.Run("follower", func(t *testing.T) {
		leader := openVFS(t, NewMemVFS())
		defer leader.Close()
		history(t, leader, func() {})
		shipped, _, err := leader.CommittedSince(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		follower := openPaged(t, NewMemVFS())
		defer follower.Close()
		if err := follower.ApplyCommitted(shipped); err != nil {
			t.Fatal(err)
		}
		check(t, "leader", leader)
		check(t, "follower", follower)
	})
}

// TestRedoNeverReissuesAutoIncrement: an AUTOINCREMENT id a committed write
// stored is never issued again, though no row holds it any longer — not by
// the leader, not after a crash or a clean reopen of either store kind, and
// not by a promoted follower. A job's id names it in job_history and in a
// stored submit reply; a reissued one would name two jobs. The counter is a
// high-water mark that the redo and the checkpoint meta carry, not one past
// the largest live value.
func TestRedoNeverReissuesAutoIncrement(t *testing.T) {
	// Ids 1–3 are issued, 2 moves to 10, and everything above 1 is deleted:
	// the next id is 11.
	history := func(t *testing.T, db *DB) {
		t.Helper()
		mustExec(t, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY AUTOINCREMENT, owner TEXT)`)
		for i := 0; i < 3; i++ {
			mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('alice')`)
		}
		mustExec(t, db, `UPDATE jobs SET id = 10 WHERE id = 2`)
		mustExec(t, db, `DELETE FROM jobs WHERE id > 1`)
	}
	next := func(t *testing.T, who string, db *DB) {
		t.Helper()
		if id := mustExec(t, db, `INSERT INTO jobs (owner) VALUES ('bob')`).LastInsertID; id != 11 {
			t.Errorf("%s: the next job got id %d, want 11", who, id)
		}
	}
	open := func(t *testing.T, vfs VFS, pool int) *DB {
		t.Helper()
		db, err := Open(Options{VFS: vfs, Path: "test.db", PoolPages: pool})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return db
	}

	leader := New()
	history(t, leader)
	next(t, "leader", leader)

	for _, pool := range []int{0, 8} {
		kind := "log-only"
		if pool > 0 {
			kind = "paged"
		}
		for _, end := range []string{"crash", "checkpoint and crash", "close"} {
			if pool == 0 && end == "checkpoint and crash" {
				continue
			}
			t.Run(kind+"/"+end, func(t *testing.T) {
				vfs := NewMemVFS()
				db := open(t, vfs, pool)
				history(t, db)
				switch end {
				case "checkpoint and crash":
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case "close":
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
				}
				reopened := open(t, vfs, pool)
				defer reopened.Close()
				next(t, "reopened", reopened)
			})
		}
	}

	t.Run("promoted follower", func(t *testing.T) {
		leader := openVFS(t, NewMemVFS())
		defer leader.Close()
		history(t, leader)
		shipped, _, err := leader.CommittedSince(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		follower := openVFS(t, NewMemVFS())
		defer follower.Close()
		if err := follower.ApplyCommitted(shipped); err != nil {
			t.Fatal(err)
		}
		follower.RebuildAfterReplication()
		next(t, "promoted follower", follower)
	})
}
