//go:build !race

package beans

// Under the race detector sync.Pool drops a share of what is put back, so
// allocation counts there say nothing about the mapping layer.

import (
	"context"
	"database/sql"
	"runtime"
	"testing"

	"condorj2/internal/sqldb"
)

// Slot is the heartbeat's VM tuple: read four at a time by Select, one at
// a time by Find, written back by Update.
type Slot struct {
	ID       int64  `bean:"id,pk,auto"`
	Machine  string `bean:"machine"`
	Seq      int64  `bean:"seq"`
	State    string `bean:"state"`
	MemoryMB int64  `bean:"memory_mb"`
}

// TestBeanAllocs budgets what Find, Update, Select and Each cost over an
// in-memory engine, inside one container transaction each — the engine's
// statement path included — on both transports.
//
// Through database/sql, each budget records what the call measured before
// bean SQL was compiled per Meta, args were sized exactly and scan targets
// were allocated once per call (and before the engine below borrowed its
// working memory) → after; a third figure is after the targets became the
// Meta's to lend and rows were visited through one entity. What remains is
// mostly database/sql's: per statement its Rows, NamedValue slice and
// context, per cell the driver.Value box — so the budgets leave a few
// allocations for a toolchain whose database/sql differs.
//
// On the engine's own transactions (Engine.InTx) a call's arguments are
// bound into pooled engine values and its result read in place, in the
// Rows and the row references the transaction lends it, so what is left
// is the engine's: the Tx, an UPDATE's row image and version and the
// commit — and, for Select and Each, the statement text, the entity and
// the slice they hand back. Each native budget is its measurement plus 2.
func TestBeanAllocs(t *testing.T) {
	engine := sqldb.New()
	pool := sql.OpenDB(engine.Connector())
	defer pool.Close()
	if _, err := pool.Exec(`CREATE TABLE slot (id INTEGER PRIMARY KEY AUTOINCREMENT, machine TEXT NOT NULL,
		seq INTEGER NOT NULL, state TEXT NOT NULL, memory_mb INTEGER NOT NULL, UNIQUE (machine, seq))`); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"node-a", "node-b"} {
		for seq := int64(0); seq < 4; seq++ {
			if err := Insert(pool, &Slot{Machine: m, Seq: seq, State: "idle", MemoryMB: 512}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for seq := int64(0); seq < 100; seq++ {
		if err := Insert(pool, &Slot{Machine: "rack", Seq: seq, State: "idle", MemoryMB: 512}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	machine, rack := any("node-b"), any("rack")
	sqlCases := []allocCase[*sql.Tx]{
		// The transaction alone: database/sql's Tx, context and conn
		// bookkeeping, the engine's Tx. 9 → 8.
		{"empty transaction", 12, func(tx *sql.Tx) error { return nil }},
		// 77 → 31 → 25 with the scan targets borrowed from the Meta.
		{"Find", 32, func(tx *sql.Tx) error { return Find(tx, &Slot{ID: 6}) }},
		// 78 → 20.
		{"Update", 28, func(tx *sql.Tx) error {
			return Update(tx, &Slot{ID: 6, Machine: "node-b", Seq: 1, State: "claimed", MemoryMB: 512})
		}},
		// 123 → 48 → 36: targets borrowed, every row through one entity, the
		// result read by reference below; 42 since the adapter reads through
		// the native transport's mapping (the driver's values turned back
		// into engine values, its arguments boxed from them).
		{"Select of 4 rows", 44, selectSlots[*sql.Tx](t, machine, "", 4)},
		// 536 → 330: the statement's set, the slice's doublings, and per row
		// the cells database/sql boxes.
		{"Select of 100 rows", 380, selectSlots[*sql.Tx](t, rack, "ORDER BY id LIMIT 100", 100)},
		// Select without the slice: 322.
		{"Each over 100 rows", 370, eachSlot[*sql.Tx](t, rack)},
	}
	c := &Container{DB: pool}
	runAllocCases(t, "database/sql", sqlCases, func(fn func(*sql.Tx) error) error { return c.InTx(ctx, fn) })

	nativeCases := []allocCase[*sqldb.Tx]{
		// The engine's Tx. database/sql's transaction costs 8.
		{"empty transaction", 2, func(tx *sqldb.Tx) error { return nil }},
		// 4: the Tx, the statement's Rows and its array of row references,
		// the entity; 2, the Tx and the entity, since the transaction lends
		// the result. 28 through database/sql; the ROADMAP's bound was 12.
		{"Find", 4, func(tx *sqldb.Tx) error { return Find(tx, &Slot{ID: 6}) }},
		// 4: the Tx, the entity, the new row image and its version. 20
		// through database/sql.
		{"Update", 6, func(tx *sqldb.Tx) error {
			return Update(tx, &Slot{ID: 6, Machine: "node-b", Seq: 1, State: "claimed", MemoryMB: 512})
		}},
		// 8: the Tx, Rows, row references, the statement text (the Meta's
		// SELECT and the suffix), the entity and the slice's three
		// doublings; 3 with the result lent and the slice allocated once at
		// the result's length, the rows loaded into it in place: the Tx, the
		// statement text and the slice; 2, the Tx and the slice, with the
		// text kept on the Meta. 42 through database/sql.
		{"Select of 4 rows", 4, selectSlots[*sqldb.Tx](t, machine, "", 4)},
		// 5 → 3 → 2: the Tx and the entity — nothing per row, and the
		// statement text kept on the Meta. 328 through database/sql.
		{"Each over 100 rows", 4, eachSlot[*sqldb.Tx](t, rack)},
	}
	e := &Engine{DB: engine}
	runAllocCases(t, "engine", nativeCases, func(fn func(*sqldb.Tx) error) error { return e.InTx(ctx, fn) })
}

// allocCase is one bean call measured inside a container transaction on
// transport Q, and its budget in allocations.
type allocCase[Q Querier] struct {
	name   string
	budget float64
	run    func(tx Q) error
}

// runAllocCases measures each case's allocations per call, averaged over
// 500 calls. Each call waits for the goroutines it started to exit before
// the next begins. database/sql starts one per transaction and one per Rows
// (awaitDone) that outlive the call, and whether one allocates — a Done
// channel made lazily, the context error it stores — depends on whether it
// runs before or after the call finishes. Without the wait the previous
// call's goroutines are often still running when the next call starts,
// which one runs first is then up to the scheduler, and the count varied
// by a few allocations from one run of the test to the next.
func runAllocCases[Q Querier](t *testing.T, transport string, cases []allocCase[Q], inTx func(func(Q) error) error) {
	for _, tc := range cases {
		once := func() {
			n := runtime.NumGoroutine()
			if err := inTx(tc.run); err != nil {
				t.Fatal(err)
			}
			for runtime.NumGoroutine() > n {
				runtime.Gosched()
			}
		}
		once()
		got := testing.AllocsPerRun(500, once)
		t.Logf("%s: %s: %.0f allocations", transport, tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %s: %.0f allocations, budget %.0f", transport, tc.name, got, tc.budget)
		}
	}
}

// selectSlots selects the slots of one machine, expecting want of them.
func selectSlots[Q Querier](t *testing.T, machine any, order string, want int) func(Q) error {
	return func(tx Q) error {
		slots, err := Select[Slot](tx, "WHERE machine = ? "+order, machine)
		if err == nil && len(slots) != want {
			t.Fatalf("%d slots, want %d", len(slots), want)
		}
		return err
	}
}

// eachSlot visits the rack's 100 slots in id order.
func eachSlot[Q Querier](t *testing.T, rack any) func(Q) error {
	return func(tx Q) error {
		n, mem := 0, int64(0)
		err := Each(tx, func(s *Slot) error {
			n, mem = n+1, mem+s.MemoryMB
			return nil
		}, "WHERE machine = ? ORDER BY id LIMIT 100", rack)
		if err == nil && (n != 100 || mem != 51200) {
			t.Fatalf("%d slots with %d MB, want 100 with 51200", n, mem)
		}
		return err
	}
}
