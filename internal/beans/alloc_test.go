//go:build !race

package beans

// Under the race detector sync.Pool drops a share of what is put back, so
// allocation counts there say nothing about the mapping layer.

import (
	"context"
	"database/sql"
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

// TestBeanAllocs budgets what Find, Update, Select and Each cost through
// database/sql over an in-memory engine, inside one container transaction each —
// the engine's statement path included. Each budget records what the call
// measured before bean SQL was compiled per Meta, args were sized exactly
// and scan targets were allocated once per call (and before the engine
// below borrowed its working memory) → after; a third figure is after the
// targets became the Meta's to lend and rows were visited through one
// entity. What remains is mostly
// database/sql's: per statement its Rows, NamedValue slice and context,
// per cell the driver.Value box — so the budgets leave a few allocations
// for a toolchain whose database/sql differs.
func TestBeanAllocs(t *testing.T) {
	pool := sql.OpenDB(sqldb.New().Connector())
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
	c := &Container{DB: pool}
	ctx := context.Background()
	machine, rack := any("node-b"), any("rack")
	cases := []struct {
		name   string
		budget float64
		run    func(tx *sql.Tx) error
	}{
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
		// result read by reference below.
		{"Select of 4 rows", 44, func(tx *sql.Tx) error {
			slots, err := Select[Slot](tx, "WHERE machine = ?", machine)
			if err == nil && len(slots) != 4 {
				t.Fatalf("%d slots, want 4", len(slots))
			}
			return err
		}},
		// 536 → 330: the statement's set, the slice's doublings, and per row
		// the cells database/sql boxes.
		{"Select of 100 rows", 380, func(tx *sql.Tx) error {
			slots, err := Select[Slot](tx, "WHERE machine = ? ORDER BY id LIMIT 100", rack)
			if err == nil && len(slots) != 100 {
				t.Fatalf("%d slots, want 100", len(slots))
			}
			return err
		}},
		// Select without the slice: 322.
		{"Each over 100 rows", 370, func(tx *sql.Tx) error {
			n, mem := 0, int64(0)
			err := Each(tx, func(s *Slot) error {
				n, mem = n+1, mem+s.MemoryMB
				return nil
			}, "WHERE machine = ? ORDER BY id LIMIT 100", rack)
			if err == nil && (n != 100 || mem != 51200) {
				t.Fatalf("%d slots with %d MB, want 100 with 51200", n, mem)
			}
			return err
		}},
	}
	for _, tc := range cases {
		once := func() {
			if err := c.InTx(ctx, tc.run); err != nil {
				t.Fatal(err)
			}
		}
		once()
		got := testing.AllocsPerRun(500, once)
		t.Logf("%s: %.0f allocations", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.0f allocations, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
