//go:build !race

package sqldb

// Under the race detector sync.Pool drops a share of what is put back, so
// allocation counts there say nothing about the statement path.

import (
	"context"
	"testing"
)

// allocDB is a WAL-backed engine (MemVFS, group commit — the daemon's
// layout) holding the heartbeat's two shapes: a table read by unique key
// and one read four rows at a time through a secondary index.
func allocDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{VFS: NewMemVFS(), Path: "alloc.wal", Sync: SyncGroup})
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
// allocates what it hands back and borrows the rest. Each budget records
// what the case measured before the executor scratch, the plan-time lock
// footprint, in-place index-entry comparison and the lock-table freelist →
// after; the slack is a field or two, not a per-statement query object.
// Arguments are pre-boxed (the caller's cost, not the engine's).
func TestStatementAllocs(t *testing.T) {
	db := allocDB(t)
	ctx := context.Background()
	name, one := any("node-b"), any(int64(1))
	cases := []struct {
		name   string
		budget float64
		run    func(tx *Tx)
	}{
		// The Tx itself. 1 → 1.
		{"empty read-write transaction", 1, func(tx *Tx) {}},
		// Tx, Rows, its one-row Data, the row. 32 → 4.
		{"point SELECT by unique key", 8, func(tx *Tx) {
			rows, err := tx.Query(`SELECT name, state, beats FROM machines WHERE name = ?`, name)
			if err != nil || rows.Len() != 1 {
				t.Fatalf("rows %v, err %v", rows, err)
			}
		}},
		// Tx, Rows, Data, four rows (four row locks and a table lock, all
		// from the freelist). 53 → 7.
		{"4-row index-range SELECT", 12, func(tx *Tx) {
			rows, err := tx.Query(`SELECT id, machine, seq, state, memory_mb FROM vms WHERE machine = ?`, name)
			if err != nil || rows.Len() != 4 {
				t.Fatalf("rows %v, err %v", rows, err)
			}
		}},
		// Tx, the new row image, its version, the commit's batch and two
		// channels, the flush's write buffer and published-batch list, the
		// device's amortized append. 48 → 10.
		{"one-row UPDATE + group commit", 16, func(tx *Tx) {
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
