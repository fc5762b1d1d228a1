package sqldb

import (
	"fmt"
	"testing"
)

// BenchmarkPlanCacheHotPath measures the planning cost per execution for
// the CAS's two hottest statement shapes — the heartbeat-upsert UPDATE
// target and the pool-status join — served from the plan cache (one
// atomic load plus epoch checks) and compiled from scratch every time
// (buildSelectPlan for the SELECT; the target's slot cleared before each
// planning). The cached path must be allocation-free: it is on every
// statement's critical path.
func BenchmarkPlanCacheHotPath(b *testing.B) {
	newPoolDB := func(b *testing.B) *DB {
		b.Helper()
		db := New()
		for _, sql := range []string{
			`CREATE TABLE machines (name TEXT PRIMARY KEY, state TEXT NOT NULL, seen INTEGER)`,
			`CREATE INDEX machines_state ON machines (state)`,
			`CREATE TABLE vms (id INTEGER PRIMARY KEY, machine TEXT NOT NULL, state TEXT NOT NULL)`,
			`CREATE INDEX vms_machine ON vms (machine)`,
		} {
			if _, err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 32; i++ {
			if _, err := db.Exec(`INSERT INTO machines VALUES (?, 'alive', ?)`, fmt.Sprintf("m%02d", i), i); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO vms VALUES (?, ?, 'idle')`, i, fmt.Sprintf("m%02d", i)); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}

	const joinSQL = `SELECT m.state, count(*) FROM machines m, vms v WHERE v.machine = m.name GROUP BY m.state`
	const hbSQL = `UPDATE machines SET seen = ?, state = ? WHERE name = ?`

	benchSelect := func(b *testing.B, cached bool) {
		db := newPoolDB(b)
		defer db.Close()
		stmt, err := db.parse(joinSQL)
		if err != nil {
			b.Fatal(err)
		}
		sel := stmt.(*SelectStmt)
		tx, err := db.BeginReadOnly()
		if err != nil {
			b.Fatal(err)
		}
		defer tx.Rollback()
		if _, _, err := tx.planSelect(sel); err != nil {
			b.Fatal(err) // warm
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if cached {
				_, _, err = tx.planSelect(sel)
			} else {
				_, err = tx.buildSelectPlan(sel)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}

	benchTarget := func(b *testing.B, cached bool) {
		db := newPoolDB(b)
		defer db.Close()
		stmt, err := db.parse(hbSQL)
		if err != nil {
			b.Fatal(err)
		}
		upd := stmt.(*UpdateStmt)
		tx, err := db.BeginReadOnly()
		if err != nil {
			b.Fatal(err)
		}
		defer tx.Rollback()
		if _, _, err := tx.planTargetPlan(upd, &upd.plan); err != nil {
			b.Fatal(err) // warm
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !cached {
				upd.plan.p.Store(nil)
			}
			if _, _, err := tx.planTargetPlan(upd, &upd.plan); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("pool-status-join/cached", func(b *testing.B) { benchSelect(b, true) })
	b.Run("pool-status-join/uncached", func(b *testing.B) { benchSelect(b, false) })
	b.Run("heartbeat-update/cached", func(b *testing.B) { benchTarget(b, true) })
	b.Run("heartbeat-update/uncached", func(b *testing.B) { benchTarget(b, false) })
}
