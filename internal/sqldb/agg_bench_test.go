package sqldb

// BenchmarkPoolStatusAggregation measures the two monitoring-tier
// aggregation shapes from the paper's 3-tier architecture — the pool
// status rollup (`GROUP BY state`, a handful of groups over the whole
// machine table) and the per-owner accounting rollup (hundreds of
// groups, multiple aggregates) — through the aggregation stage: a
// one-cell group key read in place, the linear group list for the first
// and its map for the second.

import (
	"fmt"
	"strings"
	"testing"
)

const aggBenchRows = 100000

// fillStatus populates a machine-status table: 100k machines across a
// handful of states (the PoolStatus shape).
func fillStatus(b *testing.B, db *DB) {
	b.Helper()
	mustExecB(b, db, `CREATE TABLE machines (id INTEGER PRIMARY KEY, state TEXT, busy INTEGER)`)
	states := []string{"Owner", "Unclaimed", "Matched", "Claimed", "Preempting"}
	var sb strings.Builder
	for i := 0; i < aggBenchRows; i++ {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, '%s', %d)", i, states[i%len(states)], i%2)
		if i%500 == 499 {
			mustExecB(b, db, `INSERT INTO machines VALUES `+sb.String())
			sb.Reset()
		}
	}
}

// fillAccounting populates a job table: 100k jobs over ~250 owners with
// numeric rollup columns (the website accounting shape).
func fillAccounting(b *testing.B, db *DB) {
	b.Helper()
	mustExecB(b, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY, owner TEXT, runtime INTEGER, priority FLOAT)`)
	var sb strings.Builder
	for i := 0; i < aggBenchRows; i++ {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, 'user%d', %d, %d.5)", i, i%251, i%3600, i%10)
		if i%500 == 499 {
			mustExecB(b, db, `INSERT INTO jobs VALUES `+sb.String())
			sb.Reset()
		}
	}
}

func BenchmarkPoolStatusAggregation(b *testing.B) {
	shapes := []struct {
		name  string
		fill  func(*testing.B, *DB)
		query string
	}{
		{
			name:  "status",
			fill:  fillStatus,
			query: `SELECT state, count(*) FROM machines GROUP BY state ORDER BY state`,
		},
		{
			name:  "accounting",
			fill:  fillAccounting,
			query: `SELECT owner, count(*), sum(runtime), avg(priority) FROM jobs GROUP BY owner`,
		},
	}
	for _, sh := range shapes {
		db := New()
		sh.fill(b, db)
		b.Run(sh.name+"/hash-batched", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(sh.query); err != nil {
					b.Fatal(err)
				}
			}
		})
		db.Close()
	}
}
