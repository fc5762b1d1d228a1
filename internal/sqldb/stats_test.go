package sqldb

// Tests for the planner's estimates and counters.

import "testing"

func TestExplainRendersEstimatedRows(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, state TEXT)`)
	mustExec(t, db, `CREATE INDEX t_state ON t (state)`)
	for i := 1; i <= 90; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, []string{"a", "b", "c"}[i%3])
	}
	rows := mustQuery(t, db, `EXPLAIN SELECT * FROM t WHERE state = 'a'`)
	if got := rows.Columns; len(got) != 5 || got[3] != "join" || got[4] != "rows" {
		t.Fatalf("EXPLAIN columns = %v", got)
	}
	// The estimate is structural: a non-unique index assumes 90/10 = 9
	// distinct states, so an equality matches 90/9 rows.
	if est := rows.Data[0][4].Int64(); est != 10 {
		t.Fatalf("estimated rows = %d, want 10", est)
	}
	if rows.Data[0][3].Text() != "-" {
		t.Fatalf("single-table join column = %q, want -", rows.Data[0][3].Text())
	}
}

func TestPlannerStatsStrategyCounters(t *testing.T) {
	db := hashJoinFixture(t)
	before := db.PlannerStats()
	mustQuery(t, db, `SELECT o.id FROM outer_t o JOIN inner_t i ON i.k = o.k`)
	mustQuery(t, db, `SELECT o.id FROM outer_t o JOIN inner_t i ON i.id = o.id WHERE o.tag = 'o5'`)
	after := db.PlannerStats()
	if after.JoinQueries <= before.JoinQueries {
		t.Fatal("JoinQueries did not advance")
	}
	if after.HashJoins <= before.HashJoins {
		t.Fatal("HashJoins did not advance for the unindexed equi-join")
	}
	if after.IndexNLJoins <= before.IndexNLJoins {
		t.Fatal("IndexNLJoins did not advance for the pk-joined query")
	}
	// A pick is counted once per plan built, a build once per execution:
	// the cached plan runs again uncounted and builds its table again.
	mustQuery(t, db, `SELECT o.id FROM outer_t o JOIN inner_t i ON i.k = o.k`)
	again := db.PlannerStats()
	if again.HashJoins != after.HashJoins || again.HashBuilds != after.HashBuilds+1 {
		t.Fatalf("cached hash join rerun: picks %d → %d, builds %d → %d; want the picks still, one build more",
			after.HashJoins, again.HashJoins, after.HashBuilds, again.HashBuilds)
	}
}
