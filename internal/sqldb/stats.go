package sqldb

// Cardinality estimates for the cost-based join planner. The paper's
// thesis — cluster management queries are relational queries — only holds
// up operationally if the database picks good plans for the CAS's hot
// multi-way joins (vm→matches→jobs status, job→executable→dataset
// provenance). Plans are costed from what the engine already maintains:
//
//   - live row counts, kept incrementally by every insert and delete
//     (table.liveRows — always current, never stale);
//   - the indexes themselves: a unique index holds one row per full key,
//     any other key prefix is assumed to take a tenth as many distinct
//     values as the table has rows.
//
// A cached plan remembers the row counts it was costed at and replans when
// they drift past a factor of two (plancache.go), so estimates follow the
// data with no statistics to refresh or log.
//
// The tenth is coarse: it reads vms (machine) as 10 VMs a machine where a
// pool has 4. It stays, because every plan a prefix feeds moves with it —
// counting that one prefix exactly raised job_lifecycle's rows scanned
// per operation from 200 to 1,642. Where it decided between an index probe
// and a hash build over a handful of rows, flipping the heartbeat's
// pairing join as matches and runs filled and emptied, a rule in the cost
// model decides instead (probeOuterMax, join.go).

// estRows is the planner's cardinality estimate for the table: the live
// row count (incrementally maintained, so always current). Empty tables
// report a small non-zero value so cost arithmetic stays well-defined and
// empty inputs sort first in join orders.
func (t *table) estRows() float64 {
	n := t.liveRows.Load()
	if n <= 0 {
		return 0.5
	}
	return float64(n)
}

// distinctPrefix estimates the number of distinct values over the first
// k+1 columns of ix: one per row for the full key of a unique index,
// otherwise a tenth of the rows.
func (t *table) distinctPrefix(ix *index, k int) float64 {
	rows := t.estRows()
	if ix.schema.Unique && k == len(ix.cols)-1 {
		return rows
	}
	d := rows / 10
	if d < 1 {
		d = 1
	}
	return d
}

// distinctOfCol estimates the distinct values of one column: the best
// evidence is an index whose leading column is col.
func (t *table) distinctOfCol(col int) float64 {
	t.latch.RLock()
	defer t.latch.RUnlock()
	best := -1.0
	for _, ix := range t.indexes {
		if len(ix.cols) > 0 && ix.cols[0] == col {
			d := t.distinctPrefix(ix, 0)
			if d > best {
				best = d
			}
		}
	}
	if best > 0 {
		return best
	}
	rows := t.estRows()
	d := rows / 10
	if d < 1 {
		d = 1
	}
	return d
}

// PlannerStats snapshots the cost-based planner's counters: how many
// multi-table SELECTs were planned, how often the estimates changed the
// join order, which per-edge strategies were chosen, and the hash-join
// machinery's volumes.
type PlannerStats struct {
	// JoinQueries counts multi-table SELECT plans built.
	JoinQueries uint64
	// Reordered counts plans whose join order differs from FROM order.
	Reordered uint64
	// HashJoins / IndexNLJoins / NestedLoops count per-edge strategy picks,
	// once per plan built: a cached plan runs again uncounted.
	HashJoins    uint64
	IndexNLJoins uint64
	NestedLoops  uint64
	// HashBuilds counts hash tables built, once per hash step a statement
	// executes: what the picks cost at run time.
	HashBuilds uint64
	// HashBuildRows / HashProbeRows count rows hashed and probed.
	HashBuildRows uint64
	HashProbeRows uint64
}

// PlannerStats snapshots the join planner's counters.
func (db *DB) PlannerStats() PlannerStats {
	return PlannerStats{
		JoinQueries:   db.plannerJoinQueries.Load(),
		Reordered:     db.plannerReordered.Load(),
		HashJoins:     db.plannerHashJoins.Load(),
		IndexNLJoins:  db.plannerIndexNL.Load(),
		NestedLoops:   db.plannerNestedLoops.Load(),
		HashBuilds:    db.plannerHashBuilds.Load(),
		HashBuildRows: db.plannerBuildRows.Load(),
		HashProbeRows: db.plannerProbeRows.Load(),
	}
}
