package sqldb

// Cardinality statistics for the cost-based join planner. The paper's
// thesis — cluster management queries are relational queries — only holds
// up operationally if the database picks good plans for the CAS's hot
// multi-way joins (vm→matches→jobs status, job→executable→dataset
// provenance). Plans are costed from two inputs:
//
//   - live row counts, maintained incrementally by every insert/delete
//     (table.liveRows — always current, never stale);
//   - distinct-key estimates per index prefix, computed by ANALYZE in one
//     ordered walk of each index and scaled between refreshes by the ratio
//     of the current row count to the row count at analyze time.
//
// ANALYZE is durable: it logs a WAL record, replays during recovery (after
// the data it describes), and is re-emitted by Checkpoint, so a recovered
// database plans with the same statistics the pre-crash one did.

import "strings"

// execAnalyze refreshes cardinality statistics for one table (or all)
// under shared table locks — a stable count, serialized against writers —
// and logs one WAL record per table so the refresh survives recovery.
func (tx *Tx) execAnalyze(s *AnalyzeStmt) error {
	db := tx.db
	var names []string
	if s.Table != "" {
		names = []string{strings.ToLower(s.Table)}
	} else {
		names = db.TableNames()
	}
	if err := tx.lockTables(names, lockShared); err != nil {
		return err
	}
	for _, n := range names {
		tbl, err := db.lookupTable(n)
		if err != nil {
			return err
		}
		tbl.analyze()
		tx.recordDDL("ANALYZE " + n)
	}
	// Counted per table so recovery (which replays one record per table)
	// reproduces the same total.
	db.plannerAnalyzeRuns.Add(uint64(len(names)))
	return nil
}

// indexStats is one ANALYZE result for one index. Immutable once
// published (swapped in atomically), so planners read it without locks.
type indexStats struct {
	// entries is the number of physical index entries at analyze time
	// (includes not-yet-reclaimed entries of dead versions: an estimate).
	entries int64
	// distinct[k] is the number of distinct logical keys over the first
	// k+1 indexed columns (rid tiebreaker excluded).
	distinct []int64
}

// analyze recomputes distinct-key statistics for every index of the table
// and records the live row count they were computed at. Readers of the
// tree walk under the shared latch; concurrent writers only skew the
// estimate, never corrupt it.
func (t *table) analyze() {
	t.latch.RLock()
	defer t.latch.RUnlock()
	for _, ix := range t.indexes {
		st := &indexStats{distinct: make([]int64, len(ix.cols))}
		var last Key
		ix.tree.scanRange(nil, nil, func(k Key, rid int64) bool {
			st.entries++
			// Strip the rid tiebreaker: logical key only.
			lk := k
			if len(lk) > len(ix.cols) {
				lk = lk[:len(ix.cols)]
			}
			for p := 0; p < len(lk); p++ {
				if last == nil || len(last) <= p || compareKeys(last[:p+1], lk[:p+1]) != 0 {
					// A change at prefix length p+1 is a new distinct value
					// there and at every longer prefix.
					for q := p; q < len(ix.cols); q++ {
						st.distinct[q]++
					}
					break
				}
			}
			last = lk
			return true
		})
		ix.stats.Store(st)
	}
	t.statRows.Store(t.liveRows.Load())
	t.analyzed.Store(true)
	// Fresh statistics obsolete every cached plan costed from the old
	// ones; advancing the epoch makes their next validity check replan.
	t.statsEpoch.Add(1)
}

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

// statScale is the ratio current-rows / analyzed-rows used to carry
// distinct-key estimates forward between ANALYZE runs.
func (t *table) statScale() float64 {
	if !t.analyzed.Load() {
		return 1
	}
	base := t.statRows.Load()
	if base <= 0 {
		return 1
	}
	return float64(t.liveRows.Load()) / float64(base)
}

// distinctPrefix estimates the number of distinct values over the first
// k+1 columns of ix. Falls back to structural knowledge (unique index ⇒
// one row per full key) and then to the classic 1/10 default selectivity
// when the table has never been analyzed.
func (t *table) distinctPrefix(ix *index, k int) float64 {
	rows := t.estRows()
	if st := ix.stats.Load(); st != nil && k < len(st.distinct) {
		d := float64(st.distinct[k]) * t.statScale()
		if d < 1 {
			d = 1
		}
		if d > rows {
			d = rows
		}
		return d
	}
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
// multi-table SELECTs were planned, how often statistics changed the join
// order, which per-edge strategies were chosen, and the hash-join
// machinery's volumes.
type PlannerStats struct {
	// JoinQueries counts multi-table SELECT plans built.
	JoinQueries uint64
	// Reordered counts plans whose join order differs from FROM order.
	Reordered uint64
	// HashJoins / IndexNLJoins / NestedLoops count per-edge strategy picks.
	HashJoins    uint64
	IndexNLJoins uint64
	NestedLoops  uint64
	// HashBuildRows / HashProbeRows count rows hashed and probed.
	HashBuildRows uint64
	HashProbeRows uint64
	// AnalyzeRuns counts tables refreshed by ANALYZE (an ANALYZE with no
	// table name counts once per table; recovery replay matches).
	AnalyzeRuns uint64
}

// PlannerStats snapshots the join planner's counters.
func (db *DB) PlannerStats() PlannerStats {
	return PlannerStats{
		JoinQueries:   db.plannerJoinQueries.Load(),
		Reordered:     db.plannerReordered.Load(),
		HashJoins:     db.plannerHashJoins.Load(),
		IndexNLJoins:  db.plannerIndexNL.Load(),
		NestedLoops:   db.plannerNestedLoops.Load(),
		HashBuildRows: db.plannerBuildRows.Load(),
		HashProbeRows: db.plannerProbeRows.Load(),
		AnalyzeRuns:   db.plannerAnalyzeRuns.Load(),
	}
}
