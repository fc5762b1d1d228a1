package sqldb

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// tableCensus is what one table's heap holds: the slots in use, the row
// versions on their chains and the bases below them.
type tableCensus struct {
	slots, versions, bases int
}

// leafCensus is what one index's leaves hold: how many there are, their
// blocks' bytes and the bytes of those in use (prefix, offsets and
// suffixes).
type leafCensus struct {
	leaves, blockBytes, usedBytes int
}

// census is a heap census of a DB: per table (by name) its slots,
// versions and bases, per index (by name) its leaves.
type census struct {
	tables  map[string]tableCensus
	indexes map[string]leafCensus
}

// heapCensus walks every table of db under its shared latch and counts
// what its heap and its indexes hold.
func heapCensus(db *DB) census {
	c := census{tables: map[string]tableCensus{}, indexes: map[string]leafCensus{}}
	for name, tbl := range db.cat.Load().byName {
		tbl.latch.RLock()
		tc := tableCensus{slots: int(tbl.rows.n)}
		for rid := range tbl.rows.n {
			s := tbl.rows.at(rid)
			for v := s.head.Load(); v != nil; v = v.prev.Load() {
				tc.versions++
			}
			if s.loadBase() != 0 {
				tc.bases++
			}
		}
		c.tables[name] = tc
		for _, ix := range tbl.indexes {
			c.indexes[ix.schema.Name] = countLeaves(ix.tree)
		}
		tbl.latch.RUnlock()
	}
	return c
}

// countLeaves walks the leaf chain of ix.
func countLeaves(ix *ordIndex) leafCensus {
	var lc leafCensus
	for l := firstLeaf(ix); l != nil; l = l.next {
		lc.leaves++
		lc.blockBytes += len(l.blk)
		lc.usedBytes += l.used()
	}
	return lc
}

// String lists the census one table or index a line, in name order.
func (c census) String() string {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(c.tables)) {
		t := c.tables[name]
		fmt.Fprintf(&b, "table %s: %d slots, %d versions, %d bases\n", name, t.slots, t.versions, t.bases)
	}
	for _, name := range slices.Sorted(maps.Keys(c.indexes)) {
		ix := c.indexes[name]
		fmt.Fprintf(&b, "index %s: %d leaves, %d block bytes, %d in use\n", name, ix.leaves, ix.blockBytes, ix.usedBytes)
	}
	return b.String()
}
