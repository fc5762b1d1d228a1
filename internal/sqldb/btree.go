package sqldb

import (
	"math/rand"
	"strings"
)

// ordIndex is the ordered structure backing every index in the engine: a
// skiplist of entry keys, each an order-preserving byte string ending in
// its row id (see appendKeyValue). A skiplist gives the same
// O(log n) point and range operations as a B-tree with a fraction of the
// rebalancing machinery, which matters for an engine whose hottest path
// (the CAS heartbeat transaction, paper §4.2.2) does several index point
// lookups per web-service call.
//
// Every entry key ends in the row id, a final tiebreaker, so duplicate
// user keys occupy distinct entries, and a node stores nothing but its key:
// the rid is read back from the key's last 8 bytes. Keys compare as bytes;
// probes are byte strings too — a key, or the leading columns of one. The
// per-index random source is seeded deterministically so simulation runs
// are reproducible.

const slMaxLevel = 24

type ordIndex struct {
	head  *slNode
	level int
	size  int
	rng   *rand.Rand
}

type slNode struct {
	key  string
	fwd  []*slNode
	prev *slNode // level-0 back pointer (head for the first node): reverse scans
}

func newOrdIndex() *ordIndex {
	return &ordIndex{
		head:  &slNode{fwd: make([]*slNode, slMaxLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(0x5eed)),
	}
}

func (s *ordIndex) randomLevel() int {
	lvl := 1
	for lvl < slMaxLevel && s.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// findPredecessors fills update[i] with the rightmost node at level i whose
// key is < k, and returns the node at level 0 that follows update[0].
func (s *ordIndex) findPredecessors(k string, update []*slNode) *slNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.fwd[i] != nil && x.fwd[i].key < k {
			x = x.fwd[i]
		}
		if update != nil {
			update[i] = x
		}
	}
	return x.fwd[0]
}

// insert adds entry key k, which the skiplist keeps; it reports false if
// k is already present (unchanged).
func (s *ordIndex) insert(k string) bool {
	var update [slMaxLevel]*slNode
	for i := s.level; i < slMaxLevel; i++ {
		update[i] = s.head
	}
	next := s.findPredecessors(k, update[:])
	if next != nil && next.key == k {
		return false
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		s.level = lvl
	}
	n := &slNode{key: k, fwd: make([]*slNode, lvl)}
	for i := 0; i < lvl; i++ {
		n.fwd[i] = update[i].fwd[i]
		update[i].fwd[i] = n
	}
	n.prev = update[0]
	if n.fwd[0] != nil {
		n.fwd[0].prev = n
	}
	s.size++
	return true
}

// get returns the row id of entry key k, if present.
func (s *ordIndex) get(k string) (int64, bool) {
	n := s.findPredecessors(k, nil)
	if n != nil && n.key == k {
		return keyRid(k), true
	}
	return 0, false
}

// delete removes exactly key k, reporting whether it was present.
func (s *ordIndex) delete(k string) bool {
	var update [slMaxLevel]*slNode
	for i := s.level; i < slMaxLevel; i++ {
		update[i] = s.head
	}
	n := s.findPredecessors(k, update[:])
	if n == nil || n.key != k {
		return false
	}
	for i := 0; i < len(n.fwd); i++ {
		if update[i].fwd[i] == n {
			update[i].fwd[i] = n.fwd[i]
		}
	}
	if n.fwd[0] != nil {
		n.fwd[0].prev = n.prev
	}
	for s.level > 1 && s.head.fwd[s.level-1] == nil {
		s.level--
	}
	s.size--
	return true
}

// scanRange calls fn for each (key, rid) with lo <= key < hi in key order.
// An empty lo starts at the smallest key; an empty hi runs through the
// largest. fn returning false stops the scan.
func (s *ordIndex) scanRange(lo, hi string, fn func(string, int64) bool) {
	for n := s.findPredecessors(lo, nil); n != nil; n = n.fwd[0] {
		if hi != "" && n.key >= hi {
			return
		}
		if !fn(n.key, keyRid(n.key)) {
			return
		}
	}
}

// findLastLE returns the rightmost node whose key, truncated to
// len(start), compares <= start — the last entry of start's prefix run. An
// empty start yields the overall last node. Returns nil when no node
// qualifies.
func (s *ordIndex) findLastLE(start string) *slNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.fwd[i] != nil && comparePrefix(x.fwd[i].key, start) <= 0 {
			x = x.fwd[i]
		}
	}
	if x == s.head {
		return nil
	}
	return x
}

// findLastLT returns the rightmost node whose full key compares strictly
// below k (reverse-scan resumption point).
func (s *ordIndex) findLastLT(k string) *slNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.fwd[i] != nil && x.fwd[i].key < k {
			x = x.fwd[i]
		}
	}
	if x == s.head {
		return nil
	}
	return x
}

// scanReverseLE visits keys in descending order starting from the largest
// key whose truncation to len(start) is <= start (the whole index when
// start is empty). fn returning false stops the scan.
func (s *ordIndex) scanReverseLE(start string, fn func(string, int64) bool) {
	s.walkBack(s.findLastLE(start), fn)
}

// scanReverseLT visits keys in descending order starting from the largest
// key strictly below k (full-key comparison).
func (s *ordIndex) scanReverseLT(k string, fn func(string, int64) bool) {
	s.walkBack(s.findLastLT(k), fn)
}

func (s *ordIndex) walkBack(n *slNode, fn func(string, int64) bool) {
	for n != nil && n != s.head {
		if !fn(n.key, keyRid(n.key)) {
			return
		}
		n = n.prev
	}
}

// scanPrefix visits all keys that begin with prefix, in order.
func (s *ordIndex) scanPrefix(prefix string, fn func(string, int64) bool) {
	s.scanRange(prefix, "", func(k string, rid int64) bool {
		return strings.HasPrefix(k, prefix) && fn(k, rid)
	})
}
