package sqldb

import (
	"slices"
	"strings"
)

// ordIndex is the ordered structure backing every index in the engine: an
// in-memory B+tree of entry keys, each an order-preserving byte string
// ending in its row id (see appendKeyValue). Leaves hold the keys in
// sorted arrays allocated once at fanout capacity and chained both ways
// for forward and reverse walks; inner nodes hold separators and
// children. An entry costs its key string and a 16-byte slot in a leaf,
// no node of its own: indexes are the largest thing the CAS holds.
//
// Every entry key ends in the row id, a final tiebreaker, so duplicate
// user keys occupy distinct entries, and a leaf stores nothing but keys:
// the rid is read back from the key's last 8 bytes. Keys compare as bytes;
// probes are byte strings too — a key, or the leading columns of one. The
// tree keeps only keys insert was given (separators are such keys too),
// never a probe, and never changes a key, so a scan may hold the keys it
// visits.
//
// Row ids rise, so the (state, id) and primary-key indexes mostly append:
// a full leaf given a key past its last keeps its entries and starts its
// new right sibling with that key alone, so appended runs fill leaves
// full; any other overflow splits a node at its middle. A node left under
// a quarter full merges into a neighbour under the same parent when the
// two fit; an emptied node is dropped; a root with one child gives way to
// it. Writers hold the table latch exclusively, scans share it.
type ordIndex struct {
	root *bnode
	size int
}

// fanout is a leaf's key capacity and an inner node's child capacity.
const fanout = 64

// bnode is a leaf (kids nil: keys are entry keys, chained through prev
// and next) or an inner node, where keys[i] is a lower bound of every key
// under kids[i+1] and above every key under kids[i]. An inner node's
// arrays have room for one child over fanout, which it holds only until
// it splits.
type bnode struct {
	keys       []string
	kids       []*bnode
	prev, next *bnode
}

func newOrdIndex() *ordIndex { return &ordIndex{root: newLeaf()} }

func newLeaf() *bnode { return &bnode{keys: make([]string, 0, fanout)} }

func newInner() *bnode {
	return &bnode{keys: make([]string, 0, fanout), kids: make([]*bnode, 0, fanout+1)}
}

// search returns how many of keys satisfy below, which holds for a
// leading run of them.
func search(keys []string, below func(string) bool) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if below(keys[m]) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// child returns the index of the child of inner node n whose range holds k.
func (n *bnode) child(k string) int {
	return search(n.keys, func(s string) bool { return s <= k })
}

// lower returns the position of the first key of leaf n that is >= k.
func (n *bnode) lower(k string) int {
	return search(n.keys, func(s string) bool { return s < k })
}

// entries is a leaf's key count or an inner node's child count.
func (n *bnode) entries() int {
	if n.kids == nil {
		return len(n.keys)
	}
	return len(n.kids)
}

// leaf returns the leaf whose range holds k.
func (s *ordIndex) leaf(k string) *bnode {
	n := s.root
	for n.kids != nil {
		n = n.kids[n.child(k)]
	}
	return n
}

// insert adds entry key k, which the tree keeps; it reports false if k is
// already present (unchanged).
func (s *ordIndex) insert(k string) bool {
	sep, right, ok := s.root.insert(k)
	if !ok {
		return false
	}
	if right != nil {
		root := newInner()
		root.keys = append(root.keys, sep)
		root.kids = append(root.kids, s.root, right)
		s.root = root
	}
	s.size++
	return true
}

// insert adds k under n, reporting false if it is present. A node that
// overflows splits and returns its new right sibling with the sibling's
// lower bound, for the parent to take in.
func (n *bnode) insert(k string) (sep string, right *bnode, ok bool) {
	if n.kids == nil {
		i := n.lower(k)
		if i < len(n.keys) && n.keys[i] == k {
			return "", nil, false
		}
		if len(n.keys) < fanout {
			n.keys = slices.Insert(n.keys, i, k)
			return "", nil, true
		}
		r := n.splitLeaf(i, k)
		return r.keys[0], r, true
	}
	i := n.child(k)
	if sep, right, ok = n.kids[i].insert(k); right == nil {
		return "", nil, ok
	}
	n.keys = slices.Insert(n.keys, i, sep)
	n.kids = slices.Insert(n.kids, i+1, right)
	if len(n.kids) <= fanout {
		return "", nil, true
	}
	m := len(n.kids) / 2
	r := newInner()
	sep = n.keys[m-1]
	r.keys = append(r.keys, n.keys[m:]...)
	r.kids = append(r.kids, n.kids[m:]...)
	clear(n.keys[m-1:])
	clear(n.kids[m:])
	n.keys, n.kids = n.keys[:m-1], n.kids[:m]
	return sep, r, true
}

// splitLeaf moves half of full leaf n into a new right sibling and puts k
// at position i of the pair. An insert past n's last key moves nothing:
// n stays full and the sibling starts with k alone.
func (n *bnode) splitLeaf(i int, k string) *bnode {
	r := newLeaf()
	r.prev, r.next = n, n.next
	if n.next != nil {
		n.next.prev = r
	}
	n.next = r
	if i == fanout {
		r.keys = append(r.keys, k)
		return r
	}
	const m = fanout / 2
	r.keys = append(r.keys, n.keys[m:]...)
	clear(n.keys[m:])
	n.keys = n.keys[:m]
	if i <= m {
		n.keys = slices.Insert(n.keys, i, k)
	} else {
		r.keys = slices.Insert(r.keys, i-m, k)
	}
	return r
}

// get returns the row id of entry key k, if present.
func (s *ordIndex) get(k string) (int64, bool) {
	n := s.leaf(k)
	if i := n.lower(k); i < len(n.keys) && n.keys[i] == k {
		return keyRid(k), true
	}
	return 0, false
}

// delete removes exactly key k, reporting whether it was present.
func (s *ordIndex) delete(k string) bool {
	if !s.root.delete(k) {
		return false
	}
	for len(s.root.kids) == 1 {
		s.root = s.root.kids[0]
	}
	s.size--
	return true
}

// delete removes k from under n, reporting whether it was there. A child
// left empty is dropped; one left under a quarter full merges into a
// neighbour when the two fit in one node.
func (n *bnode) delete(k string) bool {
	if n.kids == nil {
		i := n.lower(k)
		if i == len(n.keys) || n.keys[i] != k {
			return false
		}
		n.keys = slices.Delete(n.keys, i, i+1)
		return true
	}
	i := n.child(k)
	c := n.kids[i]
	if !c.delete(k) {
		return false
	}
	switch e := c.entries(); {
	case e == 0:
		n.drop(i)
	case e >= fanout/4:
	case i > 0 && n.kids[i-1].entries()+e <= fanout:
		n.merge(i - 1)
	case i+1 < len(n.kids) && e+n.kids[i+1].entries() <= fanout:
		n.merge(i)
	}
	return true
}

// merge moves everything under kids[i+1] into kids[i] and drops kids[i+1].
func (n *bnode) merge(i int) {
	l, r := n.kids[i], n.kids[i+1]
	if l.kids != nil {
		l.keys = append(l.keys, n.keys[i])
		l.kids = append(l.kids, r.kids...)
	}
	l.keys = append(l.keys, r.keys...)
	n.drop(i + 1)
}

// drop removes kids[i] with its lower bound (kids[0]: the bound of the
// child that becomes first), unlinking a leaf from the chain.
func (n *bnode) drop(i int) {
	if c := n.kids[i]; c.kids == nil {
		if c.prev != nil {
			c.prev.next = c.next
		}
		if c.next != nil {
			c.next.prev = c.prev
		}
	}
	n.kids = slices.Delete(n.kids, i, i+1)
	if len(n.keys) > 0 {
		j := max(i-1, 0)
		n.keys = slices.Delete(n.keys, j, j+1)
	}
}

// scanRange calls fn for each (key, rid) with lo <= key < hi in key order.
// An empty lo starts at the smallest key; an empty hi runs through the
// largest. fn returning false stops the scan.
func (s *ordIndex) scanRange(lo, hi string, fn func(string, int64) bool) {
	n := s.leaf(lo)
	for i := n.lower(lo); n != nil; n, i = n.next, 0 {
		for _, k := range n.keys[i:] {
			if hi != "" && k >= hi {
				return
			}
			if !fn(k, keyRid(k)) {
				return
			}
		}
	}
}

// last returns the leaf and position of the last key for which below
// holds, below holding for a leading run of the key order; nil when it
// holds for none. Every key left of a subtree is below the bound the
// descent passed, so a leaf where below holds for nothing leaves the
// answer at the end of the previous leaf.
func (s *ordIndex) last(below func(string) bool) (*bnode, int) {
	n := s.root
	for n.kids != nil {
		n = n.kids[search(n.keys, below)]
	}
	i := search(n.keys, below)
	if i == 0 {
		if n = n.prev; n == nil {
			return nil, 0
		}
		i = len(n.keys)
	}
	return n, i - 1
}

// findLastLE returns the last key whose truncation to len(start) compares
// <= start — the last entry of start's prefix run. An empty start yields
// the overall last key. ok is false when no key qualifies.
func (s *ordIndex) findLastLE(start string) (string, bool) {
	return keyAt(s.lastLE(start))
}

// findLastLT returns the last key that compares strictly below k
// (reverse-scan resumption point).
func (s *ordIndex) findLastLT(k string) (string, bool) {
	return keyAt(s.lastLT(k))
}

func (s *ordIndex) lastLE(start string) (*bnode, int) {
	return s.last(func(k string) bool { return comparePrefix(k, start) <= 0 })
}

func (s *ordIndex) lastLT(k string) (*bnode, int) {
	return s.last(func(x string) bool { return x < k })
}

func keyAt(n *bnode, i int) (string, bool) {
	if n == nil {
		return "", false
	}
	return n.keys[i], true
}

// scanReverseLE visits keys in descending order starting from the largest
// key whose truncation to len(start) is <= start (the whole index when
// start is empty). fn returning false stops the scan.
func (s *ordIndex) scanReverseLE(start string, fn func(string, int64) bool) {
	n, i := s.lastLE(start)
	walkBack(n, i, fn)
}

// scanReverseLT visits keys in descending order starting from the largest
// key strictly below k (full-key comparison).
func (s *ordIndex) scanReverseLT(k string, fn func(string, int64) bool) {
	n, i := s.lastLT(k)
	walkBack(n, i, fn)
}

// walkBack visits keys in descending order from position i of leaf n.
func walkBack(n *bnode, i int, fn func(string, int64) bool) {
	for n != nil {
		for ; i >= 0; i-- {
			if k := n.keys[i]; !fn(k, keyRid(k)) {
				return
			}
		}
		if n = n.prev; n != nil {
			i = len(n.keys) - 1
		}
	}
}

// scanPrefix visits all keys that begin with prefix, in order.
func (s *ordIndex) scanPrefix(prefix string, fn func(string, int64) bool) {
	s.scanRange(prefix, "", func(k string, rid int64) bool {
		return strings.HasPrefix(k, prefix) && fn(k, rid)
	})
}
