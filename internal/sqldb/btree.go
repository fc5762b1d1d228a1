package sqldb

import (
	"encoding/binary"
	"slices"
	"strings"
)

// ordIndex is the ordered structure backing every index in the engine: an
// in-memory B+tree of entry keys, each an order-preserving byte string
// ending in its row id (see appendKeyValue). Inner nodes hold separators
// and children; leaves are byte blocks chained both ways for forward and
// reverse walks. Indexes are the largest thing the CAS holds, so an entry
// has no allocation of its own: it is its key's bytes in its leaf's block
// and a two-byte offset.
//
// A leaf's block is slotted, like a page:
//
//	[prefix: plen bytes][offset 0]…[offset n-1]  free  [suffix n-1]…[suffix 0]
//
// The prefix is one every key of the leaf starts with, stored once (not
// always the longest: a split or the first key of a leaf sets it, an
// insert that does not share it shortens it, nothing lengthens it in
// place). Each key's remaining suffix is packed back to back from the
// block's end down, in key order; offset i, a little-endian uint16, is how
// far suffix i starts from that end, so suffix i runs to where suffix i-1
// starts and the offsets rise with i. An insert or delete moves the
// suffixes and offsets after its position, so an append moves nothing. A
// block is blockSize bytes, or what one long key needs; the suffixes of
// one block total at most maxData bytes, which their offsets can reach.
//
// Every entry key ends in the row id, a final tiebreaker, so duplicate
// user keys occupy distinct entries, and a leaf stores nothing but keys:
// the rid is read back from the key's last 8 bytes. Keys compare as bytes;
// probes are byte strings too — a key, or the leading columns of one.
// insert copies its key into a block and keeps nothing it is given, so a
// probe or a key may be a view of a reused buffer. What a read hands back
// is the key assembled (prefix + suffix) in a buffer its caller owns and
// passes in, never the tree: readers share the table latch, so the tree
// has no scratch of its own. A key handed back is valid until the walk
// hands back the next one, and the tree's contents only under the latch:
// whatever a caller keeps past either it copies.
//
// Row ids rise, so the (state, id) and primary-key indexes mostly append:
// a full leaf given a key past its last keeps its entries and starts its
// new right sibling with that key alone, so appended runs fill leaves
// full. An index appended to at several places at once — (state,
// priority, id), its jobs cycling through a few priorities — appends
// inside its leaves, so a leaf keeps where its last insert went, and an
// overflowing insert at or past the leaf's middle that extends a run —
// it lands right after the last insert, which landed right after the one
// before — splits the leaf there (InnoDB's sequential-insert rule): the
// left part keeps the run and the key, and fills as the run goes on.
// Random inserts rarely make a run, so they still split evenly. Any other
// overflow splits a leaf at the middle of its bytes (an inner node at its
// middle child). A node left under a quarter full
// merges into a neighbour under the same parent when the two fit; an
// emptied node is dropped; a root with one child gives way to it. Writers
// hold the table latch exclusively, scans share it.
type ordIndex struct {
	root *bnode
	size int
}

// fanout is an inner node's child capacity.
const fanout = 64

// blockSize is a leaf block's size in bytes, unless one key needs more.
const blockSize = 1024

// maxData bounds the suffix bytes of one block: what a uint16 offset
// reaches.
const maxData = 1<<16 - 1

// maxKeys bounds the keys of one leaf: what a hint's position holds.
const maxKeys = 1<<15 - 1

// hintRun is the bit of a leaf's hint marking a run of inserts.
const hintRun = 1 << 15

// bnode is a leaf (kids nil: blk holds n entry keys under a prefix of plen
// bytes, chained through prev and next; hint's low 15 bits are the
// position right after its last insert, 0 when a split or merge repacked
// it since, and its hintRun bit says that insert landed right after the
// one before) or an inner node, where keys[i] is a lower bound of every
// key under kids[i+1] and above every key under kids[i]. An inner node's
// arrays have room for one child over fanout, which it holds only until it
// splits. A leaf holds at most maxKeys keys, so that n and hint fit in 16
// bits each and the node in 96 bytes.
type bnode struct {
	blk        []byte
	n, hint    uint16
	plen       int32
	keys       []string
	kids       []*bnode
	prev, next *bnode
}

func newOrdIndex() *ordIndex { return &ordIndex{root: &bnode{blk: make([]byte, blockSize)}} }

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

// below reports whether k is below probe p: k < p, or with le, k's
// truncation to len(p) is <= p — p and every key it prefixes. Either holds
// for a leading run of the key order.
func below(k, p string, le bool) bool {
	if le {
		return k[:min(len(k), len(p))] <= p
	}
	return k < p
}

// prefix is the leaf's shared key prefix.
func (n *bnode) prefix() string { return view(n.blk[:n.plen]) }

// dist is offset i: how far suffix i starts from the block's end; 0 for
// i = -1, where suffix 0 ends.
func (n *bnode) dist(i int) int {
	if i < 0 {
		return 0
	}
	return int(binary.LittleEndian.Uint16(n.blk[int(n.plen)+2*i:]))
}

func (n *bnode) setDist(i, d int) {
	binary.LittleEndian.PutUint16(n.blk[int(n.plen)+2*i:], uint16(d))
}

// suffix is what key i of the leaf holds past the prefix.
func (n *bnode) suffix(i int) string {
	e := len(n.blk)
	return view(n.blk[e-n.dist(i) : e-n.dist(i-1)])
}

// data is the leaf's suffix bytes.
func (n *bnode) data() int { return n.dist(int(n.n) - 1) }

// appendKey appends key i of the leaf to b.
func (n *bnode) appendKey(b []byte, i int) []byte {
	return append(append(b, n.prefix()...), n.suffix(i)...)
}

// common is the length of the longest common prefix of keys i and j of
// the leaf.
func (n *bnode) common(i, j int) int {
	return int(n.plen) + commonLen(n.suffix(i), n.suffix(j))
}

// shared is the length of the longest common prefix of key i of the leaf
// and k.
func (n *bnode) shared(i int, k string) int {
	if c := commonLen(n.prefix(), k); c < int(n.plen) {
		return c
	}
	return int(n.plen) + commonLen(n.suffix(i), k[n.plen:])
}

func commonLen(a, b string) int {
	m := min(len(a), len(b))
	for i := range m {
		if a[i] != b[i] {
			return i
		}
	}
	return m
}

// used is the bytes of the leaf's block in use.
func (n *bnode) used() int { return int(n.plen) + 2*int(n.n) + n.data() }

// rank returns how many keys of leaf n are below p (see below): the
// prefix settles it for every key at once unless p extends the prefix,
// and then the suffixes are searched against the rest of p.
func (n *bnode) rank(p string, le bool) int {
	pre := n.prefix()
	m := min(len(pre), len(p))
	if a, b := pre[:m], p[:m]; a != b {
		if a < b {
			return int(n.n)
		}
		return 0
	}
	if len(p) <= len(pre) {
		// Every key extends p: none is below it, or with le all are.
		if le {
			return int(n.n)
		}
		return 0
	}
	q := p[len(pre):]
	lo, hi := 0, int(n.n)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if below(n.suffix(m), q, le) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// is reports whether key i of the leaf is k.
func (n *bnode) is(i int, k string) bool {
	return i < int(n.n) && strings.HasPrefix(k, n.prefix()) && n.suffix(i) == k[n.plen:]
}

// span is the keys from..to-1 of a leaf.
type span struct {
	n        *bnode
	from, to int
}

// pack refills leaf n with the keys of spans in order under their shared
// prefix of plen bytes — shorter than a span's prefix, which moves its
// tail into the suffixes, or longer, which moves the suffixes' heads into
// it — in blk, or in a new block when blk is too short. No span may read
// blk: one refilling its own block reads a snapshot of it.
func (n *bnode) pack(blk []byte, plen int, spans ...span) {
	need, count := plen, 0
	for _, s := range spans {
		c := s.to - s.from
		need += c*(2+int(s.n.plen)-plen) + s.n.dist(s.to-1) - s.n.dist(s.from-1)
		count += c
	}
	if len(blk) < need {
		blk = make([]byte, max(blockSize, need))
	}
	if s := spans[0]; plen > 0 {
		if c := copy(blk[:plen], s.n.prefix()); c < plen {
			copy(blk[c:plen], s.n.suffix(s.from))
		}
	}
	d, j := 0, 0
	for _, s := range spans {
		pre := s.n.prefix()
		for i := s.from; i < s.to; i++ {
			suf := s.n.suffix(i)
			if plen >= len(pre) {
				suf = suf[plen-len(pre):]
			}
			d += len(suf)
			copy(blk[len(blk)-d:], suf)
			if plen < len(pre) {
				d += len(pre) - plen
				copy(blk[len(blk)-d:], pre[plen:])
			}
			binary.LittleEndian.PutUint16(blk[plen+2*j:], uint16(d))
			j++
		}
	}
	n.blk, n.n, n.hint, n.plen = blk, uint16(count), 0, int32(plen)
}

// snapshot is leaf n reading from a copy of its block, in buf when it
// fits there: what n's block is refilled from.
func (n *bnode) snapshot(buf []byte) bnode {
	c := *n
	if len(n.blk) > len(buf) {
		buf = make([]byte, len(n.blk))
	}
	c.blk = buf[:copy(buf, n.blk)]
	return c
}

// start makes n, empty, a leaf holding k alone under its first p bytes —
// all of k when the rest would overflow a block's suffix bytes.
func (n *bnode) start(k string, p int) {
	if len(k)-p > maxData {
		p = len(k)
	}
	if len(n.blk) < len(k)+2 {
		n.blk = make([]byte, max(blockSize, len(k)+2))
	}
	n.plen = int32(copy(n.blk, k[:p]))
	n.n = 0
	n.place(0, k[p:])
}

// room returns the prefix length leaf n keeps when k joins it, what its
// block then needs, and its suffix bytes then.
func (n *bnode) room(k string) (p, need, data int) {
	p = commonLen(n.prefix(), k)
	data = n.data() + int(n.n)*(int(n.plen)-p) + len(k) - p
	return p, p + 2*(int(n.n)+1) + data, data
}

// put inserts k at position i of non-empty leaf n under a prefix of p
// bytes in a block of need bytes, as room gave them: it repacks the leaf
// first when the block grows or the prefix shortens.
func (n *bnode) put(i int, k string, p, need int) {
	switch {
	case need > len(n.blk):
		n.pack(make([]byte, need), p, span{n, 0, int(n.n)})
	case p < int(n.plen):
		var buf [blockSize]byte
		old := n.snapshot(buf[:])
		n.pack(n.blk, p, span{&old, 0, int(old.n)})
	}
	n.place(i, k[n.plen:])
}

// place inserts suffix s at position i of leaf n, which has room: the
// suffixes from i on move down by len(s) and their offsets up by two.
// The insert is the leaf's last.
func (n *bnode) place(i int, s string) {
	e, d := len(n.blk), n.dist(i-1)
	lo := e - n.data()
	copy(n.blk[lo-len(s):], n.blk[lo:e-d])
	copy(n.blk[e-d-len(s):], s)
	base := int(n.plen)
	copy(n.blk[base+2*i+2:], n.blk[base+2*i:base+2*int(n.n)])
	n.n++
	run := uint16(0)
	if i == int(n.hint&^hintRun) {
		run = hintRun
	}
	n.hint = uint16(i+1) | run
	n.setDist(i, d+len(s))
	for j := i + 1; j < int(n.n); j++ {
		n.setDist(j, n.dist(j)+len(s))
	}
}

// remove deletes key i of leaf n: the suffixes after it move up over it
// and their offsets down by two.
func (n *bnode) remove(i int) {
	e, d := len(n.blk), n.dist(i)
	l := d - n.dist(i-1)
	lo := e - n.data()
	copy(n.blk[lo+l:], n.blk[lo:e-d])
	for j := i + 1; j < int(n.n); j++ {
		n.setDist(j, n.dist(j)-l)
	}
	base := int(n.plen)
	copy(n.blk[base+2*i:], n.blk[base+2*i+2:base+2*int(n.n)])
	n.n--
	if i < int(n.hint&^hintRun) {
		n.hint--
	}
}

// middle is where leaf n splits: the first key at or past half its bytes,
// leaving a key on each side; 0 when n holds one key.
func (n *bnode) middle() int {
	c := int(n.n)
	half := (n.data() + 2*c) / 2
	m := 1
	for m < c-1 && n.dist(m-1)+2*m < half {
		m++
	}
	return min(m, c-1)
}

// leaf returns the leaf whose range holds k.
func (s *ordIndex) leaf(k string) *bnode {
	n := s.root
	for n.kids != nil {
		n = n.kids[n.child(k)]
	}
	return n
}

// insert adds entry key k, copying it; it reports false if k is already
// present (unchanged).
func (s *ordIndex) insert(k string) bool {
	for {
		sep, right, ok, again := s.root.insert(k)
		if right != nil {
			root := newInner()
			root.keys = append(root.keys, sep)
			root.kids = append(root.kids, s.root, right)
			s.root = root
		}
		if !again {
			if ok {
				s.size++
			}
			return ok
		}
	}
}

// insert adds k under n, reporting false if it is present. A node that
// overflows splits and returns its new right sibling with the sibling's
// lower bound, for the parent to take in. again reports a split that only
// made room: a key that would overflow a block's suffix bytes beside the
// keys of its half goes in on a later descent, each halving its leaf.
func (n *bnode) insert(k string) (sep string, right *bnode, ok, again bool) {
	if n.kids == nil {
		i := n.rank(k, false)
		if n.is(i, k) {
			return "", nil, false, false
		}
		right, again = n.insertLeaf(i, k)
		if right != nil {
			// A copy: a concatenation with an empty suffix would be a view
			// of the block, which a later repack rewrites in place.
			var kb keyBuf
			sep = string(right.appendKey(kb[:0], 0))
		}
		return sep, right, !again, again
	}
	i := n.child(k)
	if sep, right, ok, again = n.kids[i].insert(k); right == nil {
		return "", nil, ok, again
	}
	n.keys = slices.Insert(n.keys, i, sep)
	n.kids = slices.Insert(n.kids, i+1, right)
	if len(n.kids) <= fanout {
		return "", nil, ok, again
	}
	m := len(n.kids) / 2
	r := newInner()
	sep = n.keys[m-1]
	r.keys = append(r.keys, n.keys[m:]...)
	r.kids = append(r.kids, n.kids[m:]...)
	clear(n.keys[m-1:])
	clear(n.kids[m:])
	n.keys, n.kids = n.keys[:m-1], n.kids[:m]
	return sep, r, ok, again
}

// insertLeaf puts k at position i of leaf n, splitting it when k does not
// fit its block: a key past the last starts the new right sibling alone,
// keeping n as it is; otherwise the keys split — at i when k extends a
// run of inserts at or past the middle, else at the middle of their bytes
// — each half repacked under its own prefix, and k goes into its half (the
// left one when it splits at i) unless the suffix bytes would overflow
// there (again).
func (n *bnode) insertLeaf(i int, k string) (right *bnode, again bool) {
	if n.n == 0 {
		n.start(k, len(k))
		return nil, false
	}
	if p, need, data := n.room(k); need <= len(n.blk) && data <= maxData && n.n < maxKeys {
		n.put(i, k, p, need)
		return nil, false
	}
	r := &bnode{prev: n, next: n.next}
	if n.next != nil {
		n.next.prev = r
	}
	n.next = r
	c := int(n.n)
	if i == c {
		r.start(k, n.shared(c-1, k))
		return r, false
	}
	m := n.middle()
	if i >= m && n.hint == uint16(i)|hintRun {
		m = i
	}
	var buf [blockSize]byte
	old := n.snapshot(buf[:])
	r.pack(nil, old.common(m, c-1), span{&old, m, c})
	if m > 0 {
		n.pack(n.blk, old.common(0, m-1), span{&old, 0, m})
	} else {
		n.n, n.plen = 0, 0
	}
	t := n
	if i > m {
		t, i = r, i-m
	}
	if t.n == 0 {
		t.start(k, len(k))
		return r, false
	}
	p, need, data := t.room(k)
	if data > maxData {
		return r, true
	}
	t.put(i, k, p, need)
	return r, false
}

// get returns the row id of entry key k, if present.
func (s *ordIndex) get(k string) (int64, bool) {
	if n := s.leaf(k); n.is(n.rank(k, false), k) {
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
		i := n.rank(k, false)
		if !n.is(i, k) {
			return false
		}
		n.remove(i)
		return true
	}
	i := n.child(k)
	c := n.kids[i]
	if !c.delete(k) {
		return false
	}
	switch {
	case c.empty():
		n.drop(i)
	case !c.thin():
	case i > 0 && n.fit(i-1):
		n.merge(i - 1)
	case i+1 < len(n.kids) && n.fit(i):
		n.merge(i)
	}
	return true
}

// empty reports a leaf with no key or an inner node with no child.
func (n *bnode) empty() bool {
	if n.kids == nil {
		return n.n == 0
	}
	return len(n.kids) == 0
}

// thin reports a node under a quarter full: a leaf's block by bytes, an
// inner node by children.
func (n *bnode) thin() bool {
	if n.kids == nil {
		return n.used() < blockSize/4
	}
	return len(n.kids) < fanout/4
}

// merged is the prefix length of leaves l and r merged, and the bytes
// they then need.
func merged(l, r *bnode) (p, need int) {
	p = commonLen(l.prefix(), r.prefix())
	need = p + int(l.n)*(2+int(l.plen)-p) + l.data() + int(r.n)*(2+int(r.plen)-p) + r.data()
	return p, need
}

// fit reports whether kids[i] and kids[i+1] fit in one node.
func (n *bnode) fit(i int) bool {
	l, r := n.kids[i], n.kids[i+1]
	if l.kids != nil {
		return len(l.kids)+len(r.kids) <= fanout
	}
	_, need := merged(l, r)
	return need <= blockSize
}

// merge moves everything under kids[i+1] into kids[i] and drops kids[i+1].
func (n *bnode) merge(i int) {
	l, r := n.kids[i], n.kids[i+1]
	if l.kids != nil {
		l.keys = append(l.keys, n.keys[i])
		l.keys = append(l.keys, r.keys...)
		l.kids = append(l.kids, r.kids...)
	} else {
		var buf [blockSize]byte
		old := l.snapshot(buf[:])
		p, _ := merged(l, r)
		l.pack(l.blk, p, span{&old, 0, int(old.n)}, span{r, 0, int(r.n)})
	}
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
// largest. Each key is assembled in *kb: valid until fn returns. fn
// returning false stops the scan.
func (s *ordIndex) scanRange(lo, hi string, kb *[]byte, fn func(string, int64) bool) {
	n := s.leaf(lo)
	for i := n.rank(lo, false); n != nil; n, i = n.next, 0 {
		*kb = append((*kb)[:0], n.prefix()...)
		for ; i < int(n.n); i++ {
			*kb = append((*kb)[:n.plen], n.suffix(i)...)
			k := view(*kb)
			if hi != "" && k >= hi || !fn(k, keyRid(k)) {
				return
			}
		}
	}
}

// last returns the leaf and position of the last key below p (see
// below); nil when there is none. Every key left of a subtree is below the
// bound the descent passed, so a leaf where nothing is below p leaves the
// answer at the end of the previous leaf.
func (s *ordIndex) last(p string, le bool) (*bnode, int) {
	n := s.root
	for n.kids != nil {
		n = n.kids[search(n.keys, func(k string) bool { return below(k, p, le) })]
	}
	i := n.rank(p, le)
	if i == 0 {
		if n = n.prev; n == nil {
			return nil, 0
		}
		i = int(n.n)
	}
	return n, i - 1
}

// findLastLE returns the last key whose truncation to len(start) compares
// <= start — the last entry of start's prefix run — assembled in *kb. An
// empty start yields the overall last key. ok is false when no key
// qualifies.
func (s *ordIndex) findLastLE(start string, kb *[]byte) (string, bool) {
	n, i := s.last(start, true)
	return keyAt(n, i, kb)
}

// findLastLT returns the last key that compares strictly below k
// (reverse-scan resumption point), assembled in *kb.
func (s *ordIndex) findLastLT(k string, kb *[]byte) (string, bool) {
	n, i := s.last(k, false)
	return keyAt(n, i, kb)
}

func keyAt(n *bnode, i int, kb *[]byte) (string, bool) {
	if n == nil {
		return "", false
	}
	*kb = n.appendKey((*kb)[:0], i)
	return view(*kb), true
}

// scanReverseLE visits keys in descending order starting from the largest
// key whose truncation to len(start) is <= start (the whole index when
// start is empty), each assembled in *kb. fn returning false stops the
// scan.
func (s *ordIndex) scanReverseLE(start string, kb *[]byte, fn func(string, int64) bool) {
	n, i := s.last(start, true)
	walkBack(n, i, kb, fn)
}

// scanReverseLT visits keys in descending order starting from the largest
// key strictly below k (full-key comparison), each assembled in *kb.
func (s *ordIndex) scanReverseLT(k string, kb *[]byte, fn func(string, int64) bool) {
	n, i := s.last(k, false)
	walkBack(n, i, kb, fn)
}

// walkBack visits keys in descending order from position i of leaf n.
func walkBack(n *bnode, i int, kb *[]byte, fn func(string, int64) bool) {
	for ; n != nil; n = n.prev {
		*kb = append((*kb)[:0], n.prefix()...)
		for ; i >= 0; i-- {
			*kb = append((*kb)[:n.plen], n.suffix(i)...)
			if k := view(*kb); !fn(k, keyRid(k)) {
				return
			}
		}
		if n.prev != nil {
			i = int(n.prev.n) - 1
		}
	}
}

// scanPrefix visits all keys that begin with prefix, in order, each
// assembled in *kb.
func (s *ordIndex) scanPrefix(prefix string, kb *[]byte, fn func(string, int64) bool) {
	s.scanRange(prefix, "", kb, func(k string, rid int64) bool {
		return strings.HasPrefix(k, prefix) && fn(k, rid)
	})
}
