package sqldb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// entry builds the entry key of vals at rid, as an index does.
func entry(rid int64, vals ...Value) string {
	return string(appendKeyRid([]byte(probe(vals...)), rid))
}

// probe builds the key of vals alone: a prefix of their entries' keys.
func probe(vals ...Value) string {
	var b []byte
	for _, v := range vals {
		b = appendKeyValue(b, v)
	}
	return string(b)
}

// intKey is the entry of the one-column key v at rid v.
func intKey(v int64) string { return entry(v, NewInt(v)) }

// keyInt decodes column i of an entry whose columns are all INTEGER.
func keyInt(k string, i int) int64 {
	return int64(binary.BigEndian.Uint64([]byte(k[9*i+1:9*i+9])) ^ 1<<63)
}

func TestOrdIndexInsertGetDelete(t *testing.T) {
	ix := newOrdIndex()
	if !ix.insert(entry(50, NewInt(5))) {
		t.Fatal("insert failed")
	}
	if ix.insert(entry(50, NewInt(5))) {
		t.Fatal("duplicate insert should fail")
	}
	rid, ok := ix.get(entry(50, NewInt(5)))
	if !ok || rid != 50 {
		t.Fatalf("get = %d %v", rid, ok)
	}
	if _, ok := ix.get(entry(50, NewInt(6))); ok {
		t.Fatal("get of absent key succeeded")
	}
	if !ix.delete(entry(50, NewInt(5))) {
		t.Fatal("delete failed")
	}
	if ix.delete(entry(50, NewInt(5))) {
		t.Fatal("double delete succeeded")
	}
	if ix.size != 0 {
		t.Fatalf("size = %d", ix.size)
	}
}

func TestOrdIndexScanRange(t *testing.T) {
	ix := newOrdIndex()
	for i := int64(0); i < 100; i += 2 {
		ix.insert(intKey(i))
	}
	var got []int64
	var kb []byte
	ix.scanRange(intKey(10), intKey(20), &kb, func(k string, rid int64) bool {
		got = append(got, rid)
		return true
	})
	want := []int64{10, 12, 14, 16, 18}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestOrdIndexScanRangeOpenEnds(t *testing.T) {
	ix := newOrdIndex()
	for i := int64(0); i < 10; i++ {
		ix.insert(intKey(i))
	}
	count := 0
	var kb []byte
	ix.scanRange("", "", &kb, func(string, int64) bool { count++; return true })
	if count != 10 {
		t.Fatalf("full scan visited %d", count)
	}
	count = 0
	ix.scanRange(intKey(7), "", &kb, func(string, int64) bool { count++; return true })
	if count != 3 {
		t.Fatalf("open-high scan visited %d", count)
	}
	count = 0
	ix.scanRange("", intKey(3), &kb, func(string, int64) bool { count++; return true })
	if count != 3 {
		t.Fatalf("open-low scan visited %d", count)
	}
}

func TestOrdIndexScanEarlyStop(t *testing.T) {
	ix := newOrdIndex()
	for i := int64(0); i < 10; i++ {
		ix.insert(intKey(i))
	}
	count := 0
	var kb []byte
	ix.scanRange("", "", &kb, func(string, int64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestOrdIndexScanPrefix(t *testing.T) {
	ix := newOrdIndex()
	// Composite (a, b) keys.
	for a := int64(0); a < 5; a++ {
		for b := int64(0); b < 4; b++ {
			ix.insert(entry(a*10+b, NewInt(a), NewInt(b)))
		}
	}
	var got []int64
	var kb []byte
	ix.scanPrefix(probe(NewInt(2)), &kb, func(k string, rid int64) bool {
		got = append(got, rid)
		return true
	})
	want := []int64{20, 21, 22, 23}
	if len(got) != len(want) {
		t.Fatalf("prefix scan got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix scan got %v, want %v", got, want)
		}
	}
}

func TestOrdIndexTextKeys(t *testing.T) {
	ix := newOrdIndex()
	words := []string{"delta", "alpha", "charlie", "bravo"}
	for i, w := range words {
		ix.insert(entry(int64(i), NewText(w)))
	}
	var order []string
	var kb []byte
	ix.scanRange("", "", &kb, func(k string, rid int64) bool {
		order = append(order, words[rid])
		return true
	})
	if !sort.StringsAreSorted(order) {
		t.Fatalf("text keys out of order: %v", order)
	}
}

// Property: the index agrees with a reference map under a random workload
// of inserts, deletes and lookups, and iterates in sorted order.
func TestPropertyOrdIndexMatchesReference(t *testing.T) {
	type op struct {
		Key    int16
		Delete bool
	}
	f := func(ops []op) bool {
		ix := newOrdIndex()
		ref := make(map[int64]int64)
		for _, o := range ops {
			k := int64(o.Key)
			if o.Delete {
				_, inRef := ref[k]
				if ix.delete(intKey(k)) != inRef {
					return false
				}
				delete(ref, k)
			} else {
				_, inRef := ref[k]
				if ix.insert(intKey(k)) == inRef {
					return false // insert must succeed iff absent
				}
				if !inRef {
					ref[k] = k
				}
			}
		}
		if ix.size != len(ref) {
			return false
		}
		var keys []int64
		ok := true
		var kb []byte
		ix.scanRange("", "", &kb, func(k string, rid int64) bool {
			kv := keyInt(k, 0)
			keys = append(keys, kv)
			if ref[kv] != rid {
				ok = false
			}
			return true
		})
		if !ok || len(keys) != len(ref) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	// Three levels and more (≫ fanout² keys): inserted in random order,
	// then thinned, every walk and seek agrees with the reference.
	ix := newOrdIndex()
	var ref refIndex
	rng := rand.New(rand.NewSource(5))
	const n = 12 * fanout * fanout
	for _, v := range rng.Perm(n) {
		k := pairKey(int64(v))
		if ix.insert(k) != ref.insert(k) {
			t.Fatalf("insert %d disagrees with the reference", v)
		}
	}
	if _, depth := checkTree(t, ix); depth < 3 {
		t.Fatalf("%d keys built a tree of %d levels, want 3 or more", n, depth)
	}
	for _, v := range rng.Perm(n)[:n/3] {
		k := pairKey(int64(v))
		if ix.delete(k) != ref.delete(k) {
			t.Fatalf("delete %d disagrees with the reference", v)
		}
	}
	if _, depth := checkTree(t, ix); depth < 3 {
		t.Fatalf("after deletes the tree has %d levels, want 3 or more", depth)
	}
	walksMatch(t, ix, ref)
	for _, v := range rng.Perm(n + 32)[:300] {
		matchesReference(t, ix, ref, pairKey, int64(v)-16, 40)
	}
}

// pairKey is the two-column entry (v/16, v%16) at rid v: runs of 16 entries
// share a one-column prefix.
func pairKey(v int64) string { return entry(v, NewInt(v>>4), NewInt(v&15)) }

// textKey is the two-column (INTEGER, TEXT) entry at rid v, keys of every
// length: a run of 64 entries shares its INTEGER and a TEXT head of 24 to
// 84 bytes, the TEXT's tail is 0 to 30 bytes long, and one entry in 61 has
// a tail longer than a default block.
func textKey(v int64) string {
	g := v >> 6
	head := strings.Repeat(string(rune('a'+g%26)), 24+int(g*7%61))
	tail := strings.Repeat("m", int(v*13%31))
	if v%61 == 0 {
		tail = strings.Repeat("w", blockSize+int(v%512))
	}
	return entry(v, NewInt(g), NewText(head+fmt.Sprintf("%02d", v%64)+tail))
}

// refIndex is the reference an ordIndex is held to: its keys, sorted.
type refIndex []string

func (r *refIndex) insert(k string) bool {
	i, found := slices.BinarySearch(*r, k)
	if !found {
		*r = slices.Insert(*r, i, k)
	}
	return !found
}

func (r *refIndex) delete(k string) bool {
	i, found := slices.BinarySearch(*r, k)
	if found {
		*r = slices.Delete(*r, i, i+1)
	}
	return found
}

// lastWhere is the position of the last key below holds for, -1 if none.
func (r refIndex) lastWhere(below func(string) bool) int {
	return sort.Search(len(r), func(i int) bool { return !below(r[i]) }) - 1
}

// upTo collects at most limit keys from a scan, copying each: a key the
// tree hands back is valid only until the next.
func upTo(limit int, scan func(*[]byte, func(string, int64) bool)) []string {
	var got []string
	var kb []byte
	scan(&kb, func(k string, rid int64) bool {
		if rid != keyRid(k) {
			panic("a scan handed a rid that is not its key's")
		}
		got = append(got, strings.Clone(k))
		return len(got) < limit
	})
	return got
}

// walksMatch holds both whole walks of ix, forward and reverse, to ref.
func walksMatch(t testing.TB, ix *ordIndex, ref refIndex) {
	t.Helper()
	fwd := upTo(len(ref)+1, func(kb *[]byte, fn func(string, int64) bool) { ix.scanRange("", "", kb, fn) })
	rev := upTo(len(ref)+1, func(kb *[]byte, fn func(string, int64) bool) { ix.scanReverseLE("", kb, fn) })
	if !slices.Equal(fwd, ref) || !slices.Equal(rev, reversed(ref)) {
		t.Fatalf("walks of %d and %d keys, reference %d", len(fwd), len(rev), len(ref))
	}
}

func reversed(keys []string) []string {
	r := slices.Clone(keys)
	slices.Reverse(r)
	return r
}

// matchesReference holds every read of ix at probes around keyOf(v) — the
// key, the key one rid on, and three prefixes of the key: its first
// column, all its columns, and its first half, which may end inside a
// column — to ref: get, findLastLE, findLastLT, forward range and prefix
// scans, and both reverse scans, each taking at most limit entries.
func matchesReference(t testing.TB, ix *ordIndex, ref refIndex, keyOf func(int64) string, v int64, limit int) {
	t.Helper()
	key := keyOf(v)
	cols := key[:len(key)-8]
	next := string(appendKeyRid([]byte(cols), v+1))
	for _, p := range []string{key, next, key[:9], cols, key[:len(key)/2]} {
		_, found := slices.BinarySearch(ref, p)
		if _, ok := ix.get(p); ok != found {
			t.Fatalf("get(v=%d) = %v, reference %v", v, ok, found)
		}
		le := ref.lastWhere(func(k string) bool { return comparePrefix(k, p) <= 0 })
		lt := ref.lastWhere(func(k string) bool { return k < p })
		var kb []byte
		for _, c := range []struct {
			name string
			at   int
			find func(string, *[]byte) (string, bool)
		}{{"findLastLE", le, ix.findLastLE}, {"findLastLT", lt, ix.findLastLT}} {
			k, ok := c.find(p, &kb)
			if ok != (c.at >= 0) || ok && k != ref[c.at] {
				t.Fatalf("%s(v=%d) = %x %v, reference position %d", c.name, v, k, ok, c.at)
			}
		}
		bound := keyOf(v + int64(limit)/2)
		lo, hi := sort.SearchStrings(ref, p), sort.SearchStrings(ref, bound)
		end := lo
		for end < len(ref) && strings.HasPrefix(ref[end], p) {
			end++
		}
		for _, c := range []struct {
			name      string
			got, want []string
		}{
			{"scanRange to the end", upTo(limit, func(kb *[]byte, fn func(string, int64) bool) { ix.scanRange(p, "", kb, fn) }), ref[lo:min(len(ref), lo+limit)]},
			{"scanRange to a bound", upTo(limit, func(kb *[]byte, fn func(string, int64) bool) { ix.scanRange(p, bound, kb, fn) }), ref[lo:max(lo, min(hi, lo+limit))]},
			{"scanPrefix", upTo(limit, func(kb *[]byte, fn func(string, int64) bool) { ix.scanPrefix(p, kb, fn) }), ref[lo:min(end, lo+limit)]},
			{"scanReverseLE", upTo(limit, func(kb *[]byte, fn func(string, int64) bool) { ix.scanReverseLE(p, kb, fn) }), reversed(ref[max(0, le+1-limit) : le+1])},
			{"scanReverseLT", upTo(limit, func(kb *[]byte, fn func(string, int64) bool) { ix.scanReverseLT(p, kb, fn) }), reversed(ref[max(0, lt+1-limit) : lt+1])},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Fatalf("%s(v=%d): %d keys, reference %d", c.name, v, len(c.got), len(c.want))
			}
		}
	}
}

// checkTree holds ix to the B+tree's shape and returns its leaf count and
// depth: every leaf at one depth and its block in its layout (leafKeys);
// keys ascending and inside the bounds the separators above them set;
// every inner array at the one capacity it was made with; no empty node
// below the root and a root with two children or none; the leaf chain
// linking the leaves in key order both ways; size counting the keys.
func checkTree(t testing.TB, ix *ordIndex) (leaves, depth int) {
	t.Helper()
	var chain []*bnode
	var walk func(n *bnode, lo, hi string, d int) // "" bounds nothing: no key is empty
	walk = func(n *bnode, lo, hi string, d int) {
		keys := n.keys
		if n.kids == nil {
			keys = leafKeys(t, n)
		}
		for i, k := range keys {
			if i > 0 && keys[i-1] >= k || lo != "" && k < lo || hi != "" && k >= hi {
				t.Fatalf("level %d: key %d of %d out of order or out of bounds", d, i, len(keys))
			}
		}
		if n.kids == nil {
			if n.n == 0 && n != ix.root {
				t.Fatalf("an empty leaf at level %d", d)
			}
			if depth == 0 {
				depth = d
			} else if d != depth {
				t.Fatalf("leaves at levels %d and %d", depth, d)
			}
			chain = append(chain, n)
			return
		}
		if cap(n.keys) != fanout || len(n.kids) != len(n.keys)+1 || len(n.kids) > fanout || cap(n.kids) != fanout+1 {
			t.Fatalf("level %d: %d children (capacity %d) under %d separators (capacity %d)", d, len(n.kids), cap(n.kids), len(n.keys), cap(n.keys))
		}
		if n == ix.root && len(n.kids) < 2 {
			t.Fatalf("an inner root with %d children", len(n.kids))
		}
		for i, c := range n.kids {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			walk(c, clo, chi, d+1)
		}
	}
	walk(ix.root, "", "", 1)
	size := 0
	for i, l := range chain {
		size += int(l.n)
		var prev, next *bnode
		if i > 0 {
			prev = chain[i-1]
		}
		if i+1 < len(chain) {
			next = chain[i+1]
		}
		if l.prev != prev || l.next != next {
			t.Fatalf("leaf %d of %d is chained out of order", i, len(chain))
		}
	}
	if size != ix.size {
		t.Fatalf("the leaves hold %d keys, size says %d", size, ix.size)
	}
	return len(chain), depth
}

// leafKeys holds leaf n's block to its layout and returns its keys: a
// block of at least blockSize bytes; the prefix, the offsets and the
// suffixes apart in it, the suffixes within maxData bytes; offsets that
// never fall, the first suffix ending at the block's end; every key, the
// prefix and its suffix, at least a row id long.
func leafKeys(t testing.TB, n *bnode) []string {
	t.Helper()
	c, p := int(n.n), int(n.plen)
	if len(n.blk) < blockSize || c < 0 || p < 0 || p > len(n.blk) {
		t.Fatalf("a leaf of %d keys under a %d-byte prefix in a %d-byte block", c, p, len(n.blk))
	}
	if data := n.data(); data > maxData || p+2*c+data > len(n.blk) {
		t.Fatalf("a %d-byte prefix, %d offsets and %d suffix bytes overlap in a %d-byte block", p, c, data, len(n.blk))
	}
	keys := make([]string, c)
	for i := range keys {
		if n.dist(i) < n.dist(i-1) {
			t.Fatalf("offset %d of %d is %d, below the one before, %d", i, c, n.dist(i), n.dist(i-1))
		}
		if keys[i] = string(n.appendKey(nil, i)); len(keys[i]) < 8 {
			t.Fatalf("key %d of %d is %d bytes, shorter than a row id", i, c, len(keys[i]))
		}
	}
	return keys
}

func TestOrdIndexLargeSequential(t *testing.T) {
	ix := newOrdIndex()
	const n = 20000
	for i := int64(0); i < n; i++ {
		if !ix.insert(intKey(i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if ix.size != n {
		t.Fatalf("size = %d", ix.size)
	}
	// Delete every third key.
	for i := int64(0); i < n; i += 3 {
		if !ix.delete(intKey(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := int64(0); i < n; i++ {
		_, ok := ix.get(intKey(i))
		if (i%3 == 0) == ok {
			t.Fatalf("key %d presence wrong: %v", i, ok)
		}
	}
}

func BenchmarkOrdIndexInsert(b *testing.B) {
	ix := newOrdIndex()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.insert(intKey(rng.Int63()))
	}
}

func BenchmarkOrdIndexGet(b *testing.B) {
	ix := newOrdIndex()
	for i := int64(0); i < 100000; i++ {
		ix.insert(intKey(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.get(intKey(int64(i % 100000)))
	}
}

func collectReverse(scan func(*[]byte, func(string, int64) bool)) []int64 {
	var got []int64
	var kb []byte
	scan(&kb, func(k string, rid int64) bool {
		got = append(got, keyInt(k, 0))
		return true
	})
	return got
}

func TestOrdIndexScanReverse(t *testing.T) {
	ix := newOrdIndex()
	perm := rand.New(rand.NewSource(7)).Perm(100)
	for _, v := range perm {
		ix.insert(intKey(int64(v)))
	}
	// Whole-index reverse walk: 99..0.
	got := collectReverse(func(kb *[]byte, fn func(string, int64) bool) { ix.scanReverseLE("", kb, fn) })
	if len(got) != 100 || got[0] != 99 || got[99] != 0 {
		t.Fatalf("reverse full scan = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]-1 {
			t.Fatalf("reverse scan out of order at %d: %v", i, got[:i+1])
		}
	}
	// LE start mid-range: begins at the start key itself.
	got = collectReverse(func(kb *[]byte, fn func(string, int64) bool) { ix.scanReverseLE(intKey(50), kb, fn) })
	if got[0] != 50 || got[len(got)-1] != 0 {
		t.Fatalf("reverse LE 50 = %v...%v", got[0], got[len(got)-1])
	}
	// LT start: strictly below.
	got = collectReverse(func(kb *[]byte, fn func(string, int64) bool) { ix.scanReverseLT(intKey(50), kb, fn) })
	if got[0] != 49 {
		t.Fatalf("reverse LT 50 starts at %v", got[0])
	}
	// Early stop.
	n := 0
	var kb []byte
	ix.scanReverseLE("", &kb, func(string, int64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestOrdIndexReversePrefixRun(t *testing.T) {
	// Composite keys (group, seq): LE on a one-column prefix must land on
	// the LAST entry of that group's run.
	ix := newOrdIndex()
	for g := int64(0); g < 5; g++ {
		for s := int64(0); s < 10; s++ {
			ix.insert(entry(g*100+s, NewInt(g), NewInt(s)))
		}
	}
	var got []int64
	var kb []byte
	ix.scanReverseLE(probe(NewInt(2)), &kb, func(k string, rid int64) bool {
		if keyInt(k, 0) != 2 {
			return false
		}
		got = append(got, keyInt(k, 1))
		return true
	})
	if len(got) != 10 || got[0] != 9 || got[9] != 0 {
		t.Fatalf("prefix run reverse = %v", got)
	}
}

// TestOrdIndexLeafChainSurvivesDeletes walks the leaf chain both ways as
// leaves split, thin out, merge and go: after every-other-key deletes,
// after whole leaves' worth of keys are deleted from the middle, and after
// everything is inserted again. Keys inserted in rising order fill every
// leaf full: no leaf but the last has room for the first key of the next.
func TestOrdIndexLeafChainSurvivesDeletes(t *testing.T) {
	ix := newOrdIndex()
	const n = 50 * fanout
	for i := int64(0); i < n; i++ {
		ix.insert(intKey(i))
	}
	leaves, _ := checkTree(t, ix)
	for l := firstLeaf(ix); l.next != nil; l = l.next {
		if _, need, _ := l.room(l.next.prefix() + l.next.suffix(0)); need <= len(l.blk) {
			t.Fatalf("an appended leaf of %d keys has room for the next key", l.n)
		}
	}
	if leaves != appendedLeaves {
		t.Fatalf("%d keys appended fill %d leaves, want %d", n, leaves, appendedLeaves)
	}
	for i := int64(0); i < n; i += 2 {
		ix.delete(intKey(i))
	}
	checkTree(t, ix)
	got := collectReverse(func(kb *[]byte, fn func(string, int64) bool) { ix.scanReverseLE("", kb, fn) })
	if len(got) != n/2 {
		t.Fatalf("got %d keys", len(got))
	}
	for i, v := range got {
		if want := int64(n - 1 - 2*i); v != want {
			t.Fatalf("reverse after deletes: got[%d] = %d, want %d", i, v, want)
		}
	}
	leaves, _ = checkTree(t, ix)
	for i := int64(n / 2); i < n/2+12*fanout; i++ {
		ix.delete(intKey(i))
	}
	if after, _ := checkTree(t, ix); after >= leaves {
		t.Fatalf("deleting a run of %d keys left %d leaves of %d", 6*fanout, after, leaves)
	}
	for i := int64(0); i < n; i++ {
		ix.insert(intKey(i))
	}
	checkTree(t, ix)
	got = collectReverse(func(kb *[]byte, fn func(string, int64) bool) { ix.scanReverseLE("", kb, fn) })
	if len(got) != n || got[0] != n-1 || got[n-1] != 0 {
		t.Fatalf("reverse after reinsert: %d keys, %d..%d", len(got), got[0], got[len(got)-1])
	}
	var fwd []int64
	var kb []byte
	ix.scanRange("", "", &kb, func(k string, rid int64) bool {
		fwd = append(fwd, keyInt(k, 0))
		return true
	})
	slices.Reverse(got)
	if !slices.Equal(fwd, got) {
		t.Fatal("forward and reverse walks disagree")
	}
}

// appendedLeaves is how many leaves the intKeys 0..3199 fill when
// inserted in rising order. A key is 17 bytes: a tag byte and eight bytes
// of value, then the eight of its rid. A run of 256 keys shares the tag and
// the value's seven high bytes, so a leaf whose keys stay within one run
// holds them under an 8-byte prefix as 9-byte suffixes, 11 bytes an entry:
// 92 keys in a block. A leaf that straddles two runs has a 7-byte prefix
// and 12 bytes an entry, 84 keys. The root takes the first 92, every
// later leaf starts under its first key's prefix with its left neighbour,
// and shortens it once it takes in a run's end and the next run's start.
const appendedLeaves = 36

// firstLeaf is the leftmost leaf of ix.
func firstLeaf(ix *ordIndex) *bnode {
	n := ix.root
	for n.kids != nil {
		n = n.kids[0]
	}
	return n
}

// TestOrdIndexChurnKeepsLeavesFull inserts keys in random order, deletes
// nine in ten of them at random and inserts them again, and holds both
// walk orders to the reference throughout. Thinned leaves must merge: a
// leaf under a quarter of a block in use merges into a neighbour it fits
// beside, so the leaves left average well above an eighth of a block in
// use, where without merges each would keep a tenth of what it held.
// Deleting every key collapses the tree to an empty root leaf.
func TestOrdIndexChurnKeepsLeavesFull(t *testing.T) {
	const n = 20 * fanout * fanout / 4
	ix := newOrdIndex()
	var ref refIndex
	rng := rand.New(rand.NewSource(11))
	keys := make([]string, n)
	for i, v := range rng.Perm(n) {
		keys[i] = intKey(int64(v))
	}
	for _, k := range keys {
		ix.insert(k)
		ref.insert(k)
	}
	walksMatch(t, ix, ref)
	full, _ := checkTree(t, ix)
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys[:n*9/10] {
		ix.delete(k)
		ref.delete(k)
	}
	walksMatch(t, ix, ref)
	leaves, _ := checkTree(t, ix)
	used := 0
	for l := firstLeaf(ix); l != nil; l = l.next {
		used += l.used()
	}
	t.Logf("%d keys in %d leaves; after deleting nine in ten, %d in %d, %d bytes in use", n, full, ix.size, leaves, used)
	if used < leaves*blockSize/8 {
		t.Errorf("%d bytes in use in %d leaves: thinned leaves did not merge", used, leaves)
	}
	for _, k := range keys[:n*9/10] {
		ix.insert(k)
		ref.insert(k)
	}
	walksMatch(t, ix, ref)
	checkTree(t, ix)
	for _, k := range keys {
		ix.delete(k)
	}
	if ix.root.kids != nil || ix.root.n != 0 || ix.size != 0 {
		t.Fatalf("deleting every key left a root of %d children, %d keys", len(ix.root.kids), ix.root.n)
	}
}

// TestOrdIndexKeysPastAnOffset inserts, among short keys, keys whose
// suffixes alone pass what a block's uint16 offsets reach: such a key
// ends up alone in a leaf, all of it the leaf's prefix, after as many
// splits as it takes, and every walk and seek still agrees with the
// reference, through deletes that bring the short keys back together.
func TestOrdIndexKeysPastAnOffset(t *testing.T) {
	ix := newOrdIndex()
	var ref refIndex
	key := func(v int64) string {
		n := int(v % 7)
		if v%5 == 0 {
			n = maxData/2 + int(v)*1000 // 32 KiB and up: two fill a leaf's offsets
		}
		return entry(v, NewText(fmt.Sprintf("%03d", v%13)+strings.Repeat("x", n)))
	}
	rng := rand.New(rand.NewSource(9))
	for _, v := range rng.Perm(120) {
		k := key(int64(v))
		if ix.insert(k) != ref.insert(k) {
			t.Fatalf("insert %d disagrees with the reference", v)
		}
		checkTree(t, ix)
	}
	walksMatch(t, ix, ref)
	for v := range int64(120) {
		matchesReference(t, ix, ref, key, v, 8)
	}
	for _, v := range rng.Perm(120)[:80] {
		k := key(int64(v))
		if ix.delete(k) != ref.delete(k) {
			t.Fatalf("delete %d disagrees with the reference", v)
		}
		checkTree(t, ix)
	}
	walksMatch(t, ix, ref)
}

// FuzzOrdIndex runs index operations decoded from its input against
// refIndex. An operation is four bytes: kind, count, and a 12-bit key
// number v. The kind's top bit picks the key family — pairKey(v), 26-byte
// keys, or textKey(v), keys of every length sharing long prefixes, some
// longer than a default block — and its low three bits the operation.
// Inserts and deletes come in runs of count+1 keys — consecutive, which
// appends, or spread by a stride — so a few dozen bytes grow the tree past
// fanout² keys and thin it again: leaf and inner splits, prefixes
// shortened and re-derived, merges, dropped leaves and root collapse all
// happen. Reads are get, findLastLE/LT, forward range and prefix scans and
// both reverse scans around v; the tree's shape, each block's layout
// included, is checked after every insert or delete run, its whole walks
// in both directions at the end.
func FuzzOrdIndex(f *testing.F) {
	run := func(kind, count byte, v uint16) []byte { return []byte{kind, count, byte(v >> 8), byte(v)} }
	var grow, shrink []byte
	for v := uint16(0); v < 4096; v += 256 {
		grow = append(grow, run(1, 255, v)...) // strided: leaves split in the middle
	}
	grow = append(grow, run(4, 9, 1000)...)
	for v := uint16(0); v < 4096; v += 256 {
		shrink = append(shrink, run(2, 255, v)...)
		shrink = append(shrink, run(5+byte(v>>8)%3, 40, v+100)...)
	}
	f.Add(append(append([]byte{}, grow...), shrink...))
	f.Add(append(run(0, 255, 0), append(run(0, 255, 256), append(run(3, 200, 7), run(6, 80, 300)...)...)...))
	f.Add(append(run(0, 3, 1), run(7, 5, 2)...))
	var text []byte
	for v := uint16(0); v < 4096; v += 512 {
		text = append(text, run(0x81, 255, v)...)
		text = append(text, run(0x80, 200, v+300)...)
	}
	text = append(text, run(0x84, 30, 61)...)
	for v := uint16(0); v < 4096; v += 512 {
		text = append(text, run(0x83, 255, v)...)
		text = append(text, run(0x85+byte(v>>9)%3, 40, v+122)...)
	}
	f.Add(text)
	f.Add(append(append(run(0x80, 255, 0), run(0, 255, 0)...), append(run(0x82, 250, 3), run(0x87, 60, 5)...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const domain = 1 << 12
		ix := newOrdIndex()
		var ref refIndex
		for ; len(data) >= 4; data = data[4:] {
			kind, count := data[0]&7, int(data[1])+1
			keyOf := pairKey
			if data[0]&0x80 != 0 {
				keyOf = textKey
			}
			v := int64(binary.BigEndian.Uint16(data[2:4]) % domain)
			stride := int64(1)
			if kind == 1 || kind == 3 {
				stride = 37 // coprime to the domain: a run of 256 touches 256 keys
			}
			switch kind {
			case 0, 1:
				for j := range int64(count) {
					k := keyOf((v + j*stride) % domain)
					if ix.insert(k) != ref.insert(k) {
						t.Fatal("insert disagrees with the reference")
					}
				}
			case 2, 3:
				for j := range int64(count) {
					k := keyOf((v + j*stride) % domain)
					if ix.delete(k) != ref.delete(k) {
						t.Fatal("delete disagrees with the reference")
					}
				}
			default:
				matchesReference(t, ix, ref, keyOf, v, count)
				continue
			}
			checkTree(t, ix)
		}
		walksMatch(t, ix, ref)
	})
}

// TestOrdIndexInterleavedAppendsFillLeaves appends to an index at several
// places at once — 10,000 jobs under (state, priority, id), their
// priorities cycling through seven values, as jobs_state_priority takes
// them — and pins the leaves they fill: a run of inserts that overflows a
// leaf past its middle splits it at the insertion point, so the run keeps
// filling the left part instead of leaving a half behind that never gets
// another key. With middle splits alone the leaves end about a quarter
// full: 448 of them. Random keys (30,000 of 32 hex digits) rarely make a
// run, so they keep splitting at the middle: 1,865 leaves with middle
// splits alone, and a coincidental run may cost a leaf or two (across
// seeds, −1 to +1), not more than a thousandth.
func TestOrdIndexInterleavedAppendsFillLeaves(t *testing.T) {
	if size := unsafe.Sizeof(bnode{}); size != 96 {
		t.Errorf("a bnode is %d bytes, want 96 (a size class)", size)
	}
	ix := newOrdIndex()
	for id := int64(1); id <= 10000; id++ {
		ix.insert(entry(id-1, NewText("idle"), NewFloat(float64(id%7)/10), NewInt(id)))
	}
	leaves, _ := checkTree(t, ix)
	t.Logf("interleaved appends: %+v", countLeaves(ix))
	if leaves > 150 {
		t.Errorf("10,000 interleaved appends fill %d leaves, want at most 150", leaves)
	}

	ix = newOrdIndex()
	rng := rand.New(rand.NewSource(5))
	for rid := int64(0); rid < 30000; rid++ {
		ix.insert(entry(rid, NewText(fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64()))))
	}
	leaves, _ = checkTree(t, ix)
	t.Logf("random keys: %+v", countLeaves(ix))
	const middle = 1865
	if leaves > middle+middle/1000 {
		t.Errorf("30,000 random keys fill %d leaves, middle splits %d", leaves, middle)
	}
}
