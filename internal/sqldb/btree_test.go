package sqldb

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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
	ix.scanRange(intKey(10), intKey(20), func(k string, rid int64) bool {
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
	ix.scanRange("", "", func(string, int64) bool { count++; return true })
	if count != 10 {
		t.Fatalf("full scan visited %d", count)
	}
	count = 0
	ix.scanRange(intKey(7), "", func(string, int64) bool { count++; return true })
	if count != 3 {
		t.Fatalf("open-high scan visited %d", count)
	}
	count = 0
	ix.scanRange("", intKey(3), func(string, int64) bool { count++; return true })
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
	ix.scanRange("", "", func(string, int64) bool {
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
	ix.scanPrefix(probe(NewInt(2)), func(k string, rid int64) bool {
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
	ix.scanRange("", "", func(k string, rid int64) bool {
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
		ix.scanRange("", "", func(k string, rid int64) bool {
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

func collectReverse(scan func(func(string, int64) bool)) []int64 {
	var got []int64
	scan(func(k string, rid int64) bool {
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
	got := collectReverse(func(fn func(string, int64) bool) { ix.scanReverseLE("", fn) })
	if len(got) != 100 || got[0] != 99 || got[99] != 0 {
		t.Fatalf("reverse full scan = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]-1 {
			t.Fatalf("reverse scan out of order at %d: %v", i, got[:i+1])
		}
	}
	// LE start mid-range: begins at the start key itself.
	got = collectReverse(func(fn func(string, int64) bool) { ix.scanReverseLE(intKey(50), fn) })
	if got[0] != 50 || got[len(got)-1] != 0 {
		t.Fatalf("reverse LE 50 = %v...%v", got[0], got[len(got)-1])
	}
	// LT start: strictly below.
	got = collectReverse(func(fn func(string, int64) bool) { ix.scanReverseLT(intKey(50), fn) })
	if got[0] != 49 {
		t.Fatalf("reverse LT 50 starts at %v", got[0])
	}
	// Early stop.
	n := 0
	ix.scanReverseLE("", func(string, int64) bool { n++; return n < 5 })
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
	ix.scanReverseLE(probe(NewInt(2)), func(k string, rid int64) bool {
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

func TestOrdIndexPrevPointersSurviveDeletes(t *testing.T) {
	ix := newOrdIndex()
	for i := int64(0); i < 50; i++ {
		ix.insert(intKey(i))
	}
	for i := int64(0); i < 50; i += 2 {
		ix.delete(intKey(i))
	}
	got := collectReverse(func(fn func(string, int64) bool) { ix.scanReverseLE("", fn) })
	if len(got) != 25 {
		t.Fatalf("got %d keys", len(got))
	}
	for i, v := range got {
		if want := int64(49 - 2*i); v != want {
			t.Fatalf("reverse after deletes: got[%d] = %d, want %d", i, v, want)
		}
	}
	// Reinsert into the gaps and re-check full ordering both ways.
	for i := int64(0); i < 50; i += 2 {
		ix.insert(intKey(i))
	}
	got = collectReverse(func(fn func(string, int64) bool) { ix.scanReverseLE("", fn) })
	if len(got) != 50 || got[0] != 49 || got[49] != 0 {
		t.Fatalf("reverse after reinsert = %v", got)
	}
	var fwd []int64
	ix.scanRange("", "", func(k string, rid int64) bool {
		fwd = append(fwd, keyInt(k, 0))
		return true
	})
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	for i := range fwd {
		if fwd[i] != got[i] {
			t.Fatalf("forward/reverse disagree at %d", i)
		}
	}
}
