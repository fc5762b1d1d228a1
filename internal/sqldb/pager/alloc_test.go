//go:build !race

package pager

import (
	"runtime"
	"testing"
)

// TestEvictionCycleAllocs holds a dirty eviction and the reload behind it
// to small change: on a 2-frame pool over three pages every Fetch writes a
// dirty victim back and reads its own page in. Before the victim's buffer
// was handed to the write-back and the double-write image built in the
// pager's own buffer, each cycle allocated both afresh — two page-sized
// allocations, 5 allocations / 17.9 KB a cycle at 8 KiB pages; what is left
// is the write-back record and two channels, 3 / 0.3 KB.
func TestEvictionCycleAllocs(t *testing.T) {
	p, _, _ := newTestPager(t, DefaultPageSize)
	bp := NewPool(p, 2)
	var pids [3]PageID
	for i := range pids {
		pid, f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, true)
		pids[i] = pid
	}
	i := 0
	cycle := func() {
		f, err := bp.Fetch(pids[i%len(pids)])
		if err != nil {
			t.Fatal(err)
		}
		f.Lock()
		f.Data()[CheckHeader]++
		f.Unlock()
		bp.Unpin(f, true)
		i++
	}
	for range 8 { // the spare list, the double-write buffer and the file reach their sizes
		cycle()
	}
	evictions := bp.Stats().DirtyWrites
	const runs = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, cycle)
	runtime.ReadMemStats(&after)
	if got := bp.Stats().DirtyWrites - evictions; got < runs {
		t.Fatalf("%d dirty evictions in %d cycles: the cycle is not the one meant", got, runs)
	}
	perCycle := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("a dirty eviction + reload: %.0f allocations, %d bytes", allocs, perCycle)
	if allocs > 4 {
		t.Errorf("%.0f allocations a cycle, budget 4", allocs)
	}
	if perCycle >= DefaultPageSize/8 {
		t.Errorf("%d bytes a cycle: a page-sized allocation is back", perCycle)
	}
}
