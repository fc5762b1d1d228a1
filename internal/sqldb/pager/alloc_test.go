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

// TestPoolHoldsOnlyResidentPages holds a pool to memory for the pages it
// has held, not for its size: a 65,536-frame pool over a 16-page store,
// every page read in, holds about 16 page buffers beside one pointer per
// frame — where a pool that made every frame up front held 512 MiB.
func TestPoolHoldsOnlyResidentPages(t *testing.T) {
	p, _, _ := newTestPager(t, DefaultPageSize)
	const pages, frames = 16, 1 << 16
	batch := make([]BatchPage, pages)
	for i := range batch {
		batch[i] = BatchPage{PID: p.Allocate(), Data: fillPage(p, byte(i+1))}
	}
	if err := p.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	batch = nil
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	bp := NewPool(p, frames)
	for pid := PageID(1); pid <= pages; pid++ {
		f, err := bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, false)
	}
	held := heap() - before
	if got := bp.Stats().Resident; got != pages {
		t.Fatalf("%d pages resident, want %d", got, pages)
	}
	runtime.KeepAlive(bp)
	limit := int64(pages*DefaultPageSize + frames*8 + 256<<10)
	t.Logf("a %d-frame pool holding %d pages: %d KiB (limit %d KiB)", frames, pages, held>>10, limit>>10)
	if held > limit {
		t.Errorf("the pool holds %d KiB, over %d KiB: frames are made before they hold a page", held>>10, limit>>10)
	}
}
