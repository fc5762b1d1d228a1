//go:build !race

package core

// Under the race detector sync.Pool drops a share of what is put back, so
// allocation counts there say nothing about the statement path.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// steadyPool assembles a WAL-backed CAS with nodes × 4 registered, idle
// VMs and returns the per-node steady heartbeat requests.
func steadyPool(t testing.TB, nodes int) (*CAS, []*HeartbeatRequest) {
	t.Helper()
	cas := walCAS(t)
	reqs := make([]*HeartbeatRequest, nodes)
	for i := range reqs {
		req := &HeartbeatRequest{
			Machine: fmt.Sprintf("node-%04d", i), Boot: true,
			Arch: "x86", OpSys: "linux", TotalMemoryMB: 2048, VMs: idleVMs(4),
		}
		if _, err := cas.Service.Heartbeat(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		req.Boot = false
		reqs[i] = req
	}
	return cas, reqs
}

// TestHeartbeatSteadyAllocs guards what one steady 4-VM heartbeat costs
// the server below the wire: Service.Heartbeat on a 1000-node pool — the
// machine Find, the Beat UPDATE, the VM Select, the two pairing joins and
// the group commit. Measured 332 allocations / 20.5 KB per beat before the
// statement path borrowed its working memory (executor scratch, lock-table
// freelist, compiled bean SQL, 32-byte Value), 137 / 8.7 KB after, 119 /
// 7.2 KB once the SELECTs' results were row references read by the
// driver's cursor and the bean scan targets the Meta's to lend, and 118 /
// 6.7 KB → 30 / 3.2 KB once the service ran on the engine's own
// transactions instead of database/sql's (beans' native transport: no
// per-transaction and per-query context and goroutine, no Rows, NamedValue
// slice or boxed cell). What remains is the beat's own: the engine's Tx;
// each SELECT's Rows and, for the two bean reads, its row references; the
// Machine entity, the VM slice's doublings, the statement text the Select
// appends and the map by slot; the two pairing maps; the UPDATE's new row
// image, its version and index entries; the commit's batch, channels and
// flush; the response and its commands. The budgets keep the slack they
// had over the measurement before (22 allocations, 2.5 KB), for a
// toolchain where any of that differs.
func TestHeartbeatSteadyAllocs(t *testing.T) {
	const (
		budgetAllocs = 52
		budgetBytes  = 5632
	)
	cas, reqs := steadyPool(t, 1000)
	ctx := context.Background()
	next := 0
	beatOnce := func() {
		req := reqs[next%len(reqs)]
		next++
		resp, err := cas.Service.Heartbeat(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Commands) != 4 {
			t.Fatalf("%d commands, want 4", len(resp.Commands))
		}
	}
	for i := 0; i < 2*len(reqs); i++ {
		beatOnce() // warm the plan cache, the pools and every node's rows
	}
	allocs := testing.AllocsPerRun(2000, beatOnce)

	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		beatOnce()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("steady heartbeat: %.0f allocations, %.0f bytes", allocs, bytes)
	if allocs > budgetAllocs {
		t.Errorf("%v allocations per steady heartbeat, budget %d", allocs, budgetAllocs)
	}
	if bytes > budgetBytes {
		t.Errorf("%.0f bytes per steady heartbeat, budget %d", bytes, budgetBytes)
	}
}

// TestKeyedCompletionBeatAllocs guards what a keyed 4-VM completion beat
// costs the server below the wire: Service.Heartbeat completing four jobs
// (each a job, run and match teardown, a job_history insert and the
// owner's credit) and storing its reply under the exchange's key. Measured
// 220 allocations / 28.5 KB per beat while the reply was stored as its XML
// (the 271-byte encoding cloned, then converted to a string), 220 /
// 27.8 KB once it was stored packed (33 bytes, packed into a buffer, then
// converted). The budgets keep the slack of TestHeartbeatSteadyAllocs.
func TestKeyedCompletionBeatAllocs(t *testing.T) {
	const (
		warm, runs   = 50, 200
		budgetAllocs = 242
		budgetBytes  = 30208
	)
	cas := walCAS(t)
	reqs := runningPool(t, cas.Service, warm+1+2*runs)
	keys := make([]string, len(reqs))
	for i := range keys {
		keys[i] = fmt.Sprintf("%032x", i)
	}
	ctx := context.Background()
	next := 0
	beatOnce := func() {
		req := reqs[next]
		resp, err := cas.Service.Heartbeat(withPendingReply(ctx, keys[next], ActionHeartbeat), req)
		next++
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Commands) != 4 || resp.Commands[3].Command != CmdOK {
			t.Fatalf("%s: %+v, want four OKs", req.Machine, resp.Commands)
		}
	}
	for next < warm {
		beatOnce()
	}
	allocs := testing.AllocsPerRun(runs, beatOnce)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		beatOnce()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("keyed completion beat: %.0f allocations, %.0f bytes", allocs, bytes)
	if allocs > budgetAllocs {
		t.Errorf("%v allocations per keyed completion beat, budget %d", allocs, budgetAllocs)
	}
	if bytes > budgetBytes {
		t.Errorf("%.0f bytes per keyed completion beat, budget %d", bytes, budgetBytes)
	}
}
