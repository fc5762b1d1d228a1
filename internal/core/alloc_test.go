//go:build !race

package core

// Under the race detector sync.Pool drops a share of what is put back, so
// allocation counts there say nothing about the statement path.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"condorj2/internal/wire"
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
// the server below the wire: Service.Heartbeat on a 1000-node pool, every
// VM idle. Measured 332 allocations / 20.5 KB per beat before the
// statement path borrowed its working memory (executor scratch, lock-table
// freelist, compiled bean SQL, 32-byte Value), 137 / 8.7 KB after, 119 /
// 7.2 KB once the SELECTs' results were row references read by the
// driver's cursor and the bean scan targets the Meta's to lend, 118 /
// 6.7 KB → 30 / 3.2 KB once the service ran on the engine's own
// transactions instead of database/sql's (beans' native transport: no
// per-transaction and per-query context and goroutine, no Rows, NamedValue
// slice or boxed cell), and 30 / 2.9 KB → 17 / 1.7 KB once a beat inside
// the heartbeat interval left the machine's stamp alone and an all-idle
// beat skipped the two pairing joins. That beat is now a pure read: the
// machine Find and the VM Select in a transaction that commits nothing.
// 17 / 1.7 KB → 8 / 968 B once each SELECT's Rows and row references were
// lent by the transaction's scratch instead of allocated, the VM slice
// was allocated once at the result's length and the commands once at the
// report's. What remains is the engine's Tx; the Machine entity, the VM
// slice, the statement text the Select appends and the map by slot; the
// response and its commands. The budgets keep the slack they had over the
// measurement before (22 allocations, 2.7 KB), for a toolchain where any
// of that differs: 39 / 4,480 B → 30 / 3,712 B.
//
// A beat a whole interval after its machine's stamp takes the write path:
// the Beat UPDATE's new row image, its version and index entries, and the
// commit's batch, channels and flush: measured 26 / 2.3 KB, 23 / 2.0 KB
// before results were lent, 14 / 1.3 KB after. Its budgets keep the same
// slack: 52 / 5,632 B → 36 / 4,025 B.
func TestHeartbeatSteadyAllocs(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		advance                   time.Duration // the clock's step before each beat
		budgetAllocs, budgetBytes float64
	}{
		{"inside the interval", 0, 30, 3712},
		{"past the interval", 60 * time.Second, 36, 4025},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cas, reqs := steadyPool(t, 1000)
			clk := cas.clock.(*fakeClock)
			ctx := context.Background()
			next := 0
			beatOnce := func() {
				clk.advance(tc.advance)
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
			commits := cas.Engine.WALStats().Commits
			allocs := testing.AllocsPerRun(2000, beatOnce)

			const runs = 2000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				beatOnce()
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			commits = cas.Engine.WALStats().Commits - commits
			t.Logf("steady heartbeat %s: %.0f allocations, %.0f bytes, %d commits", tc.name, allocs, bytes, commits)
			if wantWrites := tc.advance > 0; (commits > 0) != wantWrites {
				t.Errorf("%d commits over the measured beats; want writes: %v", commits, wantWrites)
			}
			if allocs > tc.budgetAllocs {
				t.Errorf("%v allocations per steady heartbeat, budget %v", allocs, tc.budgetAllocs)
			}
			if bytes > tc.budgetBytes {
				t.Errorf("%.0f bytes per steady heartbeat, budget %v", bytes, tc.budgetBytes)
			}
		})
	}
}

// TestKeyedCompletionBeatAllocs guards what a keyed 4-VM completion beat
// costs the server below the wire: Service.Heartbeat completing four jobs
// (each a job, run and match teardown, a job_history insert and the
// owner's credit) and storing its reply under the exchange's key. Measured
// 220 allocations / 28.5 KB per beat while the reply was stored as its XML
// (the 271-byte encoding cloned, then converted to a string), 220 /
// 27.8 KB once it was stored packed (33 bytes, packed into a buffer, then
// converted), 171 / 17.9 KB before and 131 / 14.3 KB after each query's
// Rows and row references were lent by the transaction and the VM slice
// and the commands were allocated at their final size. The budgets keep
// the slack of TestHeartbeatSteadyAllocs (22 allocations, 2.7 KB): 242 /
// 30,208 B → 153 / 17,040 B.
func TestKeyedCompletionBeatAllocs(t *testing.T) {
	const (
		warm, runs   = 50, 200
		budgetAllocs = 153
		budgetBytes  = 17040
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

// TestHeartbeatExchangeAllocs guards what one steady 4-VM heartbeat costs
// as an exchange, both ends counted: through wire.Local into NewMux(s) on
// a 1000-node pool, every VM idle, the caller decoding each reply into the
// one it keeps. Measured 23 allocations / 1,321 B while the server built
// each request value and its VM list, the reply and its commands, and
// named both actions per exchange; 16 / 657 B once Typed lent recycled
// request and reply values and the mux named the actions by its route.
// What remains is the service's own below the wire (the Tx, the Machine,
// the VM slice and its map: TestHeartbeatSteadyAllocs, less the reply it
// allocates) and the decoded strings: the request's Machine and States
// on the server, the reply's Commands on the caller. The budgets leave
// room for a field or two, not for the per-exchange messages again.
func TestHeartbeatExchangeAllocs(t *testing.T) {
	const budgetAllocs, budgetBytes = 20, 1000
	cas, reqs := steadyPool(t, 1000)
	caller := &wire.Local{Mux: NewMux(cas.Service)}
	ctx := context.Background()
	var resp HeartbeatResponse
	next := 0
	beatOnce := func() {
		req := reqs[next%len(reqs)]
		next++
		resp.Commands = resp.Commands[:0]
		if err := caller.Call(ctx, ActionHeartbeat, req, &resp); err != nil {
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
	t.Logf("steady heartbeat exchange: %.0f allocations, %.0f bytes", allocs, bytes)
	if allocs > budgetAllocs {
		t.Errorf("%v allocations per steady heartbeat exchange, budget %v", allocs, budgetAllocs)
	}
	if bytes > budgetBytes {
		t.Errorf("%.0f bytes per steady heartbeat exchange, budget %v", bytes, budgetBytes)
	}
}

// TestBusyHeartbeatExchangeAllocs guards what a busy 4-VM heartbeat costs
// as an exchange, both ends counted, on the 1000-node pool of
// TestHeartbeatExchangeAllocs: one machine whose first VM holds a pending
// match (the node reports it idle and is answered MATCHINFO) and whose
// second runs a job the node reports executing, beating over and over,
// so each beat reads its pairings and writes nothing. Measured 20
// allocations / 1,393 B while the pairings were two joins read into two
// maps (at these sizes each join was driven by a seq scan of its one-row
// matches or runs table); 16 / 673 B — the steady beat's count — once
// they were one statement, driven from the machine's VMs by index and
// read into a slice on the stack. The budgets leave room for a field or
// two, not for the maps again.
func TestBusyHeartbeatExchangeAllocs(t *testing.T) {
	const budgetAllocs, budgetBytes = 18, 960
	cas, reqs := steadyPool(t, 1000)
	ctx := context.Background()
	if _, err := cas.Service.Submit(ctx, &SubmitRequest{Owner: "u", Count: 2, LengthSec: 60}); err != nil {
		t.Fatal(err)
	}
	busy := reqs[0]
	for _, sql := range []string{
		`INSERT INTO matches (job_id, vm_id) VALUES (1, 1)`,
		`UPDATE jobs SET state = 'matched' WHERE id = 1`,
		`UPDATE vms SET state = 'matched' WHERE id = 1`,
		`INSERT INTO runs (job_id, vm_id) VALUES (2, 2)`,
		`UPDATE jobs SET state = 'running' WHERE id = 2`,
		`UPDATE vms SET state = 'claimed' WHERE id = 2`,
	} {
		if _, err := cas.Engine.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	busy.VMs[1] = VMStatus{Seq: 1, State: "claimed", JobID: 2}
	caller := &wire.Local{Mux: NewMux(cas.Service)}
	var resp HeartbeatResponse
	beatOnce := func() {
		resp.Commands = resp.Commands[:0]
		if err := caller.Call(ctx, ActionHeartbeat, busy, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Commands) != 4 || resp.Commands[0].Command != CmdMatchInfo || resp.Commands[1].Command != CmdOK {
			t.Fatalf("commands %+v, want MATCHINFO then OKs", resp.Commands)
		}
	}
	for i := 0; i < 100; i++ {
		beatOnce() // warm the plan cache and the pools
	}
	builds := cas.Engine.PlannerStats().HashBuilds
	commits := cas.Engine.WALStats().Commits
	allocs := testing.AllocsPerRun(2000, beatOnce)
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		beatOnce()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("busy heartbeat exchange: %.0f allocations, %.0f bytes", allocs, bytes)
	if n := cas.Engine.PlannerStats().HashBuilds - builds; n != 0 {
		t.Errorf("%d hash tables built over the measured beats, want 0", n)
	}
	if n := cas.Engine.WALStats().Commits - commits; n != 0 {
		t.Errorf("%d commits over the measured beats, want 0", n)
	}
	if allocs > budgetAllocs {
		t.Errorf("%v allocations per busy heartbeat exchange, budget %v", allocs, budgetAllocs)
	}
	if bytes > budgetBytes {
		t.Errorf("%.0f bytes per busy heartbeat exchange, budget %v", bytes, budgetBytes)
	}
}
