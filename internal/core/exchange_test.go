package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"condorj2/internal/wire"
)

// TestExchangeRecyclesCleanly: the web services decode each request into
// a value recycled from an earlier exchange and fill each reply in one
// (wire.Typed), and no exchange sees what an earlier one left. A boot
// beat carries Arch, OpSys and TotalMemoryMB (left zero by a plain
// beat); the first beat of an unknown machine after it, without them, registers the
// machine from what it carries alone. Lists of 4 and 2 VMs alternate, and
// each reply holds one command per VM. A keyed beat repeated is answered
// from the reply store as its stored bytes, and an unkeyed beat after the
// replay gets a reply of its own. Under the race
// detector every value taken back is poisoned, so a service method that
// kept one past its exchange would read poison.
func TestExchangeRecyclesCleanly(t *testing.T) {
	cas, _ := newTestCAS(t)
	caller := &wire.Local{Mux: NewMux(cas.Service)}
	call := func(ctx context.Context, req *HeartbeatRequest) *HeartbeatResponse {
		t.Helper()
		var resp HeartbeatResponse
		if err := caller.Call(ctx, ActionHeartbeat, req, &resp); err != nil {
			t.Fatalf("%s: %v", req.Machine, err)
		}
		if len(resp.Commands) != len(req.VMs) {
			t.Fatalf("%s: %d commands for %d VMs", req.Machine, len(resp.Commands), len(req.VMs))
		}
		return &resp
	}
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		booted, plain := fmt.Sprintf("booted-%d", round), fmt.Sprintf("plain-%d", round)
		call(ctx, &HeartbeatRequest{Machine: booted, Boot: true, Arch: "x86", OpSys: "linux", TotalMemoryMB: 2048, VMs: idleVMs(4)})
		call(ctx, &HeartbeatRequest{Machine: plain, VMs: idleVMs(2)})
		var arch, opsys string
		var mem, vms int64
		if err := cas.Pool.QueryRow(`SELECT arch, opsys, total_memory_mb, vm_count FROM machines WHERE name = ?`, plain).Scan(&arch, &opsys, &mem, &vms); err != nil {
			t.Fatal(err)
		}
		if arch != "" || opsys != "" || mem != 0 || vms != 2 {
			t.Fatalf("%s registered as arch %q, opsys %q, %d MB, %d VMs; want none of the boot beat's, 2 VMs", plain, arch, opsys, mem, vms)
		}
	}

	keyed := wire.WithIdempotencyKey(ctx, "recycled-key")
	req := &HeartbeatRequest{Machine: "booted-0", VMs: idleVMs(4)}
	first := call(keyed, req)
	replays := cas.Service.DedupStats().Replays
	if again := call(keyed, req); !reflect.DeepEqual(again, first) {
		t.Fatalf("replay %+v, first answer %+v", again, first)
	}
	if n := cas.Service.DedupStats().Replays - replays; n != 1 {
		t.Fatalf("%d replays, want 1", n)
	}
	call(ctx, &HeartbeatRequest{Machine: "plain-0", VMs: idleVMs(2)})
	err := caller.Call(keyed, ActionSubmitJob, &SubmitRequest{Owner: "alice", Count: 1, LengthSec: 60}, &SubmitResponse{})
	if f, ok := wire.AsFault(err); !ok || f.Code != FaultKeyReused {
		t.Fatalf("a heartbeat's key reused for a submit: %v, want a %s fault", err, FaultKeyReused)
	}
}
