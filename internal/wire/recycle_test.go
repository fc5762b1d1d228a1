package wire_test

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"condorj2/internal/core"
	"condorj2/internal/wire"
)

// vmList is n VM reports in the given state, each with every field set
// when the state is "claimed".
func vmList(n int, state string) []core.VMStatus {
	vms := make([]core.VMStatus, n)
	for i := range vms {
		vms[i] = core.VMStatus{Seq: int64(i), State: state}
		if state == "claimed" {
			vms[i].JobID, vms[i].Phase, vms[i].ExitCode = int64(100+i), "completed", 3
		}
	}
	return vms
}

// TestTypedRecyclesCleanly: Typed lends each exchange a request and a
// reply recycled from the one before, and neither shows any of it. A
// boot beat sets Arch, OpSys, Boot and TotalMemoryMB (zero on a plain
// beat) and claimed VMs with every field; the plain beat after it must
// read them all as zero, and its reply must start out empty. Lists of 4, 2, then 4
// VMs decode into one backing array: the 2-VM list does not shrink its
// capacity for good.
func TestTypedRecyclesCleanly(t *testing.T) {
	var seen []core.HeartbeatRequest
	var arrays []*core.VMStatus
	mux := wire.NewMux()
	mux.Handle(core.ActionHeartbeat, wire.Typed(func(_ context.Context, req *core.HeartbeatRequest, resp *core.HeartbeatResponse) error {
		if !reflect.DeepEqual(*resp, core.HeartbeatResponse{Commands: resp.Commands}) || len(resp.Commands) != 0 {
			t.Errorf("%s: lent a reply holding %+v", req.Machine, *resp)
		}
		kept := *req
		kept.VMs = slices.Clone(req.VMs)
		seen = append(seen, kept)
		arrays = append(arrays, backing(req.VMs))
		for _, vm := range req.VMs {
			resp.Commands = append(resp.Commands, core.VMCommand{Seq: vm.Seq, Command: core.CmdOK})
		}
		if req.Boot {
			resp.Commands[0].Owner = "booted"
		}
		return nil
	}))
	caller := &wire.Local{Mux: mux}
	sent := []core.HeartbeatRequest{
		{Machine: "n1", Boot: true, Arch: "x86", OpSys: "linux", TotalMemoryMB: 2048, VMs: vmList(4, "claimed")},
		{Machine: "n2", VMs: vmList(2, "idle")},
		{Machine: "n3", VMs: vmList(4, "idle")},
	}
	for i := range sent {
		var resp core.HeartbeatResponse
		if err := caller.Call(context.Background(), core.ActionHeartbeat, &sent[i], &resp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seen[i], sent[i]) {
			t.Errorf("beat %d: handler saw\n %+v\nsent\n %+v", i, seen[i], sent[i])
		}
		want := make([]core.VMCommand, len(sent[i].VMs))
		for j := range want {
			want[j] = core.VMCommand{Seq: int64(j), Command: core.CmdOK}
		}
		if sent[i].Boot {
			want[0].Owner = "booted"
		}
		if !reflect.DeepEqual(resp.Commands, want) {
			t.Errorf("beat %d: reply %+v, want %+v", i, resp.Commands, want)
		}
	}
	// Under the race detector the pools drop a share of what they are
	// given back, so only a build without it recycles every time.
	if !wire.RaceEnabled && (arrays[1] != arrays[0] || arrays[2] != arrays[0]) {
		t.Errorf("lists of 4, 2 and 4 VMs decoded into %p, %p, %p: want one backing array", arrays[0], arrays[1], arrays[2])
	}
}

// backing is the address of a list's backing array.
func backing(vms []core.VMStatus) *core.VMStatus {
	return &vms[:1][0]
}

// TestRecycledMessagesArePoisoned: a handler that keeps its request, a
// list of it, or its reply past the exchange breaks the lifetime rule.
// Under the race detector what it kept reads poison once the exchange is
// over — every string wire.PoisonText, every signed number its type's
// least value, every list run to its capacity — so the bug shows where it
// is; otherwise it reads as emptied.
func TestRecycledMessagesArePoisoned(t *testing.T) {
	var req *core.HeartbeatRequest
	var vms []core.VMStatus
	var resp *core.HeartbeatResponse
	mux := wire.NewMux()
	mux.Handle(core.ActionHeartbeat, wire.Typed(func(_ context.Context, r *core.HeartbeatRequest, w *core.HeartbeatResponse) error {
		req, vms, resp = r, r.VMs, w // the bug under test
		w.Commands = append(w.Commands, core.VMCommand{Seq: 0, Command: core.CmdOK})
		return nil
	}))
	beat := &core.HeartbeatRequest{Machine: "n1", TotalMemoryMB: 2048, VMs: vmList(2, "idle")}
	if err := (&wire.Local{Mux: mux}).Call(context.Background(), core.ActionHeartbeat, beat, nil); err != nil {
		t.Fatal(err)
	}
	if !wire.RaceEnabled {
		if !reflect.DeepEqual(*req, core.HeartbeatRequest{VMs: req.VMs}) || len(req.VMs) != 0 || vms[0] != (core.VMStatus{}) || len(resp.Commands) != 0 {
			t.Fatalf("kept past the exchange: request %+v, its list %+v, reply %+v; want them emptied", *req, vms, *resp)
		}
		return
	}
	if req.Machine != wire.PoisonText || req.TotalMemoryMB != math.MinInt64 || !req.Boot {
		t.Errorf("kept request reads %+v, want poison", *req)
	}
	if len(req.VMs) != cap(req.VMs) || vms[1].State != wire.PoisonText || vms[1].Seq != math.MinInt64 {
		t.Errorf("kept list reads %+v, want poison to its capacity", vms)
	}
	if len(resp.Commands) == 0 || resp.Commands[0].Command != wire.PoisonText {
		t.Errorf("kept reply reads %+v, want poison", *resp)
	}
}
