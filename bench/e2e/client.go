package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/wire"
)

// Call kinds: latency samples are kept per kind so the end-to-end write
// and read metrics and the per-action layer metrics come from the same
// samples.
const (
	kHeartbeat = iota
	kSubmit
	kAccept
	kPoolStatus
	kQueueStatus
	kUserStats
	numKinds
)

var writeKinds = []int{kHeartbeat, kSubmit, kAccept}
var readKinds = []int{kPoolStatus, kQueueStatus, kUserStats}

// Slot states as the node (not the server) knows them.
const (
	slotIdle    = iota
	slotPending // MATCHINFO seen, acceptMatch not yet sent
	slotRunning
)

type slot struct {
	state   int
	jobID   int64
	matchID int64
	owner   string
}

// node is one simulated execute machine: what cj2node keeps in memory.
type node struct {
	name  string
	slots []slot
	req   core.HeartbeatRequest // reused; VMs rewritten before each beat

	// The standing load of the lifecycle workloads (see run.standingLoad):
	// a pinned node runs the same jobs for the whole run, a silent node
	// holds matches it never polls for.
	pinned, silent bool
}

// report fills the node's heartbeat request with its true slot states and
// says whether the beat carries a completion.
func (n *node) report(completeSeq int) (completing bool) {
	for i := range n.slots {
		st := core.VMStatus{Seq: int64(i), State: "idle"}
		if s := &n.slots[i]; s.state == slotRunning {
			st.State, st.JobID, st.Phase = "claimed", s.jobID, "running"
			if completeSeq == i {
				st.Phase, completing = "completed", true
			}
		}
		n.req.VMs[i] = st
	}
	return completing
}

// slotRef names one slot of one node in the mixed workload's queues.
type slotRef struct {
	n     *node
	seq   int
	offer core.VMCommand // the MATCHINFO that named it
}

// client is one closed-loop caller: it owns every other node, sends its
// next request only when the previous one is answered, and keeps every
// latency it observed.
type client struct {
	id     int
	sp     *spec
	caller wire.Caller
	tr     *tracer
	plan   *plan
	keys   *rand.Rand // idempotency keys come from the seed, not crypto/rand

	ownerLocks map[string]*sync.Mutex // shared by the clients; see beat

	nodes    []*node
	nextNode int // position in plan.Order
	nextBat  int // position in plan.Batches
	reads    int // status reads issued (drives the rotation)
	sinceRd  int // ops since the last status read
	reqSeq   uint32

	pending []slotRef // mixed: matches learned, not yet accepted
	running []slotRef // mixed: accepted, not yet completed

	lat       [numKinds][]int64 // ns, all calls since the run began
	calls     int               // exchanges attempted (resends not counted)
	failed    int               // attempts answered with a fault or error
	faults    map[string]int    // failures by fault code
	faultMsgs []string          // the first few failures verbatim, for the report
	submitted int               // jobs acknowledged by submitJob
	accepted  int
	acked     []int64 // job ids whose completion beat was acknowledged
	err       error   // first violation or unrecoverable failure; stops the run
}

func newClient(id int, sp *spec, caller wire.Caller, tr *tracer, p *plan, ownerLocks map[string]*sync.Mutex) *client {
	c := &client{
		id: id, sp: sp, caller: caller, tr: tr, plan: p, ownerLocks: ownerLocks,
		keys:   rand.New(rand.NewSource(int64(p.KeySeeds[0] ^ p.KeySeeds[1]))),
		faults: make(map[string]int),
	}
	for m := id; m < sp.Machines; m += numClients {
		n := &node{name: fmt.Sprintf("node%04d", m), slots: make([]slot, sp.VMs)}
		n.req = core.HeartbeatRequest{Machine: n.name, VMs: make([]core.VMStatus, sp.VMs)}
		c.nodes = append(c.nodes, n)
	}
	return c
}

func (c *client) newKey() string {
	return fmt.Sprintf("%016x%016x", c.keys.Uint64(), c.keys.Uint64())
}

func (c *client) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("client %d: %s", c.id, fmt.Sprintf(format, args...))
	}
}

// faultCode classifies a failed attempt: the wire fault code, except
// that the one service error the engine is known to raise under
// contention gets its own name.
func faultCode(err error) string {
	if strings.Contains(err.Error(), "deadlock") {
		return "Deadlock"
	}
	if f, ok := wire.AsFault(err); ok {
		return f.Code
	}
	return "Transport"
}

// call performs one exchange. A fault is a failed attempt: it is counted
// by code and the same request (same key) is resent up to maxResends
// times, as cj2node would; a call that never succeeds stops the run. The
// recorded latency is what the client observed, resends included.
func (c *client) call(kind int, action, key string, req, resp any) bool {
	if c.err != nil {
		return false
	}
	ctx := context.Background()
	if key != "" {
		ctx = wire.WithIdempotencyKey(ctx, key)
	}
	var sp openSpan
	if c.tr.active() {
		c.reqSeq++
		sp = c.tr.begin("client."+action, 0, uint32(c.id+1)<<28|c.reqSeq)
		ctx = withTraceRef(ctx, sp)
	}
	c.calls++
	t0 := time.Now()
	var err error
	for attempt := 0; attempt <= maxResends; attempt++ {
		if err = c.caller.Call(ctx, action, req, resp); err == nil {
			break
		}
		c.failed++
		c.faults[faultCode(err)]++
		if len(c.faultMsgs) < 3 {
			c.faultMsgs = append(c.faultMsgs, action+": "+err.Error())
		}
	}
	c.lat[kind] = append(c.lat[kind], int64(time.Since(t0)))
	c.tr.end(sp)
	if err != nil {
		c.fail("%s failed after %d resends: %v", action, maxResends, err)
		return false
	}
	return true
}

// register sends the node's boot heartbeat (keyed, as cj2node keys it).
func (c *client) register(n *node) {
	n.req.Boot, n.req.Arch, n.req.OpSys = true, "INTEL", "LINUX"
	n.req.TotalMemoryMB = int64(c.sp.VMs) * vmMemoryMB
	c.beat(n, -1)
	n.req.Boot, n.req.Arch, n.req.OpSys, n.req.TotalMemoryMB = false, "", "", 0
}

// beat sends one heartbeat reporting the node's true slot states. With
// completeSeq >= 0 that slot's job is reported completed (a keyed beat,
// since it changes server state). It checks the reply carries exactly one command per reported VM and
// returns the commands.
func (c *client) beat(n *node, completeSeq int) []core.VMCommand {
	key := ""
	if n.report(completeSeq) || n.req.Boot {
		key = c.newKey()
	}
	if completeSeq >= 0 {
		// Two completions for one owner at once deadlock on its accounting
		// row until the beans layer's retries run out (bench/README.md);
		// a workload on which calls fail measures nothing, so the clients
		// take turns per owner.
		mu := c.ownerLocks[n.slots[completeSeq].owner]
		mu.Lock()
		defer mu.Unlock()
	}
	var resp core.HeartbeatResponse
	if !c.call(kHeartbeat, core.ActionHeartbeat, key, &n.req, &resp) {
		return nil
	}
	if len(resp.Commands) != len(n.req.VMs) {
		c.fail("heartbeat reply for %s has %d commands for %d VMs", n.name, len(resp.Commands), len(n.req.VMs))
		return nil
	}
	for i, cmd := range resp.Commands {
		if cmd.Seq != int64(i) {
			c.fail("heartbeat reply for %s: command %d is for VM %d", n.name, i, cmd.Seq)
			return nil
		}
		if n.req.VMs[i].Phase == "completed" {
			if cmd.Command != core.CmdOK {
				c.fail("completion of job %d on %s/%d answered %s", n.slots[i].jobID, n.name, i, cmd.Command)
				return nil
			}
			c.acked = append(c.acked, n.slots[i].jobID)
			n.slots[i] = slot{}
		}
	}
	return resp.Commands
}

// accept commits one advertised match (keyed, as cj2node keys it).
func (c *client) accept(n *node, seq int, offer core.VMCommand) {
	var resp core.AcceptMatchResponse
	req := core.AcceptMatchRequest{Machine: n.name, Seq: int64(seq), MatchID: offer.MatchID, JobID: offer.JobID}
	if !c.call(kAccept, core.ActionAcceptMatch, c.newKey(), &req, &resp) {
		return
	}
	if !resp.OK {
		c.fail("acceptMatch %d for job %d on %s/%d refused: %s", offer.MatchID, offer.JobID, n.name, seq, resp.Reason)
		return
	}
	n.slots[seq] = slot{state: slotRunning, jobID: offer.JobID, matchID: offer.MatchID, owner: offer.Owner}
	c.accepted++
}

func (c *client) visit() *node {
	n := c.nodes[c.plan.Order[c.nextNode%len(c.plan.Order)]]
	c.nextNode++
	return n
}

// read issues one status read. which selects the call; the owner comes
// from the plan's reader list.
func (c *client) read(which int) {
	owner := c.plan.Readers[c.reads%len(c.plan.Readers)]
	c.reads++
	switch which {
	case 0:
		var resp core.PoolStatusResponse
		if !c.call(kPoolStatus, core.ActionPoolStatus, "", &core.PoolStatusRequest{}, &resp) {
			return
		}
		var vms, machines int64
		for _, s := range resp.VMs {
			vms += s.Count
		}
		for _, s := range resp.Machines {
			machines += s.Count
		}
		if vms != int64(c.sp.Machines*c.sp.VMs) || machines != int64(c.sp.Machines) {
			c.fail("poolStatus counts %d machines / %d VMs, want %d / %d", machines, vms, c.sp.Machines, c.sp.Machines*c.sp.VMs)
		}
	case 1:
		var resp core.QueueStatusResponse
		c.call(kQueueStatus, core.ActionQueueStatus, "", &core.QueueStatusRequest{Owner: owner, Limit: 100}, &resp)
	case 2:
		var resp core.UserStatsResponse
		if c.call(kUserStats, core.ActionUserStats, "", &core.UserStatsRequest{Owner: owner}, &resp) && resp.Owner != owner {
			c.fail("userStats for %s answered for %q", owner, resp.Owner)
		}
	case 3:
		var resp core.QueueStatusResponse
		c.call(kQueueStatus, core.ActionQueueStatus, "", &core.QueueStatusRequest{Limit: 1000}, &resp)
	}
}

// beatsRound is heartbeat_steady's loop: n idle heartbeats over the
// client's nodes in plan order, one poolStatus per ReadEvery beats.
func (c *client) beatsRound(n int) {
	for i := 0; i < n && c.err == nil; i++ {
		c.beat(c.visit(), -1)
		if c.sinceRd++; c.sinceRd == c.sp.ReadEvery {
			c.sinceRd = 0
			c.read(0)
		}
	}
}

// submitPhase submits the client's share of a wave: batches from the plan
// until quota jobs are queued (the last batch is cut to fit), with one
// status read per ReadEvery jobs — the submitter checking on its batch.
func (c *client) submitPhase(quota int) {
	for quota > 0 && c.err == nil {
		b := c.plan.Batches[c.nextBat%len(c.plan.Batches)]
		c.nextBat++
		count := min(b.Count, quota)
		req := core.SubmitRequest{Owner: b.Owner, Count: count, LengthSec: b.Length, MinMemoryMB: b.MemMB}
		var resp core.SubmitResponse
		if !c.call(kSubmit, core.ActionSubmitJob, c.newKey(), &req, &resp) {
			return
		}
		// Concurrent submits interleave ids, so the range may be wider than
		// the batch, never narrower.
		if got := resp.LastJobID - resp.FirstJobID + 1; resp.FirstJobID <= 0 || got < int64(count) {
			c.fail("submitJob of %d jobs answered ids %d..%d", count, resp.FirstJobID, resp.LastJobID)
			return
		}
		c.submitted += count
		quota -= count
		for c.sinceRd += count; c.sinceRd >= c.sp.ReadEvery; c.sinceRd -= c.sp.ReadEvery {
			c.read(c.reads % 3) // poolStatus, the owner's queue, the owner's accounting
		}
	}
}

// nodePhase plays the execute side of a wave for the client's nodes:
// every node polls once and accepts what it is offered, then every busy
// node reports its jobs running, then each job completed.
func (c *client) nodePhase() {
	var busy []*node
	for range c.nodes {
		if n := c.visit(); !n.silent && c.pollAndAccept(n) {
			busy = append(busy, n)
		}
	}
	for _, n := range busy {
		c.beat(n, -1)
	}
	// Jobs finish one at a time on nodes all over the pool, so completion
	// beats go slot by slot across the nodes, not node by node.
	for seq := 0; seq < c.sp.VMs; seq++ {
		for _, n := range busy {
			if !n.pinned && n.slots[seq].state == slotRunning {
				c.beat(n, seq)
			}
		}
	}
}

// pollAndAccept sends the node's periodic heartbeat, accepts every match
// it is offered, and reports whether the node now runs anything.
func (c *client) pollAndAccept(n *node) (busy bool) {
	for i, cmd := range c.beat(n, -1) {
		if cmd.Command == core.CmdMatchInfo && n.slots[i].state == slotIdle {
			c.accept(n, i, cmd)
		}
		busy = busy || n.slots[i].state == slotRunning
	}
	return busy
}

// completeAll reports each of the node's running jobs completed. Jobs
// finish one at a time, and cj2node beats as each does, so a completion
// beat carries one completed slot.
func (c *client) completeAll(n *node) {
	for i := range n.slots {
		if n.slots[i].state == slotRunning {
			c.beat(n, i)
		}
	}
}

// mixedReads is monitor_mixed's read rotation. poolStatus, the dashboard
// query, comes round twice, which also keeps the median read inside one
// shape's cost instead of on the boundary between two.
var mixedReads = []int{0, 1, 0, 2, 3}

// mixedRound is monitor_mixed's loop: blocks of ten writes then one read.
// Writes are heartbeats in plan order; every fifth write carries a
// lifecycle transition instead (an acceptMatch, or a completion beat)
// when one is available. Reads rotate through mixedReads.
// cycle, when non-nil, is called after every block (client 0 uses it to
// run ScheduleCycle at fixed block counts).
func (c *client) mixedRound(blocks int, cycle func()) {
	for b := 0; b < blocks && c.err == nil; b++ {
		for w := 0; w < mixedBlock-1; w++ {
			if w%5 == 4 && c.transition() {
				continue
			}
			c.plainBeat(c.visit())
		}
		c.read(mixedReads[(c.plan.ReadRot+c.reads)%len(mixedReads)])
		if cycle != nil {
			cycle()
		}
	}
}

// plainBeat is a periodic heartbeat; offers for idle slots are queued for
// a later transition write.
func (c *client) plainBeat(n *node) {
	for i, cmd := range c.beat(n, -1) {
		if cmd.Command == core.CmdMatchInfo && n.slots[i].state == slotIdle {
			c.pending = append(c.pending, slotRef{n, i, cmd})
			n.slots[i].state = slotPending
		}
	}
}

// transition performs one lifecycle step if any is available: complete
// the oldest running job once eight are running (or nothing is left to
// accept), otherwise accept the oldest known offer.
func (c *client) transition() bool {
	switch {
	case len(c.running) >= 8 || (len(c.pending) == 0 && len(c.running) > 0):
		r := c.running[0]
		c.running = c.running[1:]
		c.beat(r.n, r.seq)
	case len(c.pending) > 0:
		p := c.pending[0]
		c.pending = c.pending[1:]
		p.n.slots[p.seq] = slot{}
		c.accept(p.n, p.seq, p.offer)
		c.running = append(c.running, p)
	default:
		return false
	}
	return true
}
