package cluster

import (
	"context"
	"slices"
	"testing"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/sim"
	"condorj2/internal/wire"
)

// The protocol suite: one agent on the virtual-time engine, its wire a
// wire.FaultTransport that a per-case script aims at single exchanges —
// "lose the reply of the first heartbeat that reports a completion" — so
// each defence the agent carries meets exactly the failure it is there for.

// wireCall is one logged exchange: what was sent, under which idempotency
// key, when, and how it ended.
type wireCall struct {
	at     time.Time
	action string
	key    string
	hb     *core.HeartbeatRequest   // a copy; nil for acceptMatch
	accept *core.AcceptMatchRequest // a copy; nil for heartbeat
	err    error
}

// reports tells whether a heartbeat exchange reports some VM in phase.
func (x *wireCall) reports(phase string) bool {
	return x.hb != nil && slices.ContainsFunc(x.hb.VMs, func(st core.VMStatus) bool { return st.Phase == phase })
}

type fate int

const (
	deliver fate = iota
	loseRequest
	loseReply
	shed // refused unsent with an Overloaded fault carrying shedHint
)

// shedHint is the backoff a shed exchange's fault asks for: longer than
// the default idle poll, so the chain's own delay cannot hide it.
const shedHint = 7 * time.Second

// scriptedWire is the agent's caller: it logs every exchange, lets script
// pick its fate and tamper edit a delivered heartbeat reply.
type scriptedWire struct {
	eng    *sim.Engine
	ft     *wire.FaultTransport
	script func(x *wireCall) fate
	tamper func(x *wireCall, resp *core.HeartbeatResponse)
	log    []*wireCall
}

func (w *scriptedWire) Call(ctx context.Context, action string, req, resp any) error {
	x := &wireCall{at: w.eng.Now(), action: action, key: wire.IdempotencyKeyFromContext(ctx)}
	switch r := req.(type) {
	case *core.HeartbeatRequest:
		c := *r
		c.VMs = slices.Clone(r.VMs)
		x.hb = &c
	case *core.AcceptMatchRequest:
		c := *r
		x.accept = &c
	}
	w.ft.DropRequest, w.ft.DropReply = 0, 0
	f := deliver
	if w.script != nil {
		f = w.script(x)
	}
	switch f {
	case loseRequest:
		w.ft.DropRequest = 1
	case loseReply:
		w.ft.DropReply = 1
	}
	if f == shed {
		x.err = &wire.Fault{Code: wire.FaultOverloaded, Message: "shed", RetryAfterMs: shedHint.Milliseconds()}
	} else {
		x.err = w.ft.Call(ctx, action, req, resp)
	}
	if hr, ok := resp.(*core.HeartbeatResponse); ok && x.err == nil && w.tamper != nil {
		w.tamper(x, hr)
	}
	w.log = append(w.log, x)
	return x.err
}

// matching returns the logged exchanges pred accepts, in order.
func (w *scriptedWire) matching(pred func(*wireCall) bool) []*wireCall {
	var out []*wireCall
	for _, x := range w.log {
		if pred(x) {
			out = append(out, x)
		}
	}
	return out
}

// once applies f to the first exchange pred accepts and delivers the rest.
func once(f fate, pred func(*wireCall) bool) func(*wireCall) fate {
	done := false
	return func(x *wireCall) fate {
		if !done && pred(x) {
			done = true
			return f
		}
		return deliver
	}
}

func reportsCompleted(x *wireCall) bool { return x.reports("completed") }
func isAccept(x *wireCall) bool         { return x.accept != nil }

// protoRig is a rig with one node behind a scripted wire.
type protoRig struct {
	*rig
	wire     *scriptedWire
	node     *Startd
	finished []time.Time // when the node's jobs finished, in order
}

func newProtoRig(t *testing.T, vms, jobs int, length time.Duration) *protoRig {
	t.Helper()
	r := newRig(t)
	r.submit(t, jobs, length)
	w := &scriptedWire{eng: r.eng, ft: wire.NewFaultTransport(r.loc, 1)}
	// Jitter off: the cases below reason about which event precedes which.
	k := NewKernel(r.eng, NodeConfig{Name: "node1", VMs: vms, Jitter: -1})
	p := &protoRig{rig: r, wire: w, node: NewStartd(r.eng, k, w, StartdConfig{})}
	p.node.OnComplete = func(_ int64, at time.Time) { p.finished = append(p.finished, at) }
	return p
}

// exactlyOnce requires every submitted job to have run once on the node
// and completed once at the CAS, with nothing left behind.
func (r *rig) exactlyOnce(t *testing.T, node *Startd, jobs int) {
	t.Helper()
	if node.Completed != jobs {
		t.Errorf("node ran %d jobs, want %d", node.Completed, jobs)
	}
	var rows, distinct, left int
	r.cas.Pool.QueryRow(`SELECT count(*), count(DISTINCT job_id) FROM job_history WHERE outcome = 'completed'`).Scan(&rows, &distinct)
	r.cas.Pool.QueryRow(`SELECT count(*) FROM jobs`).Scan(&left)
	if rows != jobs || distinct != jobs || left != 0 {
		t.Errorf("%d completed history rows for %d jobs, %d still queued; want %d, %d, 0", rows, distinct, left, jobs, jobs)
	}
}

func TestStartdProtocol(t *testing.T) {
	cases := []struct {
		name      string
		vms, jobs int
		length    time.Duration
		script    func(*wireCall) fate
		tamper    func(*wireCall, *core.HeartbeatResponse) bool // reports whether it edited the reply
		check     func(t *testing.T, p *protoRig)
	}{
		{
			// The CAS registered the node; the node never heard. The retry
			// must replay, not record the boot attributes a second time.
			name: "lost_boot_reply", vms: 1, jobs: 1, length: time.Minute,
			script: once(loseReply, func(x *wireCall) bool { return x.hb != nil && x.hb.Boot }),
			check: func(t *testing.T, p *protoRig) {
				boots := p.wire.matching(func(x *wireCall) bool { return x.hb != nil && x.hb.Boot })
				if len(boots) != 2 || boots[0].key == "" || boots[0].key != boots[1].key || boots[1].err != nil {
					t.Fatalf("boot beats %+v, want a failed one and its retry under the same key", boots)
				}
				var attrs int
				p.cas.Pool.QueryRow(`SELECT count(*) FROM machine_history WHERE machine = 'node1'`).Scan(&attrs)
				if replays := p.cas.Service.DedupStats().Replays; attrs != 4 || replays != 1 {
					t.Fatalf("%d boot attributes recorded, %d replays; want 4 and 1", attrs, replays)
				}
			},
		},
		{
			// The CAS recorded the completion; the node never heard.
			name: "lost_completion_reply", vms: 1, jobs: 1, length: time.Minute,
			script: once(loseReply, reportsCompleted),
			check: func(t *testing.T, p *protoRig) {
				beats := p.wire.matching(reportsCompleted)
				if len(beats) != 2 || beats[0].key == "" || beats[0].key != beats[1].key || beats[1].err != nil {
					t.Fatalf("completion beats %+v, want a failed one and its retry under the same key", beats)
				}
				if replays := p.cas.Service.DedupStats().Replays; replays != 1 {
					t.Fatalf("%d replays, want 1: the retry was executed, not replayed", replays)
				}
			},
		},
		{
			// VM0's completion beat loses its reply; VM1's job finishes
			// before the retry. The retry is the kept request — it says VM1
			// is running — so its acknowledgement must leave VM1's flag set.
			// Freeing VM1 there reports it idle next, the CAS tears its run
			// down, and the job runs a second time.
			name: "finish_behind_a_kept_beat", vms: 2, jobs: 2, length: time.Minute,
			script: once(loseReply, reportsCompleted),
			check: func(t *testing.T, p *protoRig) {
				beats := p.wire.matching(reportsCompleted)
				if len(beats) != 3 || beats[0].key != beats[1].key || beats[2].key == beats[1].key {
					t.Fatalf("completion beats %+v, want the lost one, its retry, and one more for the second job", beats)
				}
				retry := beats[1]
				if len(p.finished) != 2 || !p.finished[1].Before(retry.at) || !retry.reports("running") {
					t.Fatalf("scenario missed: second job finished at %v, retry at %v reports %+v", p.finished, retry.at, retry.hb.VMs)
				}
				if accepts := p.wire.matching(isAccept); len(accepts) != 2 {
					t.Fatalf("%d accepts for 2 jobs: a job was started twice", len(accepts))
				}
			},
		},
		{
			// The CAS committed the claim; the node never heard. It must ask
			// again under the same key before it says anything else.
			name: "lost_accept_reply", vms: 1, jobs: 1, length: time.Minute,
			script: once(loseReply, isAccept),
			check: func(t *testing.T, p *protoRig) {
				accepts := p.wire.matching(isAccept)
				if len(accepts) != 2 || accepts[0].key == "" || accepts[0].key != accepts[1].key || accepts[1].err != nil {
					t.Fatalf("accepts %+v, want a failed one and its retry under the same key", accepts)
				}
				between := p.wire.matching(func(x *wireCall) bool {
					return x.hb != nil && x.at.After(accepts[0].at) && x.at.Before(accepts[1].at)
				})
				if len(between) != 0 {
					t.Fatalf("%d heartbeats went out while the accept was unanswered", len(between))
				}
				if replays := p.cas.Service.DedupStats().Replays; replays != 1 || p.node.AcceptFailures != 1 {
					t.Fatalf("%d replays, %d accept failures; want 1 and 1", replays, p.node.AcceptFailures)
				}
			},
		},
		{
			name: "stale_release", vms: 1, jobs: 1, length: 5 * time.Minute,
			tamper: func(x *wireCall, resp *core.HeartbeatResponse) bool {
				if !x.reports("running") {
					return false
				}
				resp.Commands = append(resp.Commands, core.VMCommand{
					Seq: 0, Command: core.CmdRelease, JobID: x.hb.VMs[0].JobID + 1000,
				})
				return true
			},
			check: func(t *testing.T, p *protoRig) {
				if p.node.Released != 0 {
					t.Fatalf("the node abandoned its job on a RELEASE naming another")
				}
			},
		},
		{
			// No VM is idle, so no poll is armed: without the chain the
			// completion would wait for the next periodic beat.
			name: "completion_retried_on_the_chain", vms: 1, jobs: 1, length: time.Minute,
			script: once(loseRequest, reportsCompleted),
			check: func(t *testing.T, p *protoRig) {
				beats := p.wire.matching(reportsCompleted)
				if len(beats) != 2 || beats[1].at.Sub(beats[0].at) != 2*time.Second {
					t.Fatalf("completion beats %+v, want the retry one idle-poll interval after the failure", beats)
				}
			},
		},
		{
			// The CAS sheds the completion beat and asks for a backoff
			// longer than the idle poll: nothing goes out before it ends.
			name: "overload_hint_delays_the_retry", vms: 1, jobs: 1, length: time.Minute,
			script: once(shed, reportsCompleted),
			check: func(t *testing.T, p *protoRig) {
				beats := p.wire.matching(reportsCompleted)
				if len(beats) != 2 || beats[1].err != nil {
					t.Fatalf("completion beats %+v, want a shed one and its retry", beats)
				}
				next := p.wire.matching(func(x *wireCall) bool { return x.at.After(beats[0].at) })
				if gap := next[0].at.Sub(beats[0].at); gap < shedHint {
					t.Fatalf("next exchange %v after the shed beat, want at least the server's %v hint", gap, shedHint)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newProtoRig(t, tc.vms, tc.jobs, tc.length)
			p.wire.script = tc.script
			tampered := tc.tamper == nil
			if tc.tamper != nil {
				p.wire.tamper = func(x *wireCall, resp *core.HeartbeatResponse) {
					tampered = tc.tamper(x, resp) || tampered
				}
			}
			if err := p.node.Boot(); err != nil {
				t.Fatal(err)
			}
			p.eng.RunFor(15 * time.Minute)
			if !tampered {
				t.Fatal("the reply the case tampers with never came")
			}
			tc.check(t, p)
			p.exactlyOnce(t, p.node, tc.jobs)
		})
	}
}

// TestStartdBackoffIsBounded takes the CAS away for ten minutes from a
// node whose only VM is busy (no idle poll): the retries must thin out to
// the heartbeat cadence instead of hammering at the poll interval or
// compounding a chain per failed beat, and the job must still be reported.
func TestStartdBackoffIsBounded(t *testing.T) {
	p := newProtoRig(t, 1, 1, time.Hour)
	down := false
	p.wire.script = func(*wireCall) fate {
		if down {
			return loseRequest
		}
		return deliver
	}
	if err := p.node.Boot(); err != nil {
		t.Fatal(err)
	}
	p.eng.RunFor(5 * time.Minute)
	if p.node.RunningVMs() != 1 {
		t.Fatal("the job is not running before the outage")
	}
	down = true
	before := len(p.wire.log)
	p.eng.RunFor(10 * time.Minute)
	attempts := p.wire.log[before:]
	down = false
	// One per minute from the ticker, one per minute from the chain once it
	// reaches its cap, five while it doubles there: 25.
	if len(attempts) < 10 || len(attempts) > 30 {
		t.Fatalf("%d attempts in a ten-minute outage, want the heartbeat cadence's 10 to 30", len(attempts))
	}
	if gap := attempts[1].at.Sub(attempts[0].at); gap != 2*time.Second {
		t.Fatalf("first retry after %v, want the idle-poll interval", gap)
	}
	p.eng.RunFor(time.Hour)
	p.exactlyOnce(t, p.node, 1)
}

// TestStartdReregistersAfterUnknownVM loses the node's VM tuples at the
// CAS while a completion is flagged: the beat reporting it gets the typed
// UnknownVM fault, the node registers again at once, and the completion —
// still flagged — is delivered exactly once, with that registration.
func TestStartdReregistersAfterUnknownVM(t *testing.T) {
	p := newProtoRig(t, 1, 1, time.Minute)
	p.wire.script = once(deliver, func(x *wireCall) bool {
		if !x.reports("completed") {
			return false
		}
		if _, err := p.cas.Pool.Exec(`DELETE FROM vms WHERE machine = 'node1'`); err != nil {
			t.Error(err)
		}
		return true
	})
	if err := p.node.Boot(); err != nil {
		t.Fatal(err)
	}
	p.eng.RunFor(5 * time.Minute)

	beats := p.wire.matching(reportsCompleted)
	if len(beats) != 2 {
		t.Fatalf("%d beats reported the completion, want the refused one and the registration", len(beats))
	}
	if f, ok := wire.AsFault(beats[0].err); !ok || f.Code != core.FaultUnknownVM || beats[0].hb.Boot {
		t.Fatalf("first report: boot=%v err=%v, want a plain beat refused with %s", beats[0].hb.Boot, beats[0].err, core.FaultUnknownVM)
	}
	if !beats[1].hb.Boot || beats[1].err != nil || beats[1].at != beats[0].at {
		t.Fatalf("second report: boot=%v err=%v at %v, want an accepted registration in the same turn", beats[1].hb.Boot, beats[1].err, beats[1].at)
	}
	var vms int
	p.cas.Pool.QueryRow(`SELECT count(*) FROM vms WHERE machine = 'node1'`).Scan(&vms)
	if vms != 1 || p.node.IdleVMs() != 1 {
		t.Fatalf("%d VM tuples, %d idle slots after re-registration; want 1 and 1", vms, p.node.IdleVMs())
	}
	// The re-registered slot takes work again.
	p.submit(t, 1, time.Minute)
	p.eng.RunFor(5 * time.Minute)
	if p.node.Completed != 2 {
		t.Fatalf("node ran %d jobs, want 2", p.node.Completed)
	}
}
