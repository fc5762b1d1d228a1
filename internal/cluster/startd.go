package cluster

import (
	"context"
	"fmt"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/sim"
	"condorj2/internal/wire"
)

// Startd is the CondorJ2 execute-node agent: the modified Condor startd of
// the paper's prototype, speaking the CAS web services. It is the one
// implementation of the node side of the protocol — the simulated nodes of
// the experiments, cmd/cj2node (the same code on an engine driven by the
// wall clock) and the agents of the chaos suites are all this type.
// Execute nodes "always initiate any interaction they have with the CAS"
// (§5.2.1) — the pull model. The startd:
//
//   - sends a boot heartbeat on start,
//   - heartbeats periodically at HeartbeatInterval (machine-level, all VMs),
//   - polls faster (IdlePoll) while any VM is idle, pulling matches,
//   - invokes acceptMatch when a heartbeat returns MATCHINFO,
//   - runs jobs through the node Kernel (setup → run → teardown),
//   - reports completions and drops in event-driven heartbeats.
//
// Every exchange may fail, and a failed exchange may have been applied.
// Each defence below names the test that fails without it:
//
//   - A heartbeat that registers the node or reports a completion or a
//     drop carries an idempotency key and is kept, request and key, until
//     it is acknowledged: the retry replays the stored reply instead of
//     registering or completing twice (TestStartdProtocol/lost_completion_reply).
//   - A reply frees only the slots whose completion or drop the request it
//     answers reported; a job that finished after that request was built
//     keeps its flag for the next beat (TestStartdProtocol/finish_behind_a_kept_beat).
//   - An acceptMatch keeps one key until the CAS answers it, and no
//     heartbeat goes out before it has: an accept whose reply was lost
//     starts the job it claimed rather than reporting the slot idle and
//     having the claim torn down (TestStartdProtocol/lost_accept_reply).
//   - An UnknownVM fault makes the next beat a registration again; what is
//     still flagged is reported then (TestStartdReregistersAfterUnknownVM).
//   - A RELEASE naming a job the slot does not hold is ignored
//     (TestStartdProtocol/stale_release).
//   - A setup the node's worker cannot start in time is reported as a drop
//     so the CAS requeues the job (TestShortJobChurnCausesDropsOnSlowNodes).
//   - A failed exchange is retried on a chain that doubles from IdlePoll
//     to HeartbeatInterval, one retry armed at a time
//     (TestStartdProtocol/completion_retried_on_the_chain, TestStartdBackoffIsBounded).
//     The chain is the agent's only retry: each step is one exchange, and
//     the idle poll waits while a step is armed (TestRunPollWaitsOutTheChain
//     in cmd/cj2node).
//   - A retry waits at least the server's RetryAfterMs hint, so an
//     overloaded CAS paces its nodes (TestStartdProtocol/overload_hint_delays_the_retry).
//   - At most MaxStartsPerExchange matches are acted on per heartbeat, the
//     rest once the worker's backlog drains (TestLongJobsDoNotDrop).
type Startd struct {
	eng    *sim.Engine
	kernel *Kernel
	cas    wire.Caller
	cfg    StartdConfig

	vms      []vmState
	hbTicker *sim.Ticker
	pollArm  bool
	stopped  bool
	booted   bool // a registration has been acknowledged
	retryArm bool // a backoff retry is already scheduled
	hbFails  int  // consecutive failed exchanges (resets on success)

	beat   keyedBeat     // the keyed heartbeat awaiting its acknowledgement (req nil: none)
	accept *acceptIntent // the acceptMatch awaiting its answer

	// Stats observed by experiments.
	Completed         int
	Dropped           int
	HeartbeatFailures int // heartbeat exchanges that errored (then retried)
	AcceptFailures    int // acceptMatch exchanges that errored (then retried)
	Released          int // VMs cleared on a server RELEASE command
	DropsByVM         map[int64]int
	OnComplete        func(jobID int64, at time.Time)
	OnDrop            func(jobID int64, at time.Time)
}

// StartdConfig tunes the agent's communication cadence.
type StartdConfig struct {
	// HeartbeatInterval is the periodic machine heartbeat (paper footnote
	// 5: nodes check in during the job so it is not dropped).
	HeartbeatInterval time.Duration
	// IdlePoll is the faster cadence used while any VM is idle — the
	// "rate at which the execute nodes request jobs".
	IdlePoll time.Duration
	// MaxStartsPerExchange caps how many MATCHINFO commands the startd
	// acts on per heartbeat; further matched VMs are claimed on the next
	// poll. Real startds serialize claim activations the same way.
	MaxStartsPerExchange int
	// CallTimeout bounds each web-service exchange so a wedged CAS can
	// never hang the agent's loop (<=0: 10s).
	CallTimeout time.Duration
}

type vmPhase int

const (
	vmIdle vmPhase = iota
	vmRunning
	vmFinished // completion not yet reported
	vmDropPending
)

type vmState struct {
	phase    vmPhase
	jobID    int64
	runTimer *sim.Timer
}

// keyedBeat is a heartbeat held until acknowledged. The request is kept
// with the key because a key promises "same request": what changes while
// the beat is in flight waits for the next one.
type keyedBeat struct {
	key string
	req *core.HeartbeatRequest
}

// acceptIntent is one logical acceptMatch, retried under one key.
type acceptIntent struct {
	key    string
	req    core.AcceptMatchRequest
	length time.Duration
}

// NewStartd creates the agent; Boot starts it.
func NewStartd(eng *sim.Engine, kernel *Kernel, cas wire.Caller, cfg StartdConfig) *Startd {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 60 * time.Second
	}
	if cfg.IdlePoll <= 0 {
		cfg.IdlePoll = 2 * time.Second
	}
	if cfg.MaxStartsPerExchange <= 0 {
		cfg.MaxStartsPerExchange = 1
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	return &Startd{
		eng: eng, kernel: kernel, cas: cas, cfg: cfg,
		vms:       make([]vmState, kernel.Config().VMs),
		DropsByVM: make(map[int64]int),
	}
}

// Boot sends the initial heartbeat and starts the periodic cadence. A
// transient failure of the boot beat does not kill the agent: the retry
// chain (and every periodic beat until one lands) re-sends it. Only a
// terminal fault — the server actively refusing the registration — is
// returned to the caller.
func (s *Startd) Boot() error {
	if err := s.heartbeat(); err != nil {
		if !wire.Retryable(err) {
			return err
		}
		s.scheduleRetry(err)
	}
	s.hbTicker = s.eng.Every(s.cfg.HeartbeatInterval, s.kernel.Config().Name+".hb", s.exchange)
	s.armPoll()
	return nil
}

// Stop halts all future activity (used to take nodes offline in tests).
func (s *Startd) Stop() {
	s.stopped = true
	if s.hbTicker != nil {
		s.hbTicker.Stop()
	}
	for i := range s.vms {
		if s.vms[i].runTimer != nil {
			s.vms[i].runTimer.Stop()
		}
	}
}

// exchange is one turn of the agent's loop: the pending accept, then a
// heartbeat. Wire trouble is survivable — completion and drop flags are
// cleared only by the reply that acknowledges them — so a retryable
// failure backs off and tries again; a terminal fault waits for the next
// periodic beat.
func (s *Startd) exchange() {
	if s.stopped {
		return
	}
	if err := s.heartbeat(); err != nil && wire.Retryable(err) {
		s.scheduleRetry(err)
	}
}

// scheduleRetry arms one backoff retry of the exchange that failed with
// err: exponential from the idle-poll cadence, capped at the periodic
// interval (the steady heartbeat is itself the last-resort retry, so the
// chain is bounded rather than compounding), and never sooner than the
// server's RetryAfterMs hint in err.
func (s *Startd) scheduleRetry(err error) {
	if s.retryArm || s.stopped {
		return
	}
	s.hbFails++
	delay := s.cfg.IdlePoll
	for i := 1; i < s.hbFails && delay < s.cfg.HeartbeatInterval; i++ {
		delay *= 2
	}
	delay = max(min(delay, s.cfg.HeartbeatInterval), wire.RetryAfterHint(err))
	s.retryArm = true
	s.eng.After(delay, s.kernel.Config().Name+".hb-retry", func() {
		s.retryArm = false
		s.exchange()
	})
}

// armPoll schedules a fast follow-up heartbeat while any VM sits idle.
func (s *Startd) armPoll() {
	s.armPollAfter(s.cfg.IdlePoll)
}

// armPollAfter schedules the idle-VM poll with a custom delay (used to
// claim remaining matches quickly, paced by the local worker's backlog).
// While a retry is armed the poll is neither armed nor sent: the chain
// carries the exchange, and the heartbeat that ends it re-arms the poll.
func (s *Startd) armPollAfter(d time.Duration) {
	if s.pollArm || s.stopped || s.retryArm || s.IdleVMs() == 0 {
		return
	}
	s.pollArm = true
	s.eng.After(d, s.kernel.Config().Name+".poll", func() {
		s.pollArm = false
		if s.retryArm {
			return
		}
		s.exchange()
		s.armPoll()
	})
}

// status is what the next heartbeat reports for slot i.
func (s *Startd) status(i int) core.VMStatus {
	vm := &s.vms[i]
	st := core.VMStatus{Seq: int64(i), State: "claimed", JobID: vm.jobID}
	switch vm.phase {
	case vmIdle:
		st.State = "idle"
	case vmRunning:
		st.Phase = "running"
	case vmFinished:
		st.Phase = "completed"
	case vmDropPending:
		st.Phase = "dropped"
	}
	return st
}

// heartbeat performs one heartbeat web-service exchange — after the
// pending accept, if there is one — and processes the returned commands.
func (s *Startd) heartbeat() error {
	if err := s.resolveAccept(); err != nil {
		return err
	}
	kb := s.beat
	if kb.req == nil {
		cfg := s.kernel.Config()
		kb.req = &core.HeartbeatRequest{
			Machine: cfg.Name,
			Boot:    !s.booted,
			Arch:    cfg.Arch, OpSys: cfg.OpSys,
			TotalMemoryMB: cfg.MemoryMB,
		}
		delta := kb.req.Boot
		for i := range s.vms {
			st := s.status(i)
			delta = delta || st.Phase == "completed" || st.Phase == "dropped"
			kb.req.VMs = append(kb.req.VMs, st)
		}
		if delta {
			kb.key = wire.NewIdempotencyKey()
			s.beat = kb
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()
	if kb.key != "" {
		ctx = wire.WithIdempotencyKey(ctx, kb.key)
	}
	var resp core.HeartbeatResponse
	if err := s.cas.Call(ctx, core.ActionHeartbeat, kb.req, &resp); err != nil {
		if f, ok := wire.AsFault(err); ok && f.Code == core.FaultUnknownVM && !kb.req.Boot {
			// The CAS lost this node's VM tuples: register again, now.
			s.booted, s.beat = false, keyedBeat{}
			return s.heartbeat()
		}
		s.HeartbeatFailures++
		return err
	}
	s.booted = true
	s.hbFails = 0
	s.beat = keyedBeat{}
	// The completions and drops this request reported are recorded
	// server-side; free those slots, and only those.
	for _, st := range kb.req.VMs {
		vm := &s.vms[st.Seq]
		if (st.Phase == "completed" || st.Phase == "dropped") && vm.jobID == st.JobID {
			*vm = vmState{}
		}
	}
	starts := 0
	pendingMatches := false
	for _, cmd := range resp.Commands {
		switch cmd.Command {
		case core.CmdRelease:
			// The server disowned this slot's job (its pairing was lost or
			// went to another VM); stop local work and return to the pool.
			s.releaseVM(cmd)
			continue
		case core.CmdMatchInfo:
		default:
			continue
		}
		if starts >= s.cfg.MaxStartsPerExchange {
			pendingMatches = true
			break // remaining matches are claimed on the next poll
		}
		starts++
		if err := s.acceptAndStart(cmd); err != nil {
			return err
		}
	}
	if pendingMatches {
		// Claim the rest as fast as the local worker can absorb setups:
		// re-poll after the backlog drains, floored at a quarter of the
		// configured poll interval (min one second), so big machines fill
		// promptly without stampeding their own starter or the CAS.
		delay := s.kernel.Backlog()
		if floor := s.cfg.IdlePoll / 4; delay < floor {
			delay = floor
		}
		if delay < time.Second {
			delay = time.Second
		}
		s.armPollAfter(delay)
	} else {
		s.armPoll()
	}
	return nil
}

// acceptAndStart commits a match and runs the job through the node kernel.
func (s *Startd) acceptAndStart(cmd core.VMCommand) error {
	if cmd.Seq < 0 || int(cmd.Seq) >= len(s.vms) {
		return fmt.Errorf("cluster: MATCHINFO for unknown vm %d", cmd.Seq)
	}
	if s.vms[cmd.Seq].phase != vmIdle {
		return nil // stale match info; the CAS will re-advertise
	}
	s.accept = &acceptIntent{
		key: wire.NewIdempotencyKey(),
		req: core.AcceptMatchRequest{
			Machine: s.kernel.Config().Name, Seq: cmd.Seq,
			MatchID: cmd.MatchID, JobID: cmd.JobID,
		},
		length: time.Duration(cmd.LengthSec) * time.Second,
	}
	return s.resolveAccept()
}

// resolveAccept sends the pending acceptMatch, if any, under its key. An
// error leaves the intent in place: the request may have been applied, and
// only the CAS's answer — replayed from its reply store if need be — says
// whether this node owns the job.
func (s *Startd) resolveAccept() error {
	a := s.accept
	if a == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()
	var acc core.AcceptMatchResponse
	if err := s.cas.Call(wire.WithIdempotencyKey(ctx, a.key), core.ActionAcceptMatch, &a.req, &acc); err != nil {
		s.AcceptFailures++
		return err
	}
	s.accept = nil
	if acc.OK { // else: lost the race; stay idle and keep polling
		s.start(a.req.Seq, a.req.JobID, a.length)
	}
	return nil
}

// start sets the job's execution environment up via the node's serialized
// worker and runs it; slow nodes under churn time out here (Figure 8).
func (s *Startd) start(seq, jobID int64, length time.Duration) {
	vm := &s.vms[seq]
	vm.jobID = jobID
	done, ok := s.kernel.RequestSetup()
	if !ok {
		vm.phase = vmDropPending
		s.Dropped++
		s.DropsByVM[seq]++
		if s.OnDrop != nil {
			s.OnDrop(jobID, s.eng.Now())
		}
		// Report the drop promptly so the CAS can requeue the job.
		s.eng.After(0, s.kernel.Config().Name+".drop", s.exchange)
		return
	}
	vm.phase = vmRunning
	vm.runTimer = s.eng.At(done.Add(length), s.kernel.Config().Name+".job", func() {
		s.finishJob(seq)
	})
}

// releaseVM clears one slot on a server RELEASE command: any local
// execution is abandoned (the CAS has repaired its pairing around us).
func (s *Startd) releaseVM(cmd core.VMCommand) {
	if cmd.Seq < 0 || int(cmd.Seq) >= len(s.vms) {
		return
	}
	vm := &s.vms[cmd.Seq]
	if vm.phase == vmIdle {
		return
	}
	if cmd.JobID != 0 && vm.jobID != cmd.JobID {
		return // stale release for a job this slot no longer runs
	}
	if vm.runTimer != nil {
		vm.runTimer.Stop()
	}
	*vm = vmState{}
	s.Released++
}

// finishJob handles job completion: teardown via the kernel, then an
// event-driven heartbeat reporting the completion.
func (s *Startd) finishJob(seq int64) {
	vm := &s.vms[seq]
	if vm.phase != vmRunning {
		return
	}
	vm.phase = vmFinished
	s.Completed++
	if s.OnComplete != nil {
		s.OnComplete(vm.jobID, s.eng.Now())
	}
	end := s.kernel.RequestTeardown()
	s.eng.At(end, s.kernel.Config().Name+".done", func() {
		if vm.phase == vmFinished {
			s.exchange()
		}
	})
}

// IdleVMs counts VMs currently without work.
func (s *Startd) IdleVMs() int {
	n := 0
	for i := range s.vms {
		if s.vms[i].phase == vmIdle {
			n++
		}
	}
	return n
}

// RunningVMs counts VMs executing a job right now.
func (s *Startd) RunningVMs() int {
	n := 0
	for i := range s.vms {
		if s.vms[i].phase == vmRunning {
			n++
		}
	}
	return n
}
