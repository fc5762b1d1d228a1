package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"condorj2/internal/beans"
	"condorj2/internal/sqldb"
	"condorj2/internal/vtime"
	"condorj2/internal/wire"
)

// Service is the application logic layer (Figure 4): the coarse-grained
// operations clients actually invoke, each composed of fine-grained entity
// bean services and executed inside a container-managed transaction. This
// layer resolves the paper's "granularity mismatch": remote clients get
// one round trip per business operation, not one per tuple.
type Service struct {
	c     *beans.Engine
	clock vtime.Clock
	// conf is the published settings, the config table as loadSettings
	// last read it; loadMu serializes the loads, so the last one to run
	// publishes the latest committed table.
	conf   atomic.Pointer[settings]
	loadMu sync.Mutex
	// replays / replyGCed count idempotency-key dedup activity (dedup.go).
	replays   atomic.Uint64
	replyGCed atomic.Uint64
	// notLeader, when non-nil, gates the mutating web services: this node
	// is a replication follower and answers writes with a typed NotLeader
	// fault carrying the leader's address (empty when unknown). Reads and
	// internal Pool writes (replication, promotion) are never gated.
	notLeader atomic.Pointer[string]
	// notLeaderRejects counts writes bounced by the gate.
	notLeaderRejects atomic.Uint64
}

// SetNotLeader gates mutating web services with a NotLeader fault
// redirecting to leader ("" = leader unknown).
func (s *Service) SetNotLeader(leader string) { s.notLeader.Store(&leader) }

// ClearNotLeader reopens the mutating web services (this node leads).
func (s *Service) ClearNotLeader() { s.notLeader.Store(nil) }

// NotLeader reports whether writes are gated and the redirect address.
func (s *Service) NotLeader() (string, bool) {
	if p := s.notLeader.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// NewService builds the application logic layer on the engine's own
// transactions (beans' native transport). clock supplies timestamps
// (virtual in simulations).
func NewService(engine *sqldb.DB, clock vtime.Clock) *Service {
	if clock == nil {
		clock = vtime.Real{}
	}
	s := &Service{c: &beans.Engine{DB: engine}, clock: clock}
	s.loadSettings(context.Background())
	return s
}

// Config keys named outside DefaultConfig. The engine's two timeouts have
// no default: while the key is absent the engine keeps its own.
const (
	// ConfigHeartbeatIntervalSec names the heartbeat interval in seconds:
	// the beat window and the dead-machine sweep's period.
	ConfigHeartbeatIntervalSec = "heartbeat_interval_sec"
	// ConfigStmtTimeoutMs is the engine's default per-statement deadline
	// in milliseconds (0 disables).
	ConfigStmtTimeoutMs = "stmt_timeout_ms"
	// ConfigLockTimeoutMs is the engine's lock-wait timeout in
	// milliseconds (0 = wait forever).
	ConfigLockTimeoutMs = "lock_timeout_ms"
)

// settings is the config table as one immutable value, read instead of
// the table by everything in the service that follows a key.
type settings struct {
	tick           time.Duration // schedule_interval_sec, at least 1 s: the housekeeping period a CAS assembles with (CAS.tick)
	batch          int64         // schedule_batch: the most idle VMs one scheduling cycle pairs
	beatWindow     time.Duration // heartbeat_interval_sec: the beat window (Machine.Beat) and the sweep's period
	replyRetention time.Duration // reply_retention_sec: how long an idempotency reply is kept
}

// loadSettings reads the config table in one read-only transaction, not
// cut short by ctx, and publishes it as the service's settings: each key
// as configNum parses it, and every one at its default when the read
// fails, as on a follower before its first shipped group. A non-negative
// stmt_timeout_ms or lock_timeout_ms goes to the engine. It runs at
// assembly, at the top of each leader tick's gated steps, after each
// committed ConfigSet and at promotion.
func (s *Service) loadSettings(ctx context.Context) {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	table := make(map[string]string)
	if err := s.c.InReadTx(context.WithoutCancel(ctx), func(tx *sqldb.Tx) error {
		rows, err := txQuery(tx, `SELECT name, value FROM config`)
		for err == nil && rows.Next() {
			table[rows.Col(0).Text()] = rows.Col(1).Text()
		}
		return err
	}); err != nil {
		clear(table)
	}
	sec := func(name string) time.Duration { return time.Duration(configNum(name, table[name])) * time.Second }
	s.conf.Store(&settings{
		tick:           max(time.Second, sec("schedule_interval_sec")),
		batch:          configNum("schedule_batch", table["schedule_batch"]),
		beatWindow:     sec(ConfigHeartbeatIntervalSec),
		replyRetention: sec("reply_retention_sec"),
	})
	engine := func(name string, set func(time.Duration)) {
		if ms, err := strconv.ParseInt(table[name], 10, 64); err == nil && ms >= 0 {
			set(time.Duration(ms) * time.Millisecond)
		}
	}
	engine(ConfigStmtTimeoutMs, s.c.DB.SetStmtTimeout)
	engine(ConfigLockTimeoutMs, s.c.DB.SetLockTimeout)
}

// configNum is the integer a config value names, or, when it names none,
// the key's DefaultConfig value.
func configNum(name, value string) int64 {
	if v, err := strconv.ParseInt(value, 10, 64); err == nil {
		return v
	}
	for _, c := range DefaultConfig {
		if c.Name == name {
			v, _ := strconv.ParseInt(c.Value, 10, 64)
			return v
		}
	}
	return 0
}

func (s *Service) now() time.Time { return s.clock.Now() }

// txExec and txQuery run one of the service layer's own statements in a
// container transaction, under the transaction's context, with its
// arguments as engine values; txQuery's result is read through its cursor
// (Rows.Next, Rows.Col), never materialized, and is the transaction's:
// read it before the transaction ends. A value read out of it stays valid.
func txExec(tx *sqldb.Tx, sql string, args ...sqldb.Value) (sqldb.Result, error) {
	return tx.ExecValues(context.Background(), sql, args...)
}

func txQuery(tx *sqldb.Tx, sql string, args ...sqldb.Value) (*sqldb.Rows, error) {
	return tx.QueryValues(context.Background(), sql, args...)
}

// Submit enqueues req.Count identical jobs and returns their id range
// (Table 2 steps 1-2: "CAS inserts a job tuple into database").
func (s *Service) Submit(ctx context.Context, req *SubmitRequest) (*SubmitResponse, error) {
	return fill(ctx, req, s.submit)
}

// fill runs a service method of the fill form — the form the web
// services register (wire.Typed) — on a reply of the caller's own: the
// in-process call, as simulations, the web site and the tests make it.
func fill[Req, Resp any](ctx context.Context, req *Req, fn func(context.Context, *Req, *Resp) error) (*Resp, error) {
	resp := new(Resp)
	if err := fn(ctx, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// submit is Submit in the fill form. Like every fill-form method that
// writes, it starts its reply again in each attempt of its transaction:
// a deadlock victim's retry must not report what the aborted attempt set.
func (s *Service) submit(ctx context.Context, req *SubmitRequest, resp *SubmitResponse) error {
	if req.Count <= 0 {
		return fmt.Errorf("core: submit: Count must be positive, got %d", req.Count)
	}
	if req.Owner == "" {
		return fmt.Errorf("core: submit: Owner required")
	}
	if req.LengthSec <= 0 {
		return fmt.Errorf("core: submit: LengthSec must be positive")
	}
	return s.c.InTx(ctx, func(tx *sqldb.Tx) error {
		*resp = SubmitResponse{}
		now := s.now()
		if err := s.ensureUser(tx, req.Owner, now); err != nil {
			return err
		}
		var wfID int64
		if req.Workflow != "" {
			wf := &Workflow{Name: req.Workflow, Owner: req.Owner, CreatedAt: now}
			if err := beans.Insert(tx, wf); err != nil {
				return err
			}
			wfID = wf.ID
		}
		var execID int64
		if req.Executable != "" {
			var err error
			execID, err = s.ensureExecutable(tx, req.Executable, req.ExecutableVersion)
			if err != nil {
				return err
			}
		}
		state := JobIdle
		if req.DependsOn != 0 {
			state = JobBlocked
		}
		prio := req.Priority
		if prio == 0 {
			prio = 0.5
		}
		for i := 0; i < req.Count; i++ {
			job := &Job{
				Owner:       req.Owner,
				WorkflowID:  wfID,
				State:       state,
				LengthSec:   req.LengthSec,
				MinMemoryMB: req.MinMemoryMB,
				Priority:    prio,
				DependsOn:   req.DependsOn,
				SubmittedAt: now,
			}
			if err := beans.Insert(tx, job); err != nil {
				return err
			}
			if resp.FirstJobID == 0 {
				resp.FirstJobID = job.ID
			}
			resp.LastJobID = job.ID
			if execID != 0 {
				if err := beans.Insert(tx, &JobExecutable{JobID: job.ID, ExecutableID: execID}); err != nil {
					return err
				}
			}
			for _, dsID := range req.InputDatasets {
				if err := beans.Insert(tx, &JobInput{JobID: job.ID, DatasetID: dsID}); err != nil {
					return err
				}
			}
			if req.Output != "" {
				if err := s.registerOutput(tx, req.Output, job.ID, now); err != nil {
					return err
				}
			}
		}
		resp.WorkflowID = wfID
		return s.saveReply(ctx, tx, resp)
	})
}

func (s *Service) ensureUser(tx *sqldb.Tx, name string, now time.Time) error {
	err := beans.Find(tx, &User{Name: name})
	if errors.Is(err, beans.ErrNotFound) {
		return beans.Insert(tx, &User{Name: name, Priority: 0.5, CreatedAt: now})
	}
	return err
}

func (s *Service) ensureExecutable(tx *sqldb.Tx, name, version string) (int64, error) {
	if version == "" {
		version = "1"
	}
	execs, err := beans.Select[Executable](tx, "WHERE name = ? AND version = ?", name, version)
	if err != nil {
		return 0, err
	}
	if len(execs) > 0 {
		return execs[0].ID, nil
	}
	e := &Executable{Name: name, Version: version}
	if err := beans.Insert(tx, e); err != nil {
		return 0, err
	}
	return e.ID, nil
}

func (s *Service) registerOutput(tx *sqldb.Tx, name string, jobID int64, now time.Time) error {
	rows, err := txQuery(tx, `SELECT coalesce(max(version), 0) FROM datasets WHERE name = ?`, sqldb.NewText(name))
	if err != nil {
		return err
	}
	rows.Next() // an aggregate: always one row
	return beans.Insert(tx, &Dataset{Name: name, Version: rows.Col(0).Int64() + 1, ProducedBy: jobID, CreatedAt: now})
}

// Heartbeat is the hot path: Table 2 steps 3-4 (plain beat), 7-8 (beat
// answered with MATCHINFO), 12-13 (beat carrying job progress) and 14-15
// (beat carrying completion, triggering post-execution processing) are all
// this one service.
func (s *Service) Heartbeat(ctx context.Context, req *HeartbeatRequest) (*HeartbeatResponse, error) {
	return fill(ctx, req, s.heartbeat)
}

// heartbeat is Heartbeat in the fill form.
func (s *Service) heartbeat(ctx context.Context, req *HeartbeatRequest, resp *HeartbeatResponse) error {
	// One command per VM status, so the list is allocated once at that
	// size, or not at all when the reply's recycled list holds as many.
	resp.Commands = slices.Grow(resp.Commands[:0], len(req.VMs))
	return s.c.InTx(ctx, func(tx *sqldb.Tx) error {
		resp.Commands = resp.Commands[:0]
		now := s.now()
		m := &Machine{Name: req.Machine}
		err := beans.Find(tx, m)
		switch {
		case errors.Is(err, beans.ErrNotFound):
			m = &Machine{
				Name: req.Machine, State: MachineUp,
				Arch: req.Arch, OpSys: req.OpSys,
				TotalMemoryMB: req.TotalMemoryMB,
				VMCount:       int64(len(req.VMs)),
				BootedAt:      now, LastHeartbeat: now,
			}
			if err := beans.Insert(tx, m); err != nil {
				return err
			}
			if err := s.recordBootHistory(tx, m, now); err != nil {
				return err
			}
			if err := s.ensureVMs(tx, m, req); err != nil {
				return err
			}
		case err != nil:
			return err
		default:
			if req.Boot {
				m.Arch, m.OpSys, m.TotalMemoryMB = req.Arch, req.OpSys, req.TotalMemoryMB
				m.VMCount = int64(len(req.VMs))
				m.BootedAt = now
				if err := s.recordBootHistory(tx, m, now); err != nil {
					return err
				}
				if err := s.ensureVMs(tx, m, req); err != nil {
					return err
				}
			}
			if err := m.Beat(tx, now, req.Boot, s.conf.Load().beatWindow); err != nil {
				return err
			}
		}

		// Set-oriented preload: one query for the machine's VMs and one
		// join for their pairings, instead of per-VM lookups — the
		// "efficient transformations" §4.2.3 calls the key to scalability.
		// A 200-VM heartbeat costs a handful of statements, not hundreds.
		vms, err := beans.Select[VM](tx, "WHERE machine = ?", m.Name)
		if err != nil {
			return err
		}
		bySeq := make(map[int64]*VM, len(vms))
		for i := range vms {
			bySeq[vms[i].Seq] = &vms[i]
		}
		// A match or run only ever pairs with a matched or claimed VM: the
		// cycle marks the VM in the match's transaction, and every way back
		// to idle or offline deletes the pairings first. A beat finding
		// every VM idle and reporting only idle slots has nothing to join.
		var buf [8]pairing // a machine's VMs, without a heap slice up to 8
		pairs := buf[:0]
		if !allIdle(vms, req.VMs) {
			if pairs, err = vmPairings(tx, m.Name, pairs); err != nil {
				return err
			}
		}
		for _, st := range req.VMs {
			vm, ok := bySeq[st.Seq]
			if !ok {
				return &wire.Fault{Code: FaultUnknownVM, Message: fmt.Sprintf("core: heartbeat from unknown VM %s/%d", m.Name, st.Seq)}
			}
			p := pairingOf(pairs, vm.ID)
			cmd, err := s.handleVMStatus(tx, m, vm, p.match, p.run, st, now)
			if err != nil {
				return err
			}
			resp.Commands = append(resp.Commands, cmd)
		}
		return s.saveReply(ctx, tx, resp)
	})
}

// allIdle reports whether every stored VM is idle and every report an idle
// slot with no phase and no job.
func allIdle(vms []VM, reports []VMStatus) bool {
	for i := range vms {
		if vms[i].State != VMIdle {
			return false
		}
	}
	for _, st := range reports {
		if st.State != "idle" || st.Phase != "" || st.JobID != 0 {
			return false
		}
	}
	return true
}

// matchInfo is a pending match joined with its job's MATCHINFO fields.
type matchInfo struct {
	matchID   int64
	jobID     int64
	owner     string
	lengthSec int64
}

// runInfo is an active run joined for one VM (zero runID when none).
type runInfo struct {
	runID int64
	jobID int64
}

// pairing is one VM's pending match and active run, zero where it has
// none. The heartbeat reconciles the run against what the node reports
// executing — the two can diverge across CAS restarts and machine reaps —
// and answers a pending match with MATCHINFO.
type pairing struct {
	vmID  int64
	match matchInfo
	run   runInfo
}

// pairingSQL reads a machine's pairings in one statement: every VM of the
// machine, probed into matches, the match's job and runs by unique index.
// A VM holds at most one match and one run (UNIQUE (vm_id) on both), so
// each VM is one row.
const pairingSQL = `
	SELECT v.id, m.id, m.job_id, j.owner, j.length_sec, r.id, r.job_id
	FROM vms v
	LEFT JOIN matches m ON m.vm_id = v.id
	LEFT JOIN jobs j ON j.id = m.job_id
	LEFT JOIN runs r ON r.vm_id = v.id
	WHERE v.machine = ?`

// vmPairings appends the pairings of machine's VMs to out. A match whose
// job row is gone pairs nothing: there is no MATCHINFO to answer with.
func vmPairings(tx *sqldb.Tx, machine string, out []pairing) ([]pairing, error) {
	rows, err := txQuery(tx, pairingSQL, sqldb.NewText(machine))
	if err != nil {
		return nil, err
	}
	for rows.Next() {
		p := pairing{vmID: rows.Col(0).Int64()}
		if !rows.Col(3).IsNull() { // j.owner is NOT NULL: NULL means no job
			p.match = matchInfo{
				matchID: rows.Col(1).Int64(), jobID: rows.Col(2).Int64(),
				owner: rows.Col(3).Text(), lengthSec: rows.Col(4).Int64(),
			}
		}
		p.run = runInfo{runID: rows.Col(5).Int64(), jobID: rows.Col(6).Int64()}
		out = append(out, p)
	}
	return out, nil
}

// pairingOf is the pairing of VM vmID, zero when ps holds none.
func pairingOf(ps []pairing, vmID int64) pairing {
	for _, p := range ps {
		if p.vmID == vmID {
			return p
		}
	}
	return pairing{}
}

func (s *Service) recordBootHistory(tx *sqldb.Tx, m *Machine, now time.Time) error {
	// A slice, not a map: the rows' rids and log records keep this order on
	// every run.
	for _, a := range [...]struct{ attr, value string }{
		{"arch", m.Arch},
		{"opsys", m.OpSys},
		{"total_memory_mb", strconv.FormatInt(m.TotalMemoryMB, 10)},
		{"vm_count", strconv.FormatInt(m.VMCount, 10)},
	} {
		rec := &MachineHistory{Machine: m.Name, Attr: a.attr, Value: a.value, RecordedAt: now}
		if err := beans.Insert(tx, rec); err != nil {
			return err
		}
	}
	return nil
}

func (s *Service) ensureVMs(tx *sqldb.Tx, m *Machine, req *HeartbeatRequest) error {
	existing, err := beans.Select[VM](tx, "WHERE machine = ?", m.Name)
	if err != nil {
		return err
	}
	have := make(map[int64]bool, len(existing))
	for _, v := range existing {
		have[v.Seq] = true
	}
	memEach := int64(0)
	if len(req.VMs) > 0 {
		memEach = req.TotalMemoryMB / int64(len(req.VMs))
	}
	for _, st := range req.VMs {
		if have[st.Seq] {
			continue
		}
		if err := beans.Insert(tx, &VM{Machine: m.Name, Seq: st.Seq, State: VMIdle, MemoryMB: memEach}); err != nil {
			return err
		}
	}
	return nil
}

// handleVMStatus processes one VM's report and decides its command. vm is
// preloaded; pending carries the VM's match and run its active run (zero
// ids when none).
func (s *Service) handleVMStatus(tx *sqldb.Tx, m *Machine, vm *VM, pending matchInfo, run runInfo, st VMStatus, now time.Time) (VMCommand, error) {
	// A heartbeat proves the machine is alive again: offline VMs rejoin
	// the pool (idle reports free them now; claimed ones resolve through
	// the completion/drop paths below).
	if vm.State == VMOffline && st.State == "idle" {
		if err := vm.Release(tx); err != nil {
			return VMCommand{}, err
		}
	}

	switch st.Phase {
	case "completed":
		if err := s.completeJob(tx, vm, st, now); err != nil {
			return VMCommand{}, err
		}
		return VMCommand{Seq: st.Seq, Command: CmdOK}, nil
	case "dropped":
		if err := s.dropJob(tx, m, vm, st, now); err != nil {
			return VMCommand{}, err
		}
		return VMCommand{Seq: st.Seq, Command: CmdOK}, nil
	}

	if st.State == "claimed" && st.JobID != 0 {
		if run.runID != 0 && run.jobID == st.JobID {
			// Node and database agree on the run. The VM row may still be
			// out of step after a CAS restart or reap; bring it back to
			// claimed so matchmaking leaves the slot alone.
			if vm.State != VMClaimed {
				if err := vm.Reclaim(tx); err != nil {
					return VMCommand{}, err
				}
			}
			return VMCommand{Seq: st.Seq, Command: CmdOK}, nil
		}
		// The node is executing a job the database has no (matching) run
		// for — the run tuple was lost to a reap or the job was released
		// while the node kept going. Re-adopt it or tell the node to stop.
		return s.readoptOrRelease(tx, vm, st, now)
	}

	if st.State == "idle" && run.runID != 0 {
		// The node reports an empty slot the database still pairs with a
		// run: the node abandoned (or never learned about) that execution —
		// a node restart, or a claim whose reply was lost and given up on.
		// Tear the pairing down so the job goes back to the idle queue and
		// the slot rejoins the pool; nothing will ever complete it here.
		if _, err := s.clearVMPairings(tx, vm, 0); err != nil {
			return VMCommand{}, err
		}
		if err := vm.Release(tx); err != nil {
			return VMCommand{}, err
		}
		return VMCommand{Seq: st.Seq, Command: CmdOK}, nil
	}

	if st.State == "idle" && vm.State != VMClaimed && pending.matchID != 0 {
		// Table 2 step 8: "selects related match and job tuples, responds
		// MATCHINFO".
		return VMCommand{
			Seq: st.Seq, Command: CmdMatchInfo,
			MatchID: pending.matchID, JobID: pending.jobID,
			Owner: pending.owner, LengthSec: pending.lengthSec,
		}, nil
	}
	return VMCommand{Seq: st.Seq, Command: CmdOK}, nil
}

// readoptOrRelease resolves a claimed VM whose reported job has no
// matching run tuple. If the job still exists and is back in the idle
// queue, the in-progress execution is worth more than a rematch: rebuild
// the pairing tuples around it (re-adoption). Otherwise the node's work
// is orphaned — the job completed/was removed, or is paired elsewhere —
// and the only consistent answer is RELEASE.
func (s *Service) readoptOrRelease(tx *sqldb.Tx, vm *VM, st VMStatus, now time.Time) (VMCommand, error) {
	// Answering RELEASE means the node will clear the slot; free the
	// server side of it too — any stale run/match tuples here reference
	// jobs nothing will ever finish, so put them back in the queue.
	release := func() (VMCommand, error) {
		if _, err := s.clearVMPairings(tx, vm, 0); err != nil {
			return VMCommand{}, err
		}
		if err := vm.Release(tx); err != nil {
			return VMCommand{}, err
		}
		return VMCommand{Seq: st.Seq, Command: CmdRelease, JobID: st.JobID}, nil
	}
	job := &Job{ID: st.JobID}
	err := beans.Find(tx, job)
	if errors.Is(err, beans.ErrNotFound) {
		return release()
	}
	if err != nil {
		return VMCommand{}, err
	}
	if job.State != JobIdle {
		// Blocked, or matched/running on some other VM: that pairing wins.
		return release()
	}
	// Clear stale pairings on this VM, releasing any job they reference so
	// no tuple is left pointing at a run we are about to overwrite.
	if _, err := s.clearVMPairings(tx, vm, job.ID); err != nil {
		return VMCommand{}, err
	}
	if err := job.MarkMatched(tx, now); err != nil {
		return VMCommand{}, err
	}
	if err := job.MarkRunning(tx, now); err != nil {
		return VMCommand{}, err
	}
	if err := beans.Insert(tx, &Run{JobID: job.ID, VMID: vm.ID, StartedAt: now}); err != nil {
		return VMCommand{}, err
	}
	if err := vm.Reclaim(tx); err != nil {
		return VMCommand{}, err
	}
	return VMCommand{Seq: st.Seq, Command: CmdOK}, nil
}

// clearVMPairings deletes the match and run tuples on one VM and puts the
// jobs they reference (other than keep, the job being re-adopted) back in
// the queue. It reports how many jobs were released.
func (s *Service) clearVMPairings(tx *sqldb.Tx, vm *VM, keep int64) (int, error) {
	released := 0
	releaseJob := func(jobID int64) error {
		if jobID == keep {
			return nil
		}
		other := &Job{ID: jobID}
		switch err := beans.Find(tx, other); {
		case errors.Is(err, beans.ErrNotFound):
			return nil
		case err != nil:
			return err
		}
		if other.State == JobMatched || other.State == JobRunning {
			released++
			return other.Release(tx)
		}
		return nil
	}
	matches, err := beans.Select[Match](tx, "WHERE vm_id = ?", vm.ID)
	if err != nil {
		return 0, err
	}
	for i := range matches {
		if err := releaseJob(matches[i].JobID); err != nil {
			return 0, err
		}
		if err := beans.Delete(tx, &matches[i]); err != nil {
			return 0, err
		}
	}
	runs, err := beans.Select[Run](tx, "WHERE vm_id = ?", vm.ID)
	if err != nil {
		return 0, err
	}
	for i := range runs {
		if err := releaseJob(runs[i].JobID); err != nil {
			return 0, err
		}
		if err := beans.Delete(tx, &runs[i]); err != nil {
			return 0, err
		}
	}
	return released, nil
}

// completeJob is post-execution processing (Table 2 step 15 plus §5.1.1's
// "recording historical information ... accounting information and
// removing the job from the queue").
func (s *Service) completeJob(tx *sqldb.Tx, vm *VM, st VMStatus, now time.Time) error {
	runs, err := beans.Select[Run](tx, "WHERE vm_id = ?", vm.ID)
	if err != nil {
		return err
	}
	if len(runs) == 0 || runs[0].JobID != st.JobID {
		// Stale completion (e.g. job already reaped, or the slot was
		// re-paired while the report was in flight); acknowledge quietly so
		// the node frees the VM, and release whatever the stale pairings
		// reference back to the queue rather than stranding it.
		if _, err := s.clearVMPairings(tx, vm, 0); err != nil {
			return err
		}
		return vm.Release(tx)
	}
	run := &runs[0]
	job := &Job{ID: run.JobID}
	if err := beans.Find(tx, job); err != nil {
		return err
	}
	hist := &JobHistory{
		JobID: job.ID, Owner: job.Owner,
		Machine: vm.Machine, VMSeq: vm.Seq,
		LengthSec:   job.LengthSec,
		SubmittedAt: job.SubmittedAt, StartedAt: job.StartedAt,
		CompletedAt: now, ExitCode: st.ExitCode, Outcome: "completed",
	}
	if err := beans.Insert(tx, hist); err != nil {
		return err
	}
	if err := s.credit(tx, job.Owner, job.LengthSec, false); err != nil {
		return err
	}
	if err := beans.Delete(tx, run); err != nil {
		return err
	}
	if err := beans.Delete(tx, job); err != nil {
		return err
	}
	if err := vm.Release(tx); err != nil {
		return err
	}
	// Unblock dependents (workflow dependencies, §5.1.3).
	dependents, err := beans.Select[Job](tx, "WHERE depends_on = ? AND state = ?", job.ID, JobBlocked)
	if err != nil {
		return err
	}
	for i := range dependents {
		if err := dependents[i].Unblock(tx); err != nil {
			return err
		}
	}
	return nil
}

// dropJob handles a node reporting it failed to run a job (Figure 8):
// release the job back to the queue and free the VM.
func (s *Service) dropJob(tx *sqldb.Tx, m *Machine, vm *VM, st VMStatus, now time.Time) error {
	if err := beans.Insert(tx, &Drop{
		Machine: m.Name, VMSeq: vm.Seq, JobID: st.JobID,
		Reason: "timeout setting up job environment", At: now,
	}); err != nil {
		return err
	}
	if _, err := s.clearVMPairings(tx, vm, 0); err != nil {
		return err
	}
	job := &Job{ID: st.JobID}
	switch err := beans.Find(tx, job); {
	case errors.Is(err, beans.ErrNotFound):
		// Job already reaped elsewhere; nothing to release.
	case err != nil:
		return err
	default:
		if job.State == JobMatched || job.State == JobRunning {
			if err := job.Release(tx); err != nil {
				return err
			}
		}
		if err := s.credit(tx, job.Owner, 0, true); err != nil {
			return err
		}
	}
	return vm.Release(tx)
}

// credit adds one finished (or dropped) job to its owner's accounting
// tuple. It is one UPDATE ... SET x = x + ?: an UPDATE's scan takes the
// tuple's exclusive lock first, where reading the tuple and writing it
// back would take a shared lock and upgrade it — and two completions for
// one owner, each holding the shared lock and waiting for the other's,
// deadlock every time.
func (s *Service) credit(tx *sqldb.Tx, owner string, runtimeSec int64, dropped bool) error {
	acct := &Accounting{Owner: owner}
	if dropped {
		acct.DroppedJobs = 1
	} else {
		acct.CompletedJobs = 1
		acct.TotalRuntimeSec = runtimeSec
	}
	add := func() (bool, error) {
		res, err := txExec(tx, `UPDATE accounting SET completed_jobs = completed_jobs + ?,
			dropped_jobs = dropped_jobs + ?, total_runtime_sec = total_runtime_sec + ?
			WHERE owner = ?`, sqldb.NewInt(acct.CompletedJobs), sqldb.NewInt(acct.DroppedJobs),
			sqldb.NewInt(acct.TotalRuntimeSec), sqldb.NewText(owner))
		return res.RowsAffected > 0, err
	}
	if done, err := add(); done || err != nil {
		return err
	}
	// The owner's first job: the tuple starts at this credit.
	err := beans.Insert(tx, acct)
	var taken *sqldb.UniqueViolationError
	if errors.As(err, &taken) {
		// Another completion created the tuple between the two statements;
		// it is there to add to now.
		_, err = add()
	}
	return err
}

// AcceptMatch commits a match: Table 2 step 10 — "CAS deletes match tuple,
// inserts run tuple, updates related job tuple, responds OK".
func (s *Service) AcceptMatch(ctx context.Context, req *AcceptMatchRequest) (*AcceptMatchResponse, error) {
	return fill(ctx, req, s.acceptMatch)
}

// acceptMatch is AcceptMatch in the fill form.
func (s *Service) acceptMatch(ctx context.Context, req *AcceptMatchRequest, resp *AcceptMatchResponse) error {
	return s.c.InTx(ctx, func(tx *sqldb.Tx) error {
		*resp = AcceptMatchResponse{}
		match := &Match{ID: req.MatchID}
		err := beans.Find(tx, match)
		if errors.Is(err, beans.ErrNotFound) {
			resp.OK = false
			resp.Reason = "match no longer exists"
			return s.saveReply(ctx, tx, resp)
		}
		if err != nil {
			return err
		}
		if match.JobID != req.JobID {
			resp.OK = false
			resp.Reason = "match is for a different job"
			return s.saveReply(ctx, tx, resp)
		}
		vm := &VM{ID: match.VMID}
		if err := beans.Find(tx, vm); err != nil {
			return err
		}
		if vm.Machine != req.Machine || vm.Seq != req.Seq {
			resp.OK = false
			resp.Reason = "match is for a different VM"
			return s.saveReply(ctx, tx, resp)
		}
		job := &Job{ID: match.JobID}
		if err := beans.Find(tx, job); err != nil {
			return err
		}
		now := s.now()
		if err := beans.Delete(tx, match); err != nil {
			return err
		}
		if err := beans.Insert(tx, &Run{JobID: job.ID, VMID: vm.ID, StartedAt: now}); err != nil {
			return err
		}
		if err := job.MarkRunning(tx, now); err != nil {
			return err
		}
		if err := vm.MarkClaimed(tx); err != nil {
			return err
		}
		resp.OK = true
		return s.saveReply(ctx, tx, resp)
	})
}

// ReleaseJob removes an idle or blocked job from the queue (user abort).
func (s *Service) ReleaseJob(ctx context.Context, req *ReleaseJobRequest) (*ReleaseJobResponse, error) {
	return fill(ctx, req, s.releaseJob)
}

// releaseJob is ReleaseJob in the fill form.
func (s *Service) releaseJob(ctx context.Context, req *ReleaseJobRequest, resp *ReleaseJobResponse) error {
	return s.c.InTx(ctx, func(tx *sqldb.Tx) error {
		*resp = ReleaseJobResponse{}
		job := &Job{ID: req.JobID}
		err := beans.Find(tx, job)
		if errors.Is(err, beans.ErrNotFound) {
			resp.OK = false
			return nil
		}
		if err != nil {
			return err
		}
		if job.Owner != req.Owner {
			return fmt.Errorf("core: job %d belongs to %s, not %s", job.ID, job.Owner, req.Owner)
		}
		if job.State != JobIdle && job.State != JobBlocked {
			return &StateError{Entity: "job", ID: job.ID, From: job.State, Op: "ReleaseJob"}
		}
		if err := beans.Delete(tx, job); err != nil {
			return err
		}
		hist := &JobHistory{
			JobID: job.ID, Owner: job.Owner, LengthSec: job.LengthSec,
			SubmittedAt: job.SubmittedAt, CompletedAt: s.now(), Outcome: "removed",
		}
		if err := beans.Insert(tx, hist); err != nil {
			return err
		}
		resp.OK = true
		return nil
	})
}

// PoolStatus answers pool-level queries with set-oriented SQL. The three
// per-table counts run in one read-only snapshot transaction: the
// machine/VM/job numbers are mutually consistent, and the monitoring scan
// takes no locks — it neither stalls behind nor stalls the heartbeat and
// submit writers.
func (s *Service) PoolStatus(ctx context.Context, req *PoolStatusRequest) (*PoolStatusResponse, error) {
	return fill(ctx, req, s.poolStatus)
}

// The per-table counts PoolStatus reads, one constant text each.
const (
	machineStatesSQL = `SELECT state, count(*) FROM machines GROUP BY state ORDER BY state`
	vmStatesSQL      = `SELECT state, count(*) FROM vms GROUP BY state ORDER BY state`
	jobStatesSQL     = `SELECT state, count(*) FROM jobs GROUP BY state ORDER BY state`
)

// poolStatus is PoolStatus in the fill form. Each count is appended to
// the reply's list, recycled with it.
func (s *Service) poolStatus(ctx context.Context, _ *PoolStatusRequest, resp *PoolStatusResponse) error {
	err := s.c.InReadTx(ctx, func(tx *sqldb.Tx) error {
		count := func(sql string, out []StateCount) ([]StateCount, error) {
			rows, err := txQuery(tx, sql)
			if err != nil {
				return nil, err
			}
			for out = out[:0]; rows.Next(); {
				out = append(out, StateCount{State: rows.Col(0).Text(), Count: rows.Col(1).Int64()})
			}
			return out, nil
		}
		var err error
		if resp.Machines, err = count(machineStatesSQL, resp.Machines); err != nil {
			return err
		}
		if resp.VMs, err = count(vmStatesSQL, resp.VMs); err != nil {
			return err
		}
		if resp.Jobs, err = count(jobStatesSQL, resp.Jobs); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, sc := range resp.Jobs {
		if sc.State == JobRunning {
			resp.RunningJobs = sc.Count
		}
	}
	return nil
}

// Queue listing sizes: what a request that names no Limit gets, and the
// most any request gets.
const (
	queueStatusDefault = 1000
	queueStatusMax     = 10000
)

// QueueStatus lists queued jobs, optionally for one owner, from a
// read-only snapshot.
func (s *Service) QueueStatus(ctx context.Context, req *QueueStatusRequest) (*QueueStatusResponse, error) {
	return fill(ctx, req, s.queueStatus)
}

// queueStatus is QueueStatus in the fill form.
func (s *Service) queueStatus(ctx context.Context, req *QueueStatusRequest, resp *QueueStatusResponse) error {
	limit := req.Limit
	if limit <= 0 {
		limit = queueStatusDefault
	}
	limit = min(limit, queueStatusMax)
	return s.c.InReadTx(ctx, func(tx *sqldb.Tx) error {
		// The reply is built row by row through one reused Job, in a slice
		// sized once for the most the query can return — the reply's
		// recycled list, when that holds as many.
		resp.Jobs = slices.Grow(resp.Jobs[:0], limit)
		add := func(j *Job) error {
			resp.Jobs = append(resp.Jobs, QueueJob{ID: j.ID, Owner: j.Owner, State: j.State, LengthSec: j.LengthSec})
			return nil
		}
		if req.Owner != "" {
			return beans.Each(tx, add, "WHERE owner = ? ORDER BY id LIMIT ?", req.Owner, limit)
		}
		return beans.Each(tx, add, "ORDER BY id LIMIT ?", limit)
	})
}

// UserStats returns one owner's accounting record.
func (s *Service) UserStats(ctx context.Context, req *UserStatsRequest) (*UserStatsResponse, error) {
	return fill(ctx, req, s.userStats)
}

// userStats is UserStats in the fill form.
func (s *Service) userStats(ctx context.Context, req *UserStatsRequest, resp *UserStatsResponse) error {
	resp.Owner = req.Owner
	return s.c.InReadTx(ctx, func(tx *sqldb.Tx) error {
		acct := &Accounting{Owner: req.Owner}
		err := beans.Find(tx, acct)
		if errors.Is(err, beans.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		resp.CompletedJobs = acct.CompletedJobs
		resp.DroppedJobs = acct.DroppedJobs
		resp.TotalRuntimeSec = acct.TotalRuntimeSec
		return nil
	})
}

// ConfigGet reads an operational configuration value from a read-only
// snapshot.
func (s *Service) ConfigGet(ctx context.Context, req *ConfigGetRequest) (*ConfigGetResponse, error) {
	return fill(ctx, req, s.configGet)
}

// configGet is ConfigGet in the fill form.
func (s *Service) configGet(ctx context.Context, req *ConfigGetRequest, resp *ConfigGetResponse) error {
	return s.c.InReadTx(ctx, func(tx *sqldb.Tx) error {
		rows, err := txQuery(tx, `SELECT value FROM config WHERE name = ?`, sqldb.NewText(req.Name))
		if err != nil {
			return err
		}
		if !rows.Next() {
			return fmt.Errorf("core: no config entry %q", req.Name)
		}
		resp.Name, resp.Value = req.Name, rows.Col(0).Text()
		return nil
	})
}

// ConfigSet updates a configuration value, keeping history, and loads the
// settings once it has committed, so the value takes hold at once.
// Lowering the heartbeat interval re-stamps, in the same transaction,
// every up machine that may have beaten within old+new of now without
// writing its stamp: such a beat lands in the old window after the stamp,
// so the stamp is younger than old+new, and without the re-stamp the
// shorter sweep timeout could reap a machine that beat a moment ago.
func (s *Service) ConfigSet(ctx context.Context, req *ConfigSetRequest) (*ConfigSetResponse, error) {
	return fill(ctx, req, s.configSet)
}

// configSet is ConfigSet in the fill form.
func (s *Service) configSet(ctx context.Context, req *ConfigSetRequest, resp *ConfigSetResponse) error {
	resp.OK = true
	err := s.c.InTx(ctx, func(tx *sqldb.Tx) error {
		at := s.now()
		name, value, now := sqldb.NewText(req.Name), sqldb.NewText(req.Value), sqldb.NewTime(at)
		if req.Name == ConfigHeartbeatIntervalSec {
			old := s.conf.Load().beatWindow
			if next := time.Duration(configNum(req.Name, req.Value)) * time.Second; next < old {
				cutoff := sqldb.NewTime(at.Add(-old - max(0, next)))
				if _, err := txExec(tx, `UPDATE machines SET last_heartbeat = ? WHERE state = ? AND last_heartbeat > ?`, now, sqldb.NewText(MachineUp), cutoff); err != nil {
					return err
				}
			}
		}
		res, err := txExec(tx, `UPDATE config SET value = ?, updated_at = ? WHERE name = ?`, value, now, name)
		if err != nil {
			return err
		}
		if res.RowsAffected == 0 {
			if _, err := txExec(tx, `INSERT INTO config (name, value, updated_at) VALUES (?, ?, ?)`, name, value, now); err != nil {
				return err
			}
		}
		if _, err := txExec(tx, `INSERT INTO config_history (name, value, changed_at) VALUES (?, ?, ?)`, name, value, now); err != nil {
			return err
		}
		return s.saveReply(ctx, tx, resp)
	})
	if err != nil {
		return err
	}
	s.loadSettings(ctx)
	return nil
}

// RegisterDataset declares an external dataset (provenance extension).
func (s *Service) RegisterDataset(ctx context.Context, req *RegisterDatasetRequest) (*RegisterDatasetResponse, error) {
	return fill(ctx, req, s.registerDataset)
}

// registerDataset is RegisterDataset in the fill form.
func (s *Service) registerDataset(ctx context.Context, req *RegisterDatasetRequest, resp *RegisterDatasetResponse) error {
	ver := req.Version
	if ver == 0 {
		ver = 1
	}
	ds := &Dataset{Name: req.Name, Version: ver, CreatedAt: s.now()}
	return s.c.InTx(ctx, func(tx *sqldb.Tx) error {
		ds.ID = 0
		if err := beans.Insert(tx, ds); err != nil {
			return err
		}
		resp.ID = ds.ID
		return s.saveReply(ctx, tx, resp)
	})
}

// Provenance answers "what executable and input data generated this output
// data set, and which versions were used?" (paper §6).
func (s *Service) Provenance(ctx context.Context, req *ProvenanceRequest) (*ProvenanceResponse, error) {
	return fill(ctx, req, s.provenance)
}

// provenance is Provenance in the fill form.
func (s *Service) provenance(ctx context.Context, req *ProvenanceRequest, resp *ProvenanceResponse) error {
	// One read-only snapshot covers the whole lineage walk: the dataset,
	// its producing job, the executable and the inputs are mutually
	// consistent, and the walk takes no locks.
	return s.c.InReadTx(ctx, func(tx *sqldb.Tx) error {
		*resp = ProvenanceResponse{Inputs: resp.Inputs[:0]}
		var ds []Dataset
		var err error
		if req.Version > 0 {
			ds, err = beans.Select[Dataset](tx, "WHERE name = ? AND version = ?", req.Dataset, req.Version)
		} else {
			ds, err = beans.Select[Dataset](tx, "WHERE name = ? ORDER BY version DESC LIMIT 1", req.Dataset)
		}
		if err != nil {
			return err
		}
		if len(ds) == 0 {
			return fmt.Errorf("core: no dataset %q", req.Dataset)
		}
		d := ds[0]
		resp.Dataset, resp.Version, resp.ProducedByJob = d.Name, d.Version, d.ProducedBy
		if d.ProducedBy == 0 {
			return nil
		}
		// The producing job may be live or already in history. A lookup that
		// fails fails the answer: an empty Owner means no row named one.
		job := sqldb.NewInt(d.ProducedBy)
		rows, err := txQuery(tx, `SELECT owner FROM job_history WHERE job_id = ?`, job)
		if err != nil {
			return err
		}
		for rows.Next() {
			resp.Owner = rows.Col(0).Text()
		}
		if resp.Owner == "" {
			if rows, err = txQuery(tx, `SELECT owner FROM jobs WHERE id = ?`, job); err != nil {
				return err
			}
			if rows.Next() {
				resp.Owner = rows.Col(0).Text()
			}
		}
		rows, err = txQuery(tx, `
			SELECT e.name, e.version FROM job_executables je
			JOIN executables e ON e.id = je.executable_id
			WHERE je.job_id = ?`, job)
		if err != nil {
			return err
		}
		if rows.Next() {
			resp.Executable, resp.ExecutableVersion = rows.Col(0).Text(), rows.Col(1).Text()
		}
		rows, err = txQuery(tx, `
			SELECT d.name, d.version FROM job_inputs ji
			JOIN datasets d ON d.id = ji.dataset_id
			WHERE ji.job_id = ?`, job)
		if err != nil {
			return err
		}
		for rows.Next() {
			resp.Inputs = append(resp.Inputs, fmt.Sprintf("%s@v%d", rows.Col(0).Text(), rows.Col(1).Int64()))
		}
		return nil
	})
}
