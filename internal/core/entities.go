package core

import (
	"fmt"
	"time"

	"condorj2/internal/beans"
	"condorj2/internal/sqldb"
)

// Entity beans: one struct per table, with the fine-grained state-machine
// services the paper's persistence layer exposes ("verify that the object
// is in a state in which the particular service call is valid, perform the
// requested operation, and verify that the service invocation did not
// leave the object in an inconsistent state", §4.1). Only the application
// logic layer calls these; clients never see them directly.

// Job states.
const (
	JobIdle    = "idle"    // queued, waiting for a match
	JobBlocked = "blocked" // waiting on a dependency
	JobMatched = "matched" // match tuple exists, startd not yet committed
	JobRunning = "running" // run tuple exists, executing on a VM
)

// VM states. Offline VMs belong to machines whose heartbeats stopped (or
// to a freshly restarted CAS); they are excluded from matchmaking until
// their machine heartbeats again.
const (
	VMIdle    = "idle"
	VMMatched = "matched"
	VMClaimed = "claimed"
	VMOffline = "offline"
)

// Machine states.
const (
	MachineUp      = "up"
	MachineOffline = "offline"
)

// StateError reports a fine-grained service invoked in the wrong state.
type StateError struct {
	Entity string
	ID     any
	From   string
	Op     string
}

func (e *StateError) Error() string {
	return fmt.Sprintf("core: %s %v: invalid operation %s in state %q", e.Entity, e.ID, e.Op, e.From)
}

// Job is one queued computation.
type Job struct {
	ID          int64     `bean:"id,pk,auto"`
	Owner       string    `bean:"owner"`
	WorkflowID  int64     `bean:"workflow_id"`
	State       string    `bean:"state"`
	LengthSec   int64     `bean:"length_sec"`
	MinMemoryMB int64     `bean:"min_memory_mb"`
	Priority    float64   `bean:"priority"`
	DependsOn   int64     `bean:"depends_on"`
	SubmittedAt time.Time `bean:"submitted_at"`
	MatchedAt   time.Time `bean:"matched_at"`
	StartedAt   time.Time `bean:"started_at"`
}

// MarkMatched transitions idle → matched.
func (j *Job) MarkMatched(tx *sqldb.Tx, now time.Time) error {
	if j.State != JobIdle {
		return &StateError{Entity: "job", ID: j.ID, From: j.State, Op: "MarkMatched"}
	}
	j.State = JobMatched
	j.MatchedAt = now
	return beans.Update(tx, j)
}

// MarkRunning transitions matched → running.
func (j *Job) MarkRunning(tx *sqldb.Tx, now time.Time) error {
	if j.State != JobMatched {
		return &StateError{Entity: "job", ID: j.ID, From: j.State, Op: "MarkRunning"}
	}
	j.State = JobRunning
	j.StartedAt = now
	return beans.Update(tx, j)
}

// Release returns a matched or running job to the idle queue (match
// rejected, node dropped the job, etc.).
func (j *Job) Release(tx *sqldb.Tx) error {
	if j.State != JobMatched && j.State != JobRunning {
		return &StateError{Entity: "job", ID: j.ID, From: j.State, Op: "Release"}
	}
	j.State = JobIdle
	j.MatchedAt = time.Time{}
	j.StartedAt = time.Time{}
	return beans.Update(tx, j)
}

// Unblock transitions blocked → idle once the dependency completes.
func (j *Job) Unblock(tx *sqldb.Tx) error {
	if j.State != JobBlocked {
		return &StateError{Entity: "job", ID: j.ID, From: j.State, Op: "Unblock"}
	}
	j.State = JobIdle
	return beans.Update(tx, j)
}

// Machine is one physical execute node.
type Machine struct {
	Name          string    `bean:"name,pk"`
	State         string    `bean:"state"`
	Arch          string    `bean:"arch"`
	OpSys         string    `bean:"opsys"`
	TotalMemoryMB int64     `bean:"total_memory_mb"`
	VMCount       int64     `bean:"vm_count"`
	BootedAt      time.Time `bean:"booted_at"`
	LastHeartbeat time.Time `bean:"last_heartbeat"`
}

// Beat records a heartbeat. The liveness stamp is written at most once per
// window (heartbeat_interval_sec): on a boot beat, on a machine not stored
// as up (reaped, or parked by RecoverInFlight), or once the stored stamp
// is a window old. The stamp so trails the last beat by less than one
// window, and every beat in between writes nothing.
func (m *Machine) Beat(tx *sqldb.Tx, now time.Time, boot bool, window time.Duration) error {
	if !boot && m.State == MachineUp && now.Sub(m.LastHeartbeat) < window {
		return nil
	}
	m.State = MachineUp
	m.LastHeartbeat = now
	return beans.Update(tx, m)
}

// VM is one virtual machine (scheduling slot) on a physical machine.
// Scheduling decisions are made at VM granularity (paper §5: "scheduling
// decisions are made at the virtual machine, not the physical machine,
// level").
type VM struct {
	ID       int64  `bean:"id,pk,auto"`
	Machine  string `bean:"machine"`
	Seq      int64  `bean:"seq"`
	State    string `bean:"state"`
	MemoryMB int64  `bean:"memory_mb"`
}

// MarkMatched transitions idle → matched.
func (v *VM) MarkMatched(tx *sqldb.Tx) error {
	if v.State != VMIdle {
		return &StateError{Entity: "vm", ID: v.ID, From: v.State, Op: "MarkMatched"}
	}
	v.State = VMMatched
	return beans.Update(tx, v)
}

// MarkClaimed transitions matched → claimed (job accepted and starting).
func (v *VM) MarkClaimed(tx *sqldb.Tx) error {
	if v.State != VMMatched {
		return &StateError{Entity: "vm", ID: v.ID, From: v.State, Op: "MarkClaimed"}
	}
	v.State = VMClaimed
	return beans.Update(tx, v)
}

// Release returns the VM to the idle pool.
func (v *VM) Release(tx *sqldb.Tx) error {
	v.State = VMIdle
	return beans.Update(tx, v)
}

// Reclaim forces the VM to claimed from any state. Only the heartbeat's
// run re-adoption path uses it, when the node proves a job is executing
// on a slot the database had written off (CAS restart, machine reap).
func (v *VM) Reclaim(tx *sqldb.Tx) error {
	v.State = VMClaimed
	return beans.Update(tx, v)
}

// Match is the scheduler's pairing of a job with a VM, pending acceptance
// by the startd (Table 2 steps 6-10).
type Match struct {
	ID        int64     `bean:"id,pk,auto"`
	JobID     int64     `bean:"job_id"`
	VMID      int64     `bean:"vm_id"`
	CreatedAt time.Time `bean:"created_at"`
}

// Run records a job executing on a VM.
type Run struct {
	ID        int64     `bean:"id,pk,auto"`
	JobID     int64     `bean:"job_id"`
	VMID      int64     `bean:"vm_id"`
	StartedAt time.Time `bean:"started_at"`
}

// JobHistory is the post-execution record (post-execution processing —
// "recording historical information about the job" — is part of the
// scheduling throughput path, §5.1.1).
type JobHistory struct {
	ID          int64     `bean:"id,pk,auto"`
	JobID       int64     `bean:"job_id"`
	Owner       string    `bean:"owner"`
	Machine     string    `bean:"machine"`
	VMSeq       int64     `bean:"vm_seq"`
	LengthSec   int64     `bean:"length_sec"`
	SubmittedAt time.Time `bean:"submitted_at"`
	StartedAt   time.Time `bean:"started_at"`
	CompletedAt time.Time `bean:"completed_at"`
	ExitCode    int64     `bean:"exit_code"`
	Outcome     string    `bean:"outcome"`
}

// MachineHistory records machine attributes that only change across
// reboots (§5.2.2: "whenever an execute machine restarts, the CAS monitors
// and records extra historical information about machine attributes").
type MachineHistory struct {
	ID         int64     `bean:"id,pk,auto"`
	Machine    string    `bean:"machine"`
	Attr       string    `bean:"attr"`
	Value      string    `bean:"value"`
	RecordedAt time.Time `bean:"recorded_at"`
}

// Drop records an execute node failing to run a job (Figure 8's metric).
type Drop struct {
	ID      int64     `bean:"id,pk,auto"`
	Machine string    `bean:"machine"`
	VMSeq   int64     `bean:"vm_seq"`
	JobID   int64     `bean:"job_id"`
	Reason  string    `bean:"reason"`
	At      time.Time `bean:"at"`
}

// Accounting aggregates per-owner usage.
type Accounting struct {
	Owner           string `bean:"owner,pk"`
	CompletedJobs   int64  `bean:"completed_jobs"`
	DroppedJobs     int64  `bean:"dropped_jobs"`
	TotalRuntimeSec int64  `bean:"total_runtime_sec"`
}

// Workflow groups jobs submitted together.
type Workflow struct {
	ID        int64     `bean:"id,pk,auto"`
	Name      string    `bean:"name"`
	Owner     string    `bean:"owner"`
	CreatedAt time.Time `bean:"created_at"`
}

// User is a pool user or administrator.
type User struct {
	Name      string    `bean:"name,pk"`
	Priority  float64   `bean:"priority"`
	CreatedAt time.Time `bean:"created_at"`
}

// Dataset, JobInput and Executable implement the provenance extension
// (paper §6: "What executable and input data generated this particular
// output data set and which versions ... were used?").
type Dataset struct {
	ID         int64     `bean:"id,pk,auto"`
	Name       string    `bean:"name"`
	Version    int64     `bean:"version"`
	ProducedBy int64     `bean:"produced_by"` // producing job id; 0 for external source data
	CreatedAt  time.Time `bean:"created_at"`
}

// JobInput links a job to a dataset it consumed.
type JobInput struct {
	ID        int64 `bean:"id,pk,auto"`
	JobID     int64 `bean:"job_id"`
	DatasetID int64 `bean:"dataset_id"`
}

// Executable is a versioned program jobs run.
type Executable struct {
	ID      int64  `bean:"id,pk,auto"`
	Name    string `bean:"name"`
	Version string `bean:"version"`
}

// JobExecutable links a job to the executable version it ran.
type JobExecutable struct {
	JobID        int64 `bean:"job_id,pk"`
	ExecutableID int64 `bean:"executable_id"`
}
