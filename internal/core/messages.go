package core

// Wire message types for the CAS web services. Execute-node daemons and
// user tools exchange these over the envelope layer (internal/wire),
// which carries each in its packed form: every exported field, in
// declaration order, so reordering fields changes the wire. The same
// types serve the in-process transport used by simulations. Action names follow the paper where it names them
// ("beginExecute", "acceptMatch", the periodic heartbeat web service).

// Web service action names.
const (
	ActionSubmitJob    = "submitJob"
	ActionHeartbeat    = "heartbeat"
	ActionAcceptMatch  = "acceptMatch"
	ActionReleaseJob   = "releaseJob"
	ActionPoolStatus   = "poolStatus"
	ActionQueueStatus  = "queueStatus"
	ActionUserStats    = "userStats"
	ActionConfigGet    = "configGet"
	ActionConfigSet    = "configSet"
	ActionProvenance   = "provenance"
	ActionRegisterData = "registerDataset"
)

// Replication action names (the repl.Ship / repl.Join pair). Ship pushes
// committed WAL groups leader→follower; Join announces a follower to a
// leader and reports the follower's durable applied LSN, which is where
// shipping resumes after either side restarts.
const (
	ActionReplShip = "replShip"
	ActionReplJoin = "replJoin"
)

// ReplShipRequest pushes a run of committed groups to a follower. Log is
// the run: the log bytes of whole groups, cut from the leader's log file
// exactly as they lie, each group's LSN in its commit marker, and it
// travels as those bytes. Term fences deposed leaders: a receiver whose
// term is newer answers StaleTerm and the sender demotes itself, so a
// partitioned ex-leader can never overwrite a promoted follower.
// LeaderLSN is the leader's durable horizon, letting the follower measure
// its own lag.
type ReplShipRequest struct {
	Term      uint64
	Leader    string
	LeaderLSN uint64
	Log       []byte
}

// ReplShipResponse acknowledges a ship with the follower's new durable
// applied LSN — the leader's resume point for the next ship.
type ReplShipResponse struct {
	AppliedLSN uint64
}

// ReplJoinRequest announces a follower to the leader. Addr is the
// follower's dialable endpoint (shipping is push-based); AppliedLSN is
// its durable applied horizon, recovered from its own log at restart.
type ReplJoinRequest struct {
	Addr       string
	AppliedLSN uint64
}

// ReplJoinResponse tells the follower the current term, the leader's
// advertised address, and the durable LSN it will be shipped toward.
type ReplJoinResponse struct {
	Term       uint64
	Leader     string
	DurableLSN uint64
}

// SubmitRequest enqueues Count identical jobs for Owner.
type SubmitRequest struct {
	Owner       string
	Workflow    string
	Count       int
	LengthSec   int64
	MinMemoryMB int64
	Priority    float64
	// DependsOn blocks these jobs until the given job completes (0 = none).
	DependsOn int64
	// Executable and Inputs feed the provenance extension.
	Executable        string
	ExecutableVersion string
	InputDatasets     []int64
	// Output names a dataset each job produces (provenance extension).
	Output string
}

// SubmitResponse reports the assigned job id range [FirstJobID,LastJobID].
type SubmitResponse struct {
	FirstJobID int64
	LastJobID  int64
	WorkflowID int64
}

// VMStatus is one virtual machine's state within a heartbeat.
type VMStatus struct {
	Seq   int64
	State string // "idle" | "claimed"
	JobID int64
	// Phase reports job progress on claimed VMs: "starting", "running",
	// "completed", "dropped".
	Phase    string
	ExitCode int64
}

// HeartbeatRequest is the startd's periodic message (Table 2 steps 3, 7,
// 12, 14 are all heartbeats with varying payloads).
type HeartbeatRequest struct {
	Machine string
	// Boot marks the first heartbeat after a (re)start; the CAS records
	// boot-time attributes into machine history.
	Boot          bool
	Arch          string
	OpSys         string
	TotalMemoryMB int64
	VMs           []VMStatus
}

// FaultUnknownVM is the fault code a heartbeat gets when it reports a VM
// the CAS has no tuple for: the node re-registers (Boot) on its next beat.
const FaultUnknownVM = "UnknownVM"

// VM command verbs returned by heartbeats.
const (
	CmdOK        = "OK"
	CmdMatchInfo = "MATCHINFO"
	// CmdRelease tells the node to abandon the job it reported: the CAS
	// has no record of that execution and could not re-adopt it (job
	// gone, or paired with another VM).
	CmdRelease = "RELEASE"
)

// VMCommand is the CAS's instruction for one VM.
type VMCommand struct {
	Seq     int64
	Command string
	// Match details, present when Command is MATCHINFO (Table 2 step 8).
	MatchID   int64
	JobID     int64
	Owner     string
	LengthSec int64
}

// HeartbeatResponse carries one command per reported VM.
type HeartbeatResponse struct {
	Commands []VMCommand
}

// AcceptMatchRequest commits a previously advertised match (Table 2 step 9).
type AcceptMatchRequest struct {
	Machine string
	Seq     int64
	MatchID int64
	JobID   int64
}

// AcceptMatchResponse acknowledges the claim.
type AcceptMatchResponse struct {
	OK     bool
	Reason string
}

// ReleaseJobRequest removes an idle job from the queue (user abort).
type ReleaseJobRequest struct {
	JobID int64
	Owner string
}

// ReleaseJobResponse acknowledges removal.
type ReleaseJobResponse struct {
	OK bool
}

// StateCount pairs a state label with a count in status reports.
type StateCount struct {
	State string
	Count int64
}

// PoolStatusRequest asks for cluster-wide state counts.
type PoolStatusRequest struct{}

// PoolStatusResponse summarizes machines, VMs and jobs by state — the
// "pool-level queries" the collector answered in Condor, here one GROUP BY
// away.
type PoolStatusResponse struct {
	Machines []StateCount
	VMs      []StateCount
	Jobs     []StateCount
	// RunningJobs is the jobs-in-progress gauge used by Figures 11/15/16.
	RunningJobs int64
}

// QueueStatusRequest lists a user's jobs (empty owner = all).
type QueueStatusRequest struct {
	Owner string
	Limit int
}

// QueueJob is one row of a queue listing.
type QueueJob struct {
	ID        int64
	Owner     string
	State     string
	LengthSec int64
}

// QueueStatusResponse lists queue entries.
type QueueStatusResponse struct {
	Jobs []QueueJob
}

// UserStatsRequest asks for one user's accounting record.
type UserStatsRequest struct {
	Owner string
}

// UserStatsResponse reports accumulated usage.
type UserStatsResponse struct {
	Owner           string
	CompletedJobs   int64
	DroppedJobs     int64
	TotalRuntimeSec int64
}

// ConfigGetRequest / ConfigSetRequest manage operational configuration.
type ConfigGetRequest struct {
	Name string
}

// ConfigGetResponse returns a configuration value.
type ConfigGetResponse struct {
	Name  string
	Value string
}

// ConfigSetRequest updates a configuration value (historized).
type ConfigSetRequest struct {
	Name  string
	Value string
}

// ConfigSetResponse acknowledges the update.
type ConfigSetResponse struct {
	OK bool
}

// RegisterDatasetRequest declares an external input dataset (provenance).
type RegisterDatasetRequest struct {
	Name    string
	Version int64
}

// RegisterDatasetResponse returns the dataset id.
type RegisterDatasetResponse struct {
	ID int64
}

// ProvenanceRequest asks which executable and inputs produced a dataset.
type ProvenanceRequest struct {
	Dataset string
	Version int64 // 0 = latest
}

// ProvenanceResponse answers the paper's §6 provenance question.
type ProvenanceResponse struct {
	Dataset           string
	Version           int64
	ProducedByJob     int64
	Owner             string
	Executable        string
	ExecutableVersion string
	Inputs            []string
}
