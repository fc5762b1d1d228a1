package core

// Wire message types for the CAS web services. Execute-node daemons and
// user tools exchange these over the SOAP-style envelope layer
// (internal/wire); the same types serve the in-process transport used by
// simulations. Action names follow the paper where it names them
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
// exactly as they lie, each group's LSN in its commit marker. It is
// base64-encoded once, since WAL bytes are binary and XML character data
// is not. Term fences deposed leaders: a receiver whose term is newer
// answers StaleTerm and the sender demotes itself, so a partitioned
// ex-leader can never overwrite a promoted follower. LeaderLSN is the
// leader's durable horizon, letting the follower measure its own lag.
type ReplShipRequest struct {
	Term      uint64 `xml:"Term"`
	Leader    string `xml:"Leader"`
	LeaderLSN uint64 `xml:"LeaderLSN"`
	Log       string `xml:"Log"`
}

// ReplShipResponse acknowledges a ship with the follower's new durable
// applied LSN — the leader's resume point for the next ship.
type ReplShipResponse struct {
	AppliedLSN uint64 `xml:"AppliedLSN"`
}

// ReplJoinRequest announces a follower to the leader. Addr is the
// follower's dialable endpoint (shipping is push-based); AppliedLSN is
// its durable applied horizon, recovered from its own log at restart.
type ReplJoinRequest struct {
	Addr       string `xml:"Addr"`
	AppliedLSN uint64 `xml:"AppliedLSN"`
}

// ReplJoinResponse tells the follower the current term, the leader's
// advertised address, and the durable LSN it will be shipped toward.
type ReplJoinResponse struct {
	Term       uint64 `xml:"Term"`
	Leader     string `xml:"Leader"`
	DurableLSN uint64 `xml:"DurableLSN"`
}

// SubmitRequest enqueues Count identical jobs for Owner.
type SubmitRequest struct {
	Owner       string  `xml:"Owner"`
	Workflow    string  `xml:"Workflow,omitempty"`
	Count       int     `xml:"Count"`
	LengthSec   int64   `xml:"LengthSec"`
	MinMemoryMB int64   `xml:"MinMemoryMB,omitempty"`
	Priority    float64 `xml:"Priority,omitempty"`
	// DependsOn blocks these jobs until the given job completes (0 = none).
	DependsOn int64 `xml:"DependsOn,omitempty"`
	// Executable and Inputs feed the provenance extension.
	Executable        string  `xml:"Executable,omitempty"`
	ExecutableVersion string  `xml:"ExecutableVersion,omitempty"`
	InputDatasets     []int64 `xml:"InputDatasets>ID,omitempty"`
	// Output names a dataset each job produces (provenance extension).
	Output string `xml:"Output,omitempty"`
}

// SubmitResponse reports the assigned job id range [FirstJobID,LastJobID].
type SubmitResponse struct {
	FirstJobID int64 `xml:"FirstJobID"`
	LastJobID  int64 `xml:"LastJobID"`
	WorkflowID int64 `xml:"WorkflowID"`
}

// VMStatus is one virtual machine's state within a heartbeat.
type VMStatus struct {
	Seq   int64  `xml:"Seq"`
	State string `xml:"State"` // "idle" | "claimed"
	JobID int64  `xml:"JobID,omitempty"`
	// Phase reports job progress on claimed VMs: "starting", "running",
	// "completed", "dropped".
	Phase    string `xml:"Phase,omitempty"`
	ExitCode int64  `xml:"ExitCode,omitempty"`
}

// HeartbeatRequest is the startd's periodic message (Table 2 steps 3, 7,
// 12, 14 are all heartbeats with varying payloads).
type HeartbeatRequest struct {
	Machine string `xml:"Machine"`
	// Boot marks the first heartbeat after a (re)start; the CAS records
	// boot-time attributes into machine history.
	Boot          bool       `xml:"Boot,omitempty"`
	Arch          string     `xml:"Arch,omitempty"`
	OpSys         string     `xml:"OpSys,omitempty"`
	TotalMemoryMB int64      `xml:"TotalMemoryMB,omitempty"`
	VMs           []VMStatus `xml:"VMs>VM"`
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
	Seq     int64  `xml:"Seq"`
	Command string `xml:"Command"`
	// Match details, present when Command is MATCHINFO (Table 2 step 8).
	MatchID   int64  `xml:"MatchID,omitempty"`
	JobID     int64  `xml:"JobID,omitempty"`
	Owner     string `xml:"Owner,omitempty"`
	LengthSec int64  `xml:"LengthSec,omitempty"`
}

// HeartbeatResponse carries one command per reported VM.
type HeartbeatResponse struct {
	Commands []VMCommand `xml:"Commands>Command"`
}

// AcceptMatchRequest commits a previously advertised match (Table 2 step 9).
type AcceptMatchRequest struct {
	Machine string `xml:"Machine"`
	Seq     int64  `xml:"Seq"`
	MatchID int64  `xml:"MatchID"`
	JobID   int64  `xml:"JobID"`
}

// AcceptMatchResponse acknowledges the claim.
type AcceptMatchResponse struct {
	OK     bool   `xml:"OK"`
	Reason string `xml:"Reason,omitempty"`
}

// ReleaseJobRequest removes an idle job from the queue (user abort).
type ReleaseJobRequest struct {
	JobID int64  `xml:"JobID"`
	Owner string `xml:"Owner"`
}

// ReleaseJobResponse acknowledges removal.
type ReleaseJobResponse struct {
	OK bool `xml:"OK"`
}

// StateCount pairs a state label with a count in status reports.
type StateCount struct {
	State string `xml:"State"`
	Count int64  `xml:"Count"`
}

// PoolStatusRequest asks for cluster-wide state counts.
type PoolStatusRequest struct{}

// PoolStatusResponse summarizes machines, VMs and jobs by state — the
// "pool-level queries" the collector answered in Condor, here one GROUP BY
// away.
type PoolStatusResponse struct {
	Machines []StateCount `xml:"Machines>S"`
	VMs      []StateCount `xml:"VMs>S"`
	Jobs     []StateCount `xml:"Jobs>S"`
	// RunningJobs is the jobs-in-progress gauge used by Figures 11/15/16.
	RunningJobs int64 `xml:"RunningJobs"`
}

// QueueStatusRequest lists a user's jobs (empty owner = all).
type QueueStatusRequest struct {
	Owner string `xml:"Owner,omitempty"`
	Limit int    `xml:"Limit,omitempty"`
}

// QueueJob is one row of a queue listing.
type QueueJob struct {
	ID        int64  `xml:"ID"`
	Owner     string `xml:"Owner"`
	State     string `xml:"State"`
	LengthSec int64  `xml:"LengthSec"`
}

// QueueStatusResponse lists queue entries.
type QueueStatusResponse struct {
	Jobs []QueueJob `xml:"Jobs>Job"`
}

// UserStatsRequest asks for one user's accounting record.
type UserStatsRequest struct {
	Owner string `xml:"Owner"`
}

// UserStatsResponse reports accumulated usage.
type UserStatsResponse struct {
	Owner           string `xml:"Owner"`
	CompletedJobs   int64  `xml:"CompletedJobs"`
	DroppedJobs     int64  `xml:"DroppedJobs"`
	TotalRuntimeSec int64  `xml:"TotalRuntimeSec"`
}

// ConfigGetRequest / ConfigSetRequest manage operational configuration.
type ConfigGetRequest struct {
	Name string `xml:"Name"`
}

// ConfigGetResponse returns a configuration value.
type ConfigGetResponse struct {
	Name  string `xml:"Name"`
	Value string `xml:"Value"`
}

// ConfigSetRequest updates a configuration value (historized).
type ConfigSetRequest struct {
	Name  string `xml:"Name"`
	Value string `xml:"Value"`
}

// ConfigSetResponse acknowledges the update.
type ConfigSetResponse struct {
	OK bool `xml:"OK"`
}

// RegisterDatasetRequest declares an external input dataset (provenance).
type RegisterDatasetRequest struct {
	Name    string `xml:"Name"`
	Version int64  `xml:"Version"`
}

// RegisterDatasetResponse returns the dataset id.
type RegisterDatasetResponse struct {
	ID int64 `xml:"ID"`
}

// ProvenanceRequest asks which executable and inputs produced a dataset.
type ProvenanceRequest struct {
	Dataset string `xml:"Dataset"`
	Version int64  `xml:"Version,omitempty"` // 0 = latest
}

// ProvenanceResponse answers the paper's §6 provenance question.
type ProvenanceResponse struct {
	Dataset           string   `xml:"Dataset"`
	Version           int64    `xml:"Version"`
	ProducedByJob     int64    `xml:"ProducedByJob"`
	Owner             string   `xml:"Owner,omitempty"`
	Executable        string   `xml:"Executable,omitempty"`
	ExecutableVersion string   `xml:"ExecutableVersion,omitempty"`
	Inputs            []string `xml:"Inputs>Dataset"`
}
