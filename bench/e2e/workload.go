package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// Workload kinds: which driver loop a spec runs.
const (
	kindBeats     = "beats"     // idle heartbeats plus an occasional poolStatus
	kindLifecycle = "lifecycle" // jobs from submit to completion, in waves
	kindMixed     = "mixed"     // 10 writes : 1 read beside a standing queue
)

const (
	numClients   = 2 // closed-loop clients, one per core of the reference box
	timedRounds  = 8 // equal-work rounds a run reports medians over
	vmMemoryMB   = 2048
	maxResends   = 3   // a faulted call is resent this often, as cj2node would
	numOwners    = 50  // Zipf-distributed job owners
	maxBatchJobs = 200 // heavy-tailed submit batch sizes are capped here
	mixedBlock   = 11  // monitor_mixed: 10 writes then 1 read
)

// spec is one workload: its fixed sizes and the device it runs on (why
// each exists is in BENCHMARK.json and bench/README.md). Work is fixed per run, not time: OpsPerSecond only
// converts the driver's --seconds into an op count (it is this workload's
// rate on the reference 2-core box), so a faster program finishes sooner
// instead of doing more, and every count repeats run to run.
type spec struct {
	Name string
	Kind string

	Machines int // execute nodes registered at set-up
	VMs      int // slots per node
	Preload  int // idle jobs queued at set-up

	HTTP      bool          // real loopback HTTP instead of wire.Local
	SyncDelay time.Duration // modelled device: 0 or 1 ms per Sync
	PoolPages int           // >0: paged storage with this many frames

	OpsPerSecond int  // sizing constant, see above
	ReadEvery    int  // beats/lifecycle: one status read per this many ops
	Checkpoint   bool // Engine.Checkpoint() once per round, beside the writers
}

var workloads = []spec{
	{
		Name: "heartbeat_steady", Kind: kindBeats,
		Machines: 1000, VMs: 4, HTTP: true,
		OpsPerSecond: 5000, ReadEvery: 100,
	},
	{
		Name: "job_lifecycle", Kind: kindLifecycle,
		Machines: 500, VMs: 4, SyncDelay: time.Millisecond,
		OpsPerSecond: 220, ReadEvery: 10,
	},
	{
		Name: "monitor_mixed", Kind: kindMixed,
		Machines: 500, VMs: 4, Preload: 20000,
		OpsPerSecond: 800,
	},
	{
		Name: "paged_restart", Kind: kindLifecycle,
		Machines: 500, VMs: 4, PoolPages: 24,
		OpsPerSecond: 900, ReadEvery: 20, Checkpoint: true,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload for tests: fewer nodes, fewer jobs. The shape
// (ratios, device, transport) is unchanged.
func (sp spec) scaled(f float64) spec {
	sp.Machines = max(3*standingNodes, int(float64(sp.Machines)*f))
	sp.Preload = int(float64(sp.Preload) * f)
	sp.OpsPerSecond = max(1, int(float64(sp.OpsPerSecond)*f))
	return sp
}

// roundOps converts --seconds into the op count of one timed round: the
// same for all eight rounds, a whole number of per-client units.
func (sp spec) roundOps(seconds float64) int {
	per := float64(sp.OpsPerSecond) * seconds / timedRounds
	return max(1, int(per)/sp.unit()) * sp.unit()
}

// unit is the smallest amount of work that splits evenly over the
// clients: one op each, or one block each on monitor_mixed.
func (sp spec) unit() int {
	if sp.Kind == kindMixed {
		return numClients * mixedBlock
	}
	return numClients
}

// warmupOps is the untimed warm-up round: a quarter of a timed round,
// enough to fill the statement and plan caches, open the connections and
// take the heap to its working size.
func (sp spec) warmupOps(seconds float64) int {
	return max(1, sp.roundOps(seconds)/4/sp.unit()) * sp.unit()
}

// batch is one submitJob call: Count identical jobs for one owner.
type batch struct {
	Owner  string
	Count  int
	MemMB  int64
	Length int64
}

// plan is everything a client's request stream takes from the seed: the
// order it visits its nodes in, the submit batches it draws, the owners
// its status reads ask about and where its read rotation starts. Replies
// (job and match ids) are the program's, not the plan's, so the plan —
// and its hash — depend on the seed alone.
type plan struct {
	Order    []int
	Batches  []batch
	Readers  []string
	ReadRot  int
	KeySeeds [2]uint64
}

// makePlan draws one client's plan. jobs is how many jobs the client must
// be able to submit over the whole run (0 for workloads that submit none).
func makePlan(sp spec, seed int64, clientID, jobs int) *plan {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(clientID)))
	p := &plan{ReadRot: rng.Intn(len(mixedReads))}
	own := 0
	for m := clientID; m < sp.Machines; m += numClients {
		own++
	}
	p.Order = rng.Perm(own)
	p.KeySeeds = [2]uint64{rng.Uint64(), rng.Uint64()}

	// A few heavy owners: Zipf over the user list ("10 Observations on
	// Google Cluster Trace": a handful of users submit most jobs).
	zipf := rand.NewZipf(rng, 1.1, 1, numOwners-1)
	owner := func() string { return ownerName(int(zipf.Uint64())) }
	for i := 0; i < 64; i++ {
		p.Readers = append(p.Readers, owner())
	}
	mems := []int64{0, 0, 512, 1024, vmMemoryMB}
	for total := 0; total < jobs; {
		// Bursty, heavy-tailed batches: Pareto(α=1.1) sizes capped at 200,
		// so most submits are a job or two and a few are hundreds.
		size := int(math.Min(maxBatchJobs, math.Floor(math.Pow(1-rng.Float64(), -1/1.1))))
		p.Batches = append(p.Batches, batch{
			Owner:  owner(),
			Count:  size,
			MemMB:  mems[rng.Intn(len(mems))],
			Length: 1 + int64(math.Min(86400, 60*math.Pow(1-rng.Float64(), -1/1.5))),
		})
		total += size
	}
	return p
}

func ownerName(i int) string { return fmt.Sprintf("user%02d", i) }

// hash fingerprints the plan; tests use it to show the generator is a
// function of the seed.
func (p *plan) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, o := range p.Order {
		put(uint64(o))
	}
	for _, bt := range p.Batches {
		h.Write([]byte(bt.Owner))
		put(uint64(bt.Count))
		put(uint64(bt.MemMB))
		put(uint64(bt.Length))
	}
	for _, r := range p.Readers {
		h.Write([]byte(r))
	}
	put(uint64(p.ReadRot))
	put(p.KeySeeds[0])
	put(p.KeySeeds[1])
	return h.Sum64()
}
