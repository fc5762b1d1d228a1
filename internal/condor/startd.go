package condor

import (
	"fmt"
	"sort"
	"time"

	"condorj2/internal/classad"
	"condorj2/internal/cluster"
	"condorj2/internal/sim"
)

// Startd is the Condor execute-node daemon: it advertises its virtual
// machines to the collector, accepts claims from schedds, and spawns a
// starter per activated claim. The starter sets up the job environment
// through the shared node kernel and reports events to the job's shadow
// (paper §2.3).
type Startd struct {
	eng       *sim.Engine
	kernel    *cluster.Kernel
	collector *Collector
	vms       []startdVM
	updTicker *sim.Ticker
}

type startdVM struct {
	claimedBy *Schedd
	busy      bool
	jobID     int64
}

// NewStartd registers the node's VM ads with the collector and begins
// periodic updates.
func NewStartd(eng *sim.Engine, kernel *cluster.Kernel, collector *Collector, updateInterval time.Duration) *Startd {
	if updateInterval <= 0 {
		updateInterval = 5 * time.Minute
	}
	s := &Startd{
		eng: eng, kernel: kernel, collector: collector,
		vms: make([]startdVM, kernel.Config().VMs),
	}
	s.sendUpdates()
	s.updTicker = eng.Every(updateInterval, kernel.Config().Name+".upd", s.sendUpdates)
	return s
}

// sendUpdates pushes current VM ads to the collector (Table 1 step 3:
// "Startd sends periodic heartbeat to collector").
func (s *Startd) sendUpdates() {
	cfg := s.kernel.Config()
	for i := range s.vms {
		ad := machineAd(cfg, i)
		if s.vms[i].claimedBy != nil {
			ad.SetString("state", "Claimed")
		}
		s.collector.UpdateMachine(vmKey(cfg.Name, i), ad, s, i)
	}
}

func vmKey(machine string, seq int) string {
	return fmt.Sprintf("vm%d@%s", seq+1, machine)
}

// Claim assigns a VM to a schedd (negotiator's match notification, Table 1
// step 7, confirmed by the schedd in step 8).
func (s *Startd) Claim(seq int, schedd *Schedd) bool {
	vm := &s.vms[seq]
	if vm.claimedBy != nil {
		return false
	}
	vm.claimedBy = schedd
	return true
}

// ReleaseClaim frees a VM.
func (s *Startd) ReleaseClaim(seq int) {
	vm := &s.vms[seq]
	vm.claimedBy = nil
	vm.busy = false
	vm.jobID = 0
}

// Activate starts a job on a claimed VM: the startd "spawn[s] a starter
// daemon to set up the actual execution of the job" (Table 1 step 10).
// Events flow to the shadow: start, then completion (steps 12-14).
func (s *Startd) Activate(seq int, jobID int64, length time.Duration, shadow *Shadow) bool {
	vm := &s.vms[seq]
	if vm.claimedBy == nil || vm.busy {
		return false
	}
	done, ok := s.kernel.RequestSetup()
	if !ok {
		// Setup timed out; the shadow learns the job did not start.
		s.eng.After(0, "starter.fail", func() { shadow.JobFailed() })
		return true
	}
	vm.busy = true
	vm.jobID = jobID
	s.eng.At(done, "starter.start", func() { shadow.JobStarted() })
	s.eng.At(done.Add(length), "starter.done", func() {
		end := s.kernel.RequestTeardown()
		s.eng.At(end, "starter.exit", func() {
			vm.busy = false
			vm.jobID = 0
			shadow.JobCompleted()
		})
	})
	return true
}

// Stop halts periodic updates.
func (s *Startd) Stop() {
	if s.updTicker != nil {
		s.updTicker.Stop()
	}
}

// Collector is the pool's information hub: an in-memory store of machine
// ads, rebuilt from periodic updates, with no transaction or recovery
// logic (paper §2.2).
type Collector struct {
	machines map[string]*machineEntry
	order    []string // deterministic iteration
}

type machineEntry struct {
	ad     *classad.Ad
	startd *Startd
	seq    int
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{machines: make(map[string]*machineEntry)}
}

// UpdateMachine stores a machine ad (insert or refresh).
func (c *Collector) UpdateMachine(key string, ad *classad.Ad, s *Startd, seq int) {
	if _, ok := c.machines[key]; !ok {
		c.order = append(c.order, key)
	}
	c.machines[key] = &machineEntry{ad: ad, startd: s, seq: seq}
}

// MachineCount reports registered VM ads.
func (c *Collector) MachineCount() int { return len(c.machines) }

// unclaimed lists machines available for matching, interleaved by VM slot
// so successive matches land on different physical machines (matching the
// negotiator's spreading behaviour; concentrating a burst of activations
// on one node's serialized starter would overwhelm it).
func (c *Collector) unclaimed() []*machineEntry {
	var out []*machineEntry
	for _, key := range c.order {
		e := c.machines[key]
		if v, ok := e.ad.Lookup("state"); ok {
			env := &classad.Env{My: e.ad}
			if s, ok := env.Eval(v).AsString(); ok && s == "Claimed" {
				continue
			}
		}
		if e.startd.vms[e.seq].claimedBy != nil {
			continue
		}
		out = append(out, e)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}
