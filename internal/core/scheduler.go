package core

import (
	"context"
	"sort"

	"condorj2/internal/beans"
	"condorj2/internal/sqldb"
)

// The scheduler implements Table 2 steps 5-6: "CAS selects relevant
// machine tuples, job tuples from database for scheduling algorithm; CAS
// inserts match tuple, updates related job tuple". Because the job queue
// and the resource pool share one database, matchmaking is a set-oriented
// query instead of Condor's collector→negotiator→schedd message exchange.
//
// The paper is explicit that CondorJ2 has no smoothing heuristics ("There
// is no specialized scheduling algorithm here", §5.2.3): the cycle greedily
// pairs the oldest eligible idle jobs with idle VMs, FIFO within priority.

// ScheduleStats summarizes one scheduling cycle.
type ScheduleStats struct {
	// IdleVMs and IdleJobs are the candidate set sizes examined.
	IdleVMs, IdleJobs int
	// Matched counts match tuples inserted this cycle.
	Matched int
}

// matchPair is one (job, VM) assignment by candidate-slice index.
type matchPair struct {
	ji, vi int
}

// pairJobsToVMs assigns each job (in the given order: priority DESC, id
// ASC from the selection query) the smallest idle VM whose memory fits,
// falling back to none when no VM is large enough. VMs are sorted by
// (memory, id) once and each job binary-searches its fit, so a 500×500
// cycle costs ~500 log-probes instead of up to 250k pairwise comparisons.
// Best-fit also wastes less memory headroom than the old first-fit-by-id,
// so large-memory jobs arriving later still find large VMs free.
func pairJobsToVMs(jobs []Job, vms []VM) []matchPair {
	order := make([]int, len(vms))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := &vms[order[a]], &vms[order[b]]
		if va.MemoryMB != vb.MemoryMB {
			return va.MemoryMB < vb.MemoryMB
		}
		return va.ID < vb.ID
	})
	pairs := make([]matchPair, 0, min(len(jobs), len(vms)))
	for ji := range jobs {
		if len(order) == 0 {
			break
		}
		need := jobs[ji].MinMemoryMB
		pos := sort.Search(len(order), func(i int) bool {
			return vms[order[i]].MemoryMB >= need
		})
		if pos == len(order) {
			continue // no remaining VM is large enough
		}
		pairs = append(pairs, matchPair{ji: ji, vi: order[pos]})
		order = append(order[:pos], order[pos+1:]...)
	}
	return pairs
}

// ScheduleCycle runs one matchmaking pass, pairing up to the published
// batch of idle jobs with idle VMs.
func (s *Service) ScheduleCycle(ctx context.Context) (ScheduleStats, error) {
	batch := s.conf.Load().batch
	var stats ScheduleStats
	err := s.c.InTx(ctx, func(tx *sqldb.Tx) error {
		stats = ScheduleStats{}
		now := s.now()
		vms, err := beans.Select[VM](tx, "WHERE state = ? ORDER BY id LIMIT ?", VMIdle, batch)
		if err != nil {
			return err
		}
		stats.IdleVMs = len(vms)
		if len(vms) == 0 {
			return nil
		}
		jobs, err := beans.Select[Job](tx,
			"WHERE state = ? ORDER BY priority DESC, id LIMIT ?", JobIdle, len(vms))
		if err != nil {
			return err
		}
		stats.IdleJobs = len(jobs)
		if len(jobs) == 0 {
			return nil
		}
		// Pair against the single placement constraint the schema models:
		// the VM must have enough memory for the job.
		for _, p := range pairJobsToVMs(jobs, vms) {
			job, vm := &jobs[p.ji], &vms[p.vi]
			if err := beans.Insert(tx, &Match{JobID: job.ID, VMID: vm.ID, CreatedAt: now}); err != nil {
				return err
			}
			if err := job.MarkMatched(tx, now); err != nil {
				return err
			}
			if err := vm.MarkMatched(tx); err != nil {
				return err
			}
			stats.Matched++
		}
		return nil
	})
	return stats, err
}
