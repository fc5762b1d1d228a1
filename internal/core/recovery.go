package core

import (
	"context"
	"time"

	"condorj2/internal/beans"
	"condorj2/internal/sqldb"
)

// RecoverInFlight reconciles operational state after a CAS restart on a
// recovered database. The WAL guarantees no committed tuple is lost
// (paper §4: the RDBMS supplies "transaction and recovery services"), and
// a CAS restart does not stop the nodes: jobs keep executing while the
// server is down. Recovery therefore PRESERVES in-flight coordination
// state rather than releasing it — a released-and-rematched job would run
// twice while its first execution is still going:
//
//   - match and run tuples survive; the nodes' next heartbeats reconcile
//     them (pending matches are re-offered, active runs re-acknowledged,
//     orphans re-adopted or RELEASEd by handleVMStatus),
//   - matched/claimed VMs keep their states (AcceptMatch's claimed
//     transition requires a live matched state),
//   - idle VMs are parked offline so matchmaking skips them until their
//     machine proves it is alive again,
//   - machines are marked offline with a grace-stamped heartbeat: the
//     reaper's timeout starts at the restart, not at a heartbeat the
//     downtime swallowed, so surviving nodes get a full window to
//     re-register before their work is released.
//
// RecoveryStats reports what was preserved and parked.
type RecoveryStats struct {
	RunsPreserved    int64
	MatchesPreserved int64
	VMsParked        int64
	MachinesOffline  int64
}

// ReapStats reports one dead-machine sweep.
type ReapStats struct {
	MachinesReaped int
	JobsReleased   int
	VMsReset       int
}

// ReapDeadMachines releases the work of machines whose heartbeats stopped:
// jobs matched to or running on their VMs return to the idle queue, the
// VMs return to the pool, and the machine is marked offline until it
// heartbeats again. The paper's footnote 5 is the contract: "the nodes
// still need to communicate with the scheduler and job queue manager
// periodically during the course of the job to make sure the job is not
// dropped".
//
// The sweep covers machines in ANY state past the cutoff, not just up
// ones: restart recovery preserves matched/claimed work under offline
// machines, and if such a node never re-registers its jobs must still be
// released here. A machine only counts as reaped when the sweep actually
// changed something, so repeated sweeps stay idempotent.
func (s *Service) ReapDeadMachines(ctx context.Context, timeout time.Duration) (ReapStats, error) {
	var stats ReapStats
	err := s.c.InTx(ctx, func(tx *sqldb.Tx) error {
		stats = ReapStats{}
		cutoff := s.now().Add(-timeout)
		dead, err := beans.Select[Machine](tx, "WHERE last_heartbeat < ?", cutoff)
		if err != nil {
			return err
		}
		for i := range dead {
			m := &dead[i]
			touched := false
			vms, err := beans.Select[VM](tx, "WHERE machine = ?", m.Name)
			if err != nil {
				return err
			}
			for j := range vms {
				vm := &vms[j]
				if vm.State == VMOffline {
					continue
				}
				released, err := s.clearVMPairings(tx, vm, 0)
				if err != nil {
					return err
				}
				stats.JobsReleased += released
				// Offline, not idle: the scheduler must not hand new work
				// to a machine nobody has heard from.
				vm.State = VMOffline
				if err := beans.Update(tx, vm); err != nil {
					return err
				}
				stats.VMsReset++
				touched = true
			}
			if m.State != MachineOffline {
				m.State = MachineOffline
				if err := beans.Update(tx, m); err != nil {
					return err
				}
				touched = true
			}
			if touched {
				stats.MachinesReaped++
			}
		}
		return nil
	})
	return stats, err
}

// RecoverInFlight performs the restart reconciliation in one transaction.
func (s *Service) RecoverInFlight(ctx context.Context) (RecoveryStats, error) {
	var stats RecoveryStats
	err := s.c.InTx(ctx, func(tx *sqldb.Tx) error {
		stats = RecoveryStats{}
		count := func(sql string) (int64, error) {
			rows, err := txQuery(tx, sql)
			if err != nil {
				return 0, err
			}
			rows.Next() // an aggregate: always one row
			return rows.Col(0).Int64(), nil
		}
		var err error
		if stats.RunsPreserved, err = count(`SELECT count(*) FROM runs`); err != nil {
			return err
		}
		if stats.MatchesPreserved, err = count(`SELECT count(*) FROM matches`); err != nil {
			return err
		}

		// Only idle VMs park offline: a matched or claimed VM's state is
		// the coordination record of work the node may still be doing.
		res, err := txExec(tx, `UPDATE vms SET state = ? WHERE state = ?`, sqldb.NewText(VMOffline), sqldb.NewText(VMIdle))
		if err != nil {
			return err
		}
		stats.VMsParked = res.RowsAffected

		res, err = txExec(tx, `UPDATE machines SET state = ?, last_heartbeat = ? WHERE state = ?`,
			sqldb.NewText(MachineOffline), sqldb.NewTime(s.now()), sqldb.NewText(MachineUp))
		stats.MachinesOffline = res.RowsAffected
		return err
	})
	return stats, err
}
