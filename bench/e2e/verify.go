package main

import (
	"fmt"
)

// expectedState is what the database must hold given what the clients saw
// acknowledged — the final-state assertions of internal/core's chaos
// test, extended to workloads that stop with work in flight.
type expectedState struct {
	machines, vms        int
	jobs, runs, matches  int
	submitted, completed int
	mustDrain            bool // lifecycle workloads end with nothing idle in the queue
}

func (r *run) expectedState() expectedState {
	e := expectedState{
		machines:  r.sp.Machines,
		vms:       r.sp.Machines * r.sp.VMs,
		submitted: r.sp.Preload,
		mustDrain: r.sp.Kind == kindLifecycle,
	}
	accepted := 0
	for _, c := range r.clients {
		e.submitted += c.submitted
		e.completed += len(c.acked)
		accepted += c.accepted
		for _, n := range c.nodes {
			for _, s := range n.slots {
				if s.state == slotRunning {
					e.runs++
				}
			}
		}
	}
	e.jobs = e.submitted - e.completed
	e.matches = r.matched - accepted
	return e
}

// verifyState is the correctness gate on a live or recovered fixture:
// every acknowledged completion has exactly one completed history row
// and nothing else does, no run or match is orphaned, the queue holds
// exactly the jobs not yet completed, and the pool is whole.
func verifyState(fx *fixture, e expectedState, acked []int64) error {
	count := func(q string) (int, error) {
		var n int
		err := fx.cas.Pool.QueryRow(q).Scan(&n)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", q, err)
		}
		return n, nil
	}
	for _, chk := range []struct {
		what string
		q    string
		want int
	}{
		{"machines", `SELECT count(*) FROM machines`, e.machines},
		{"VMs", `SELECT count(*) FROM vms`, e.vms},
		{"queued jobs", `SELECT count(*) FROM jobs`, e.jobs},
		{"runs", `SELECT count(*) FROM runs`, e.runs},
		{"matches", `SELECT count(*) FROM matches`, e.matches},
		{"runs without a job", `SELECT count(*) FROM runs r LEFT JOIN jobs j ON j.id = r.job_id WHERE j.id IS NULL`, 0},
		{"matches without a job", `SELECT count(*) FROM matches m LEFT JOIN jobs j ON j.id = m.job_id WHERE j.id IS NULL`, 0},
	} {
		got, err := count(chk.q)
		if err != nil {
			return err
		}
		if got != chk.want {
			return fmt.Errorf("%s: database has %d, clients' acknowledgements imply %d", chk.what, got, chk.want)
		}
	}
	if e.mustDrain && e.jobs != e.runs+e.matches {
		return fmt.Errorf("%d jobs submitted and %d completed, but only %d are still running or matched",
			e.submitted, e.completed, e.runs+e.matches)
	}
	rows, err := fx.cas.Pool.Query(`SELECT job_id FROM job_history WHERE outcome = 'completed' ORDER BY job_id`)
	if err != nil {
		return err
	}
	defer rows.Close()
	i := 0
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			return err
		}
		if i > 0 && acked[i-1] == id {
			return fmt.Errorf("job %d has more than one completed history row", id)
		}
		if i >= len(acked) || acked[i] != id {
			return fmt.Errorf("completed history row for job %d was never acknowledged to a client", id)
		}
		i++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if i != len(acked) {
		return fmt.Errorf("acknowledged completion of job %d has no history row", acked[i])
	}
	return nil
}
