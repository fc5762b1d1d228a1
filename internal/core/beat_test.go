package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"condorj2/internal/sqldb"
)

// tablesExcept renders every table but skip, row by row.
func tablesExcept(t *testing.T, eng *sqldb.DB, skip string) string {
	t.Helper()
	var b strings.Builder
	for _, name := range eng.TableNames() {
		if name == skip {
			continue
		}
		rows, err := eng.Query(`SELECT * FROM ` + name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s: %v\n", name, rows.Data)
	}
	return b.String()
}

// TestIdleBeatCommitsNothing: a beat that changes nothing is a pure read —
// no commit, no log record — until its machine's stamp is a heartbeat
// interval old; then one group rewrites the stamp and nothing else. The
// first beat of a machine not stored as up (parked by RecoverInFlight,
// reaped) and a boot beat write however fresh the stamp.
func TestIdleBeatCommitsNothing(t *testing.T) {
	cas := walCAS(t)
	clk := cas.clock.(*fakeClock)
	s, eng, ctx := cas.Service, cas.Engine, context.Background()
	const window = 60 * time.Second // heartbeat_interval_sec's default
	commits := func() uint64 { return eng.WALStats().Commits }
	machine := func() (state string, stamp time.Time) {
		t.Helper()
		row, err := eng.QueryRow(`SELECT state, last_heartbeat FROM machines WHERE name = 'node'`)
		if err != nil {
			t.Fatal(err)
		}
		return row[0].Text(), row[1].TimeValue()
	}
	// wrote checks that what just beat at clk.t committed and left the
	// machine up, stamped now.
	wrote := func(what string, before uint64) {
		t.Helper()
		if commits() == before {
			t.Fatalf("%s committed nothing", what)
		}
		if state, stamp := machine(); state != MachineUp || !stamp.Equal(clk.t) {
			t.Fatalf("after %s the machine is %s, stamped %v; want up, stamped %v", what, state, stamp, clk.t)
		}
	}
	poll := func() { beat(t, s, "node", false, idleVMs(4)...) }

	c := commits()
	beat(t, s, "node", true, idleVMs(4)...)
	wrote("the boot beat", c)

	stamped, c := clk.t, commits()
	for i := 0; i < 29; i++ {
		clk.advance(2 * time.Second)
		poll()
	}
	if got := commits() - c; got != 0 {
		t.Fatalf("29 idle polls inside the interval committed %d groups, want 0", got)
	}
	if _, stamp := machine(); !stamp.Equal(stamped) {
		t.Fatalf("the polls moved the stamp from %v to %v", stamped, stamp)
	}

	// 58 s since the stamp: the next poll is the first a window after it.
	others := tablesExcept(t, eng, "machines")
	lsn := eng.DurableLSN()
	clk.advance(2 * time.Second)
	if clk.t.Sub(stamped) != window {
		t.Fatalf("the poll is %v after the stamp, want %v", clk.t.Sub(stamped), window)
	}
	poll()
	if got := commits() - c; got != 1 {
		t.Fatalf("the poll a window after the stamp committed %d groups, want 1", got)
	}
	if run, durable, err := eng.CommittedSince(lsn, 0); err != nil || len(run) == 0 || durable != lsn+1 {
		t.Fatalf("LSNs %d to %d logged (a %d-byte run, %v), want one group", lsn+1, durable, len(run), err)
	}
	wrote("the poll a window after the stamp", c)
	if got := tablesExcept(t, eng, "machines"); got != others {
		t.Fatalf("the stamp's commit changed more than machines:\n%s\n→\n%s", others, got)
	}

	// RecoverInFlight parks the machine offline; the next beat, well inside
	// the window of the grace stamp, brings it back up.
	clk.advance(2 * time.Second)
	if _, err := s.RecoverInFlight(ctx); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)
	c = commits()
	poll()
	wrote("the first beat after RecoverInFlight", c)

	// So does the first beat after a reap.
	clk.advance(3*window + time.Second)
	if st, err := s.ReapDeadMachines(ctx, 3*window); err != nil || st.MachinesReaped != 1 {
		t.Fatalf("reap: %+v, %v; want the machine reaped", st, err)
	}
	if state, _ := machine(); state != MachineOffline {
		t.Fatalf("reaped machine is %s", state)
	}
	clk.advance(2 * time.Second)
	c = commits()
	poll()
	wrote("the first beat after a reap", c)

	// A boot beat always writes its stamp.
	clk.advance(2 * time.Second)
	c = commits()
	beat(t, s, "node", true, idleVMs(4)...)
	wrote("a boot beat inside the window", c)
}

// offlineMachines names the machines stored offline.
func offlineMachines(t *testing.T, cas *CAS) []string {
	t.Helper()
	rows, err := cas.Engine.Query(`SELECT name FROM machines WHERE state = ?`, MachineOffline)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, row := range rows.Data {
		names = append(names, row[0].Text())
	}
	return names
}

// TestReapBoundUnderHousekeeping drives housekeeping ticks a second apart
// under the default interval W = 60 s: a sweep every 60th tick reaps the
// machines stamped more than 3W ago. The stamp trails the last beat by
// less than W, so a node polling every 2 s is never reaped in ten
// simulated minutes, and a node that falls silent is reaped after more
// than 2W of silence and no later than 3W plus one sweep period. The quiet
// nodes boot a second apart, so their stamps fall on every phase of the
// window when they go silent.
func TestReapBoundUnderHousekeeping(t *testing.T) {
	cas, clk := newTestCAS(t)
	ctx := context.Background()
	const (
		window   = 60 * time.Second
		pollers  = 4
		quiet    = 60
		silentAt = 150 // the last tick the quiet nodes beat on
		ticks    = 600
	)
	lastBeat := map[string]time.Time{}
	reapedAt := map[string]time.Time{}
	for n := 1; n <= ticks; n++ {
		clk.advance(time.Second)
		// Node i boots on tick i+1 and polls every 2 s from then on.
		for i := 0; i < quiet; i++ {
			if n <= i || (n-i-1)%2 != 0 {
				continue
			}
			names := []string{fmt.Sprintf("quiet-%02d", i)}
			if i < pollers {
				names = append(names, fmt.Sprintf("poller-%d", i))
			}
			for _, name := range names {
				if strings.HasPrefix(name, "quiet") && n > silentAt {
					continue
				}
				beat(t, cas.Service, name, n == i+1, idleVMs(1)...)
				lastBeat[name] = clk.t
			}
		}
		cas.housekeep(ctx, n)
		for _, name := range offlineMachines(t, cas) {
			if strings.HasPrefix(name, "poller") {
				t.Fatalf("tick %d: %s, polling every 2 s, was reaped", n, name)
			}
			if _, ok := reapedAt[name]; !ok {
				reapedAt[name] = clk.t
			}
		}
	}
	for i := 0; i < quiet; i++ {
		name := fmt.Sprintf("quiet-%02d", i)
		at, ok := reapedAt[name]
		if !ok {
			t.Errorf("%s, silent since %v, was never reaped", name, lastBeat[name])
			continue
		}
		if silence := at.Sub(lastBeat[name]); silence <= 2*window || silence > 3*window+window {
			t.Errorf("%s reaped after %v of silence, want more than %v and at most %v", name, silence, 2*window, 4*window)
		}
	}
}

// TestReapBoundLoweredInterval: lowering heartbeat_interval_sec from 60 to
// 10 re-stamps the machines that may have beaten inside the old window
// without writing, so the shorter sweep timeout reaps none that goes on
// beating at least once per new interval — whatever the age of its stamp
// when the key changes. The tick that lowers the key also sweeps. A node
// polling every 7 s leaves its stamp 63 s behind before rewriting it: the
// stamp of a node that beat a moment ago can be older than the old window.
func TestReapBoundLoweredInterval(t *testing.T) {
	for _, every := range []int{2, 7} {
		t.Run(fmt.Sprintf("polls every %ds", every), func(t *testing.T) {
			cas, clk := newTestCAS(t)
			s, ctx := cas.Service, context.Background()
			const (
				nodes   = 63  // booting a second apart: every phase of the stamp
				lowerAt = 200 // a multiple of the new interval: that tick sweeps
				ticks   = lowerAt + 120
			)
			for n := 1; n <= ticks; n++ {
				clk.advance(time.Second)
				for i := 0; i < nodes; i++ {
					if n > i && (n-i-1)%every == 0 {
						beat(t, s, fmt.Sprintf("node-%02d", i), n == i+1, idleVMs(1)...)
					}
				}
				if n == lowerAt {
					if _, err := s.ConfigSet(ctx, &ConfigSetRequest{Name: ConfigHeartbeatIntervalSec, Value: "10"}); err != nil {
						t.Fatal(err)
					}
				}
				cas.housekeep(ctx, n)
				if reaped := offlineMachines(t, cas); len(reaped) != 0 {
					t.Fatalf("tick %d: reaped %v", n, reaped)
				}
			}
		})
	}
}

// TestAllIdleReportOnMatchedVMGetsMatchInfo: a node reporting every slot
// idle while one of its VMs is stored matched is no all-idle beat — the
// pairing join runs and that slot gets its MATCHINFO.
func TestAllIdleReportOnMatchedVMGetsMatchInfo(t *testing.T) {
	cas, _ := newTestCAS(t)
	s, ctx := cas.Service, context.Background()
	sub, err := s.Submit(ctx, &SubmitRequest{Owner: "u", Count: 1, LengthSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	beat(t, s, "node", true, idleVMs(2)...)
	if _, err := s.ScheduleCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if n := count(t, cas, `SELECT count(*) FROM vms WHERE state = ?`, VMMatched); n != 1 {
		t.Fatalf("%d VMs matched, want 1", n)
	}
	resp := beat(t, s, "node", false, idleVMs(2)...)
	var offers []VMCommand
	for _, cmd := range resp.Commands {
		if cmd.Command == CmdMatchInfo {
			offers = append(offers, cmd)
		}
	}
	if len(offers) != 1 || offers[0].JobID != sub.FirstJobID {
		t.Fatalf("commands %+v, want one MATCHINFO for job %d", resp.Commands, sub.FirstJobID)
	}
}

// TestBeatPairingsEachCombination holds the beat's pairing join to what
// the two joins it replaced answered (one over matches and jobs, one over
// runs, each an inner join). One machine's five VMs hold every pairing a
// VM can: a match only, a run only, both, neither, and a match whose job
// row is gone, which pairs nothing. The node reports them three ways —
// every slot idle, each slot executing the job the database pairs it with,
// each executing one other job — and each report's commands (MATCHINFO,
// RELEASE, re-adoption) and the pairings and states it leaves are pinned.
func TestBeatPairingsEachCombination(t *testing.T) {
	claimed := func(jobs ...int64) []VMStatus {
		out := make([]VMStatus, len(jobs))
		for i, j := range jobs {
			out[i] = VMStatus{Seq: int64(i), State: "claimed", JobID: j}
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		report   []VMStatus
		commands string
		after    string
	}{
		{
			"every slot idle", idleVMs(5),
			"[{0 MATCHINFO 1 1 u 60} {1 OK 0 0  0} {2 OK 0 0  0} {3 OK 0 0  0} {4 OK 0 0  0}]",
			"matches [[1 1 1] [3 99 5]]; runs []; jobs [[1 'matched'] [2 'idle'] [3 'idle'] [4 'idle'] [5 'idle'] [6 'idle']]; vms [[1 'matched'] [2 'idle'] [3 'idle'] [4 'idle'] [5 'matched']]",
		},
		{
			"each slot on its paired job", claimed(1, 2, 4, 5, 99),
			"[{0 RELEASE 0 1  0} {1 OK 0 0  0} {2 OK 0 0  0} {3 OK 0 0  0} {4 RELEASE 0 99  0}]",
			"matches [[2 3 3]]; runs [[1 2 2] [2 4 3] [3 5 4]]; jobs [[1 'idle'] [2 'running'] [3 'matched'] [4 'running'] [5 'running'] [6 'idle']]; vms [[1 'idle'] [2 'claimed'] [3 'claimed'] [4 'claimed'] [5 'idle']]",
		},
		{
			"each slot on another job", claimed(6, 6, 6, 6, 6),
			"[{0 OK 0 0  0} {1 RELEASE 0 6  0} {2 RELEASE 0 6  0} {3 RELEASE 0 6  0} {4 RELEASE 0 6  0}]",
			"matches []; runs [[3 6 1]]; jobs [[1 'idle'] [2 'idle'] [3 'idle'] [4 'idle'] [5 'idle'] [6 'running']]; vms [[1 'claimed'] [2 'idle'] [3 'idle'] [4 'idle'] [5 'idle']]",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cas, _ := newTestCAS(t)
			s, eng, ctx := cas.Service, cas.Engine, context.Background()
			if _, err := s.Submit(ctx, &SubmitRequest{Owner: "u", Count: 6, LengthSec: 60}); err != nil {
				t.Fatal(err)
			}
			beat(t, s, "node", true, idleVMs(5)...)
			for _, sql := range []string{
				// VM 1 (seq 0): a match only.
				`INSERT INTO matches (job_id, vm_id) VALUES (1, 1)`,
				`UPDATE jobs SET state = 'matched' WHERE id = 1`,
				`UPDATE vms SET state = 'matched' WHERE id = 1`,
				// VM 2: a run only.
				`INSERT INTO runs (job_id, vm_id) VALUES (2, 2)`,
				`UPDATE jobs SET state = 'running' WHERE id = 2`,
				`UPDATE vms SET state = 'claimed' WHERE id = 2`,
				// VM 3: a match of job 3 beside a run of job 4.
				`INSERT INTO matches (job_id, vm_id) VALUES (3, 3)`,
				`INSERT INTO runs (job_id, vm_id) VALUES (4, 3)`,
				`UPDATE jobs SET state = 'matched' WHERE id = 3`,
				`UPDATE jobs SET state = 'running' WHERE id = 4`,
				`UPDATE vms SET state = 'claimed' WHERE id = 3`,
				// VM 4: neither. VM 5: a match of a job that is gone.
				`INSERT INTO matches (job_id, vm_id) VALUES (99, 5)`,
				`UPDATE vms SET state = 'matched' WHERE id = 5`,
			} {
				if _, err := eng.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			resp := beat(t, s, "node", false, tc.report...)
			if got := fmt.Sprint(resp.Commands); got != tc.commands {
				t.Errorf("commands\n  %s\nwant\n  %s", got, tc.commands)
			}
			var b strings.Builder
			for i, sql := range []string{
				`SELECT id, job_id, vm_id FROM matches ORDER BY id`,
				`SELECT id, job_id, vm_id FROM runs ORDER BY id`,
				`SELECT id, state FROM jobs ORDER BY id`,
				`SELECT id, state FROM vms ORDER BY id`,
			} {
				rows, err := eng.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					b.WriteString("; ")
				}
				fmt.Fprintf(&b, "%s %v", [...]string{"matches", "runs", "jobs", "vms"}[i], rows.Data)
			}
			if got := b.String(); got != tc.after {
				t.Errorf("after the beat\n  %s\nwant\n  %s", got, tc.after)
			}
		})
	}
}
