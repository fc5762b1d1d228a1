package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorj2/internal/sqldb"
)

// selectsOn counts the SELECT statements on table the engine runs from
// here on.
func selectsOn(eng *sqldb.DB, table string) *atomic.Int64 {
	var n atomic.Int64
	eng.SetStatsHook(func(s sqldb.StmtStats) {
		if s.Kind == "SELECT" && s.Table == table {
			n.Add(1)
		}
	})
	return &n
}

// TestSettingsOneReadPerTick: a leader tick reads the config table once,
// in its settings load, and a scheduling cycle called outside the tick
// reads it not at all.
func TestSettingsOneReadPerTick(t *testing.T) {
	cas, _ := newTestCAS(t)
	ctx := context.Background()
	if _, err := cas.Service.Submit(ctx, &SubmitRequest{Owner: "u", Count: 2, LengthSec: 60}); err != nil {
		t.Fatal(err)
	}
	beat(t, cas.Service, "node1", true, idleVMs(2)...)
	selects := selectsOn(cas.Engine, "config")
	defer cas.Engine.SetStatsHook(nil)
	for _, n := range []int{1, replyGCTicks} {
		selects.Store(0)
		cas.housekeep(ctx, n)
		if got := selects.Load(); got != 1 {
			t.Fatalf("tick %d ran %d SELECTs on config, want 1", n, got)
		}
	}
	selects.Store(0)
	if _, err := cas.Service.ScheduleCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if got := selects.Load(); got != 0 {
		t.Fatalf("a scheduling cycle outside the tick ran %d SELECTs on config, want 0", got)
	}
}

// TestSettingsFollowDirectUpdate: a value an administrator writes with a
// plain UPDATE, not through ConfigSet, takes effect by the next leader
// tick — an engine timeout as much as a key the service itself reads.
func TestSettingsFollowDirectUpdate(t *testing.T) {
	cas, _ := newTestCAS(t)
	ctx := context.Background()
	s := cas.Service
	if _, err := s.ConfigSet(ctx, &ConfigSetRequest{Name: ConfigStmtTimeoutMs, Value: "1500"}); err != nil {
		t.Fatal(err)
	}
	if got := cas.Engine.StmtTimeout(); got != 1500*time.Millisecond {
		t.Fatalf("statement timeout after ConfigSet = %s, want 1.5s", got)
	}
	if _, err := s.Submit(ctx, &SubmitRequest{Owner: "u", Count: 3, LengthSec: 60}); err != nil {
		t.Fatal(err)
	}
	beat(t, s, "node1", true, idleVMs(3)...)
	for name, value := range map[string]string{ConfigStmtTimeoutMs: "2500", "schedule_batch": "1"} {
		if _, err := cas.Engine.Exec(`UPDATE config SET value = ? WHERE name = ?`, value, name); err != nil {
			t.Fatal(err)
		}
	}
	cas.housekeep(ctx, 1)
	if got := cas.Engine.StmtTimeout(); got != 2500*time.Millisecond {
		t.Fatalf("statement timeout after an UPDATE and a tick = %s, want 2.5s", got)
	}
	if got := s.conf.Load().batch; got != 1 {
		t.Fatalf("published batch after an UPDATE and a tick = %d, want 1", got)
	}
	if matched := count(t, cas, `SELECT count(*) FROM matches`); matched != 1 {
		t.Fatalf("the tick's cycle matched %d jobs under a batch of 1, want 1", matched)
	}
}

// TestConfigSetsConvergeOnTheTable: concurrent ConfigSets of one key each
// load the settings after they commit, and the loads are serialized, so
// however they interleave the published value ends equal to the table's.
func TestConfigSetsConvergeOnTheTable(t *testing.T) {
	cas, _ := newTestCAS(t)
	ctx := context.Background()
	s := cas.Service
	for round := 0; round < 10; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				value := strconv.Itoa(100 + 10*round + w)
				if _, err := s.ConfigSet(ctx, &ConfigSetRequest{Name: "schedule_batch", Value: value}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		row, err := cas.Engine.QueryRow(`SELECT value FROM config WHERE name = 'schedule_batch'`)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(s.conf.Load().batch), row[0].Text(); got != want {
			t.Fatalf("round %d: published batch %s, table holds %s", round, got, want)
		}
	}
}

// TestSweepCadenceFollowsTheTicker: the dead-machine sweep is counted in
// ticks of the period the scheduler runs at, the one assembly loaded, so a
// schedule_interval_sec changed on a running CAS does not make the sweep
// run more often: at the default 1 s tick and 60 s heartbeat interval,
// ticks 1..60 sweep once even after the key is set to 10.
func TestSweepCadenceFollowsTheTicker(t *testing.T) {
	cas, clk := newTestCAS(t)
	ctx := context.Background()
	if _, err := cas.Service.ConfigSet(ctx, &ConfigSetRequest{Name: "schedule_interval_sec", Value: "10"}); err != nil {
		t.Fatal(err)
	}
	beat(t, cas.Service, "node1", true, idleVMs(2)...)
	sweeps := selectsOn(cas.Engine, "machines")
	defer cas.Engine.SetStatsHook(nil)
	for n := 1; n <= 60; n++ {
		clk.advance(time.Second)
		cas.housekeep(ctx, n)
	}
	if got := sweeps.Load(); got != 1 {
		t.Fatalf("ticks 1..60 of a 1 s ticker ran %d sweeps after schedule_interval_sec was set to 10, want 1", got)
	}
}
