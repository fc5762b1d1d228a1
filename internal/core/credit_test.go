package core

import (
	"context"
	"sync"
	"testing"

	"condorj2/internal/sqldb"
)

// TestCreditConcurrentCompletionsNoDeadlock drives the accounting credit
// the way concurrent completions of one owner's jobs do: several container
// transactions crediting the same tuple at once. Read-then-write took the
// tuple's shared lock and upgraded it, so any two of them deadlocked (the
// lock manager counted it, beans retried, and a run of bad luck surfaced
// as "transaction retries exhausted"); the single UPDATE takes the
// exclusive lock first and they simply queue. carol has no tuple yet, so
// her first credits also race to create it.
func TestCreditConcurrentCompletionsNoDeadlock(t *testing.T) {
	cas, _ := newTestCAS(t)
	s := cas.Service
	ctx := context.Background()
	if err := s.c.InTx(ctx, func(tx *sqldb.Tx) error { return s.credit(tx, "alice", 5, false) }); err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		calls   = 200
	)
	before := cas.Engine.LockStats().Deadlocks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				owner := "alice"
				if i%2 == 1 {
					owner = "carol"
				}
				dropped := (w+i)%4 == 0
				err := s.c.InTx(ctx, func(tx *sqldb.Tx) error { return s.credit(tx, owner, 7, dropped) })
				if err != nil {
					t.Errorf("worker %d call %d (%s): %v", w, i, owner, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d := cas.Engine.LockStats().Deadlocks - before; d != 0 {
		t.Errorf("%d deadlocks among concurrent credits, want 0", d)
	}
	// Per owner: workers*calls/2 credits, a quarter of them drops.
	const each = workers * calls / 2
	for owner, base := range map[string]int64{"alice": 1, "carol": 0} {
		resp, err := s.UserStats(ctx, &UserStatsRequest{Owner: owner})
		if err != nil {
			t.Fatal(err)
		}
		wantDone, wantDrop := base+each*3/4, int64(each/4)
		wantRun := 7*int64(each*3/4) + 5*base
		if resp.CompletedJobs != wantDone || resp.DroppedJobs != wantDrop || resp.TotalRuntimeSec != wantRun {
			t.Errorf("%s: completed %d dropped %d runtime %d, want %d %d %d", owner,
				resp.CompletedJobs, resp.DroppedJobs, resp.TotalRuntimeSec, wantDone, wantDrop, wantRun)
		}
	}
}
