package sqldb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitConcurrentDurableAndGrouped drives concurrent committers
// against a SyncGroup WAL over a slow (simulated-fsync) VFS: every commit
// must be durable after reopen, and the pipeline must have amortized fsyncs
// across commits (strictly fewer syncs than commits, groups larger than 1).
func TestGroupCommitConcurrentDurableAndGrouped(t *testing.T) {
	mem := NewMemVFS()
	vfs := &FaultVFS{Inner: mem, SyncDelay: 200 * time.Microsecond}
	db, err := Open(Options{VFS: vfs, Path: "g.wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE g (id INTEGER PRIMARY KEY, worker INTEGER NOT NULL, seq INTEGER NOT NULL)`)

	const workers, each = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; s < each; s++ {
				if _, err := db.Exec(`INSERT INTO g (id, worker, seq) VALUES (?, ?, ?)`,
					w*each+s+1, w, s); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	stats := db.WALStats()
	if stats.Commits < workers*each {
		t.Fatalf("commits = %d, want >= %d", stats.Commits, workers*each)
	}
	if stats.Syncs >= stats.Commits {
		t.Fatalf("no amortization: %d syncs for %d commits", stats.Syncs, stats.Commits)
	}
	if stats.MaxGroup < 2 {
		t.Fatalf("max group = %d, want >= 2", stats.MaxGroup)
	}
	if stats.Flushes != stats.Syncs {
		t.Fatalf("flushes = %d, syncs = %d; should match under SyncGroup", stats.Flushes, stats.Syncs)
	}
	var histTotal uint64
	for _, n := range stats.GroupSizeHist {
		histTotal += n
	}
	if histTotal != stats.Flushes {
		t.Fatalf("histogram total = %d, flushes = %d", histTotal, stats.Flushes)
	}
	if stats.CommitWait <= 0 {
		t.Fatal("commit wait time not recorded")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Every commit that returned success must survive recovery.
	db2, err := Open(Options{VFS: mem, Path: "g.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT count(*) FROM g`)
	if got := rows.Data[0][0].Int64(); got != workers*each {
		t.Fatalf("recovered %d rows, want %d", got, workers*each)
	}
	rows = mustQuery(t, db2, `SELECT worker, count(*) FROM g GROUP BY worker`)
	if rows.Len() != workers {
		t.Fatalf("recovered %d workers, want %d", rows.Len(), workers)
	}
	for _, r := range rows.Data {
		if r[1].Int64() != each {
			t.Fatalf("worker %d recovered %d rows, want %d", r[0].Int64(), r[1].Int64(), each)
		}
	}
}

// TestGroupCommitSingle checks the degenerate case: a lone committer forms
// a group of one and is durable on return.
func TestGroupCommitSingle(t *testing.T) {
	mem := NewMemVFS()
	db, err := Open(Options{VFS: mem, Path: "s.wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE s (x INTEGER)`)
	mustExec(t, db, `INSERT INTO s VALUES (7)`)
	stats := db.WALStats()
	if stats.Commits != 2 || stats.Syncs != 2 {
		t.Fatalf("stats = %+v, want 2 commits / 2 syncs", stats)
	}
	if stats.GroupSizeHist[0] != 2 {
		t.Fatalf("group-of-1 bucket = %d, want 2", stats.GroupSizeHist[0])
	}
	// Durable without Close: simulate a crash by reopening the VFS.
	db2, err := Open(Options{VFS: mem, Path: "s.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT x FROM s`)
	if rows.Len() != 1 || rows.Data[0][0].Int64() != 7 {
		t.Fatalf("recovered = %v", rows.Data)
	}
	db.Close()
}

// failSyncVFS makes every File.Sync fail once armed.
type failSyncVFS struct {
	*MemVFS
	fail bool
}

type failSyncFile struct {
	File
	vfs *failSyncVFS
}

func (f failSyncFile) Sync() error {
	if f.vfs.fail {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

func (v *failSyncVFS) Open(name string) (File, error) {
	f, err := v.MemVFS.Open(name)
	if err != nil {
		return nil, err
	}
	return failSyncFile{File: f, vfs: v}, nil
}

// TestGroupCommitSyncErrorPropagates: when the group's single fsync fails,
// every member of the group gets the error (no transaction is told it is
// durable when it is not).
func TestGroupCommitSyncErrorPropagates(t *testing.T) {
	vfs := &failSyncVFS{MemVFS: NewMemVFS()}
	db, err := Open(Options{VFS: vfs, Path: "f.wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE f (x INTEGER)`)
	vfs.fail = true
	if _, err := db.Exec(`INSERT INTO f VALUES (1)`); err == nil {
		t.Fatal("commit reported success despite failed fsync")
	}
	vfs.fail = false
	mustExec(t, db, `INSERT INTO f VALUES (2)`)
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"group", SyncGroup, true},
		{"never", SyncNever, true},
		{"bogus", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParseSyncPolicy(%q) succeeded", c.in)
		}
	}
}

// TestWALStatsEveryCommit: with no policy named, every sequential commit
// leads its own flush — one write, one fsync, a group of one — the baseline
// concurrent committers amortize away.
func TestWALStatsEveryCommit(t *testing.T) {
	db, err := Open(Options{VFS: NewMemVFS(), Path: "e.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE e (x INTEGER)`)
	for i := 0; i < 9; i++ {
		mustExec(t, db, `INSERT INTO e VALUES (?)`, i)
	}
	stats := db.WALStats()
	if stats.Commits != 10 || stats.Syncs != 10 || stats.Flushes != 10 || stats.GroupSizeHist[0] != 10 {
		t.Fatalf("stats = %+v, want 10 commits = 10 syncs = 10 flushes, all groups of one", stats)
	}
	if got := stats.FsyncsPerCommit(); got != 1.0 {
		t.Fatalf("fsyncs/commit = %v, want 1.0", got)
	}
}

// gateSyncVFS parks every File.Sync on gate while one is set, announcing
// each arrival on entered.
type gateSyncVFS struct {
	*MemVFS
	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{}
}

type gateSyncFile struct {
	File
	vfs *gateSyncVFS
}

func (f gateSyncFile) Sync() error {
	f.vfs.mu.Lock()
	gate := f.vfs.gate
	f.vfs.mu.Unlock()
	if gate != nil {
		f.vfs.entered <- struct{}{}
		<-gate
	}
	return f.File.Sync()
}

func (v *gateSyncVFS) Open(name string) (File, error) {
	f, err := v.MemVFS.Open(name)
	if err != nil {
		return nil, err
	}
	return gateSyncFile{File: f, vfs: v}, nil
}

// TestZeroValuePolicyCancelRetractsQueuedCommit: an engine opened without
// naming a policy commits through the group pipeline — a committer arriving
// while a flush's fsync is in flight waits in the queue, not on the file
// mutex, and a context that fires there retracts its batch: nothing of it is
// written.
func TestZeroValuePolicyCancelRetractsQueuedCommit(t *testing.T) {
	vfs := &gateSyncVFS{MemVFS: NewMemVFS(), entered: make(chan struct{}, 1)}
	db, err := Open(Options{VFS: vfs, Path: "z.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE z (id INTEGER PRIMARY KEY)`)

	gate := make(chan struct{})
	vfs.mu.Lock()
	vfs.gate = gate
	vfs.mu.Unlock()
	leadErr := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO z VALUES (1)`)
		leadErr <- err
	}()
	<-vfs.entered // the leader's fsync is in flight

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	folErr := make(chan error, 1)
	go func() {
		_, err := db.ExecContext(ctx, `INSERT INTO z VALUES (2)`)
		folErr <- err
	}()
	queued := func() bool {
		db.wal.gmu.Lock()
		defer db.wal.gmu.Unlock()
		return len(db.wal.queue) == 1
	}
	for deadline := time.Now().Add(5 * time.Second); !queued(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("second committer never reached the group-commit queue")
		}
	}
	cancel()
	select {
	case err := <-folErr:
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("queued commit returned %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("cancelled commit still waiting while the leader's fsync is in flight")
	}
	vfs.mu.Lock()
	vfs.gate = nil
	vfs.mu.Unlock()
	close(gate)
	if err := <-leadErr; err != nil {
		t.Fatalf("leader commit: %v", err)
	}
	if cs := db.CancelStats(); cs.CommitRetractions != 1 {
		t.Errorf("CommitRetractions = %d, want 1", cs.CommitRetractions)
	}
	if ws := db.WALStats(); ws.Commits != 2 || ws.Flushes != 2 {
		t.Errorf("stats = %+v, want 2 commits in 2 flushes (the retracted batch in neither)", ws)
	}
	if rows := mustQuery(t, db, `SELECT id FROM z`); rows.Len() != 1 || rows.Data[0][0].Int64() != 1 {
		t.Errorf("rows = %v, want only id 1", rows.Data)
	}
}

// TestGroupCommitCarriesQueuedBatches: two commits that queue behind a
// flush whose fsync is held ride one flush together once it completes —
// whichever of them takes the flush token writes both, and the other finds
// its batch answered and writes nothing. Each round is exactly two flushes,
// groups of one and two, and every commit survives a reopen.
func TestGroupCommitCarriesQueuedBatches(t *testing.T) {
	vfs := &gateSyncVFS{MemVFS: NewMemVFS(), entered: make(chan struct{}, 1)}
	db, err := Open(Options{VFS: vfs, Path: "c.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE c (id INTEGER PRIMARY KEY)`)
	queued := func(n int) bool {
		db.wal.gmu.Lock()
		defer db.wal.gmu.Unlock()
		return len(db.wal.queue) == n
	}
	const rounds = 100
	for r := 0; r < rounds; r++ {
		gate := make(chan struct{})
		vfs.mu.Lock()
		vfs.gate = gate
		vfs.mu.Unlock()
		errs := make(chan error, 3)
		insert := func(id int) {
			_, err := db.Exec(`INSERT INTO c VALUES (?)`, id)
			errs <- err
		}
		before := db.WALStats()
		go insert(3*r + 1)
		<-vfs.entered // the first flush's fsync is held
		vfs.mu.Lock()
		vfs.gate = nil
		vfs.mu.Unlock()
		go insert(3*r + 2)
		go insert(3*r + 3)
		for deadline := time.Now().Add(5 * time.Second); !queued(2); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				close(gate)
				t.Fatalf("round %d: the two commits never queued behind the held flush", r)
			}
		}
		close(gate)
		for range 3 {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		after := db.WALStats()
		if got := after.Flushes - before.Flushes; got != 2 {
			t.Fatalf("round %d: %d flushes, want 2", r, got)
		}
		if one, two := after.GroupSizeHist[0]-before.GroupSizeHist[0], after.GroupSizeHist[1]-before.GroupSizeHist[1]; one != 1 || two != 1 {
			t.Fatalf("round %d: %d groups of one and %d of two, want one of each", r, one, two)
		}
	}
	// Durable without Close: reopen the file as a crash would leave it.
	db2, err := Open(Options{VFS: vfs.MemVFS, Path: "c.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := mustQuery(t, db2, `SELECT count(*) FROM c`).Data[0][0].Int64(); got != 3*rounds {
		t.Fatalf("recovered %d rows, want %d", got, 3*rounds)
	}
}

// TestWALSyncNeverSkipsOnlyTheFsync: SyncNever is the same pipeline —
// batches queue, flushes are counted, groups form — minus the fsync, and
// what it wrote is what a reopen recovers.
func TestWALSyncNeverSkipsOnlyTheFsync(t *testing.T) {
	mem := NewMemVFS()
	vfs := &FaultVFS{Inner: mem} // no fault armed: it is here to count the file's syncs
	db, err := Open(Options{VFS: vfs, Path: "n.wal", Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE n (id INTEGER PRIMARY KEY)`)
	const workers, each = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := db.Exec(`INSERT INTO n VALUES (?)`, w*each+i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ws := db.WALStats()
	if fileSyncs := vfs.Stats().Syncs; ws.Syncs != 0 || fileSyncs != 0 {
		t.Errorf("syncs: stats %d, file %d; want none", ws.Syncs, fileSyncs)
	}
	var grouped uint64
	for _, n := range ws.GroupSizeHist {
		grouped += n
	}
	if ws.Commits != workers*each+1 || ws.Flushes == 0 || ws.Flushes > ws.Commits || grouped != ws.Flushes {
		t.Errorf("stats = %+v, want %d commits in 1..%d counted flushes", ws, workers*each+1, workers*each+1)
	}
	// No Close: the reopen sees exactly what the flushes wrote.
	db2, err := Open(Options{VFS: mem, Path: "n.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := mustQuery(t, db2, `SELECT count(*) FROM n`).Data[0][0].Int64(); got != workers*each {
		t.Fatalf("recovered %d rows, want %d", got, workers*each)
	}
}

// TestGroupTornTailSweep crafts a group-committed log (several
// transactions' records and commit markers concatenated, as one flush
// writes them) and truncates it at every byte offset. Recovery must replay
// exactly the transactions whose commit markers survive the cut — never a
// partially-committed one, and never lose a fully-marked one.
func TestGroupTornTailSweep(t *testing.T) {
	// txns 2..6 form one multi-transaction group batch: insert + marker each.
	const firstTxn, lastTxn = 2, 6
	data, ddlEnd, markerEnd := tornSweepLog(firstTxn, lastTxn)

	for cut := 0; cut <= len(data); cut++ {
		vfs := NewMemVFS()
		f, err := vfs.Create("t.wal")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data[:cut]); err != nil {
			t.Fatal(err)
		}
		db, err := Open(Options{VFS: vfs, Path: "t.wal"})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if cut < ddlEnd {
			// The DDL transaction is torn: nothing must exist.
			if len(db.TableNames()) != 0 {
				t.Fatalf("cut %d: table recovered from torn DDL txn", cut)
			}
			db.Close()
			continue
		}
		var want []int64
		for i := uint64(firstTxn); i <= lastTxn; i++ {
			if markerEnd[i] <= cut {
				want = append(want, int64(100+i))
			}
		}
		rows := mustQuery(t, db, `SELECT x FROM t ORDER BY x`)
		if rows.Len() != len(want) {
			t.Fatalf("cut %d: recovered %d rows, want %d", cut, rows.Len(), len(want))
		}
		for j, r := range rows.Data {
			if r[0].Int64() != want[j] {
				t.Fatalf("cut %d: row %d = %v, want %d", cut, j, r[0], want[j])
			}
		}
		db.Close()
	}
}

// TestGroupTornTailSweepLiveLog repeats the sweep over a log produced by
// the real group-commit pipeline under concurrency, using the groups of
// the intact log that end before each cut as the oracle: the set of
// recovered rows must equal the set of inserts belonging to commit-marked
// transactions.
func TestGroupTornTailSweepLiveLog(t *testing.T) {
	mem := NewMemVFS()
	vfs := &FaultVFS{Inner: mem, SyncDelay: 100 * time.Microsecond}
	db, err := Open(Options{VFS: vfs, Path: "live.wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE lv (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)`)
	const workers, each = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; s < each; s++ {
				id := w*each + s + 1
				if _, err := db.Exec(`INSERT INTO lv (id, v) VALUES (?, ?)`, id, id*10); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	db.Close()

	data, err := mem.ReadFile("live.wal")
	if err != nil {
		t.Fatal(err)
	}
	// The oracle reads the intact log once: a cut keeps exactly the groups
	// that end at or before it.
	groups := readGroups(data)
	for cut := 0; cut <= len(data); cut++ {
		wantRows := map[int64]int64{}
		schemaOK := false
		for _, g := range groups {
			if g.end > cut {
				break
			}
			for _, r := range g.recs {
				switch r.op {
				case walDDL:
					schemaOK = true
				case walInsert:
					wantRows[r.img.col(0).Int64()] = r.img.col(1).Int64()
				}
			}
		}
		vfs2 := NewMemVFS()
		f, _ := vfs2.Create("t.wal")
		f.Write(data[:cut])
		db2, err := Open(Options{VFS: vfs2, Path: "t.wal"})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if !schemaOK {
			if len(db2.TableNames()) != 0 {
				t.Fatalf("cut %d: table without committed DDL", cut)
			}
			db2.Close()
			continue
		}
		rows := mustQuery(t, db2, `SELECT id, v FROM lv`)
		if rows.Len() != len(wantRows) {
			t.Fatalf("cut %d: recovered %d rows, want %d", cut, rows.Len(), len(wantRows))
		}
		for _, r := range rows.Data {
			if wantRows[r[0].Int64()] != r[1].Int64() {
				t.Fatalf("cut %d: row %v unexpected (want map %v)", cut, r, wantRows)
			}
		}
		db2.Close()
	}
}

// TestGroupCommitFaultVFSFsyncFailsOnce injects one transient fsync
// failure via FaultVFS: the group holding that fsync must report the
// error to every member (no false durability ack), the pipeline must
// keep committing afterwards, and every acked commit must survive
// recovery. A failed-sync commit has indeterminate durability — the
// client saw an error and must retry (the wire layer's idempotency keys
// make that retry safe) — so the only recovered rows beyond the acked
// set may be ones whose commit reported failure.
func TestGroupCommitFaultVFSFsyncFailsOnce(t *testing.T) {
	mem := NewMemVFS()
	vfs := &FaultVFS{Inner: mem}
	db, err := Open(Options{VFS: vfs, Path: "ff.wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE ff (x INTEGER)`)

	vfs.FailNextSyncs(1)
	acked := map[int64]bool{}
	failed := map[int64]bool{}
	for i := int64(1); i <= 10; i++ {
		if _, err := db.Exec(`INSERT INTO ff VALUES (?)`, i); err != nil {
			failed[i] = true
		} else {
			acked[i] = true
		}
	}
	if len(failed) == 0 {
		t.Fatal("armed fsync failure was never reported to a committer")
	}
	if st := vfs.Stats(); st.SyncFails != 1 {
		t.Fatalf("fault stats = %+v", st)
	}
	db.Close()

	db2, err := Open(Options{VFS: mem, Path: "ff.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT x FROM ff ORDER BY x`)
	got := map[int64]bool{}
	for _, r := range rows.Data {
		got[r[0].Int64()] = true
	}
	for i := range acked {
		if !got[i] {
			t.Fatalf("acked commit %d lost after recovery (acked-then-lost)", i)
		}
	}
	for i := range got {
		if !acked[i] && !failed[i] {
			t.Fatalf("recovered row %d was never inserted", i)
		}
	}
}

// TestGroupCommitENOSPCMidGroup tears a group flush mid-write with an
// exhausted FaultVFS write budget: every member of the torn group must
// see the error, and once space returns the WAL must repair its torn
// tail before appending — commits acked after the incident are never
// stranded behind the garbage, and no torn transaction resurrects.
func TestGroupCommitENOSPCMidGroup(t *testing.T) {
	mem := NewMemVFS()
	vfs := &FaultVFS{Inner: mem}
	db, err := Open(Options{VFS: vfs, Path: "ns.wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE ns (x INTEGER)`)

	// Budget for roughly half a record: the next flush tears mid-write.
	vfs.SetWriteBudget(10)
	var mu sync.Mutex
	acked := map[int64]bool{}
	var enospc int
	var wg sync.WaitGroup
	for i := int64(1); i <= 8; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			_, err := db.Exec(`INSERT INTO ns VALUES (?)`, i)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				acked[i] = true
			} else if errors.Is(err, ErrNoSpace) {
				enospc++
			}
		}(i)
	}
	wg.Wait()
	if enospc == 0 {
		t.Fatal("no committer saw ENOSPC despite an exhausted write budget")
	}
	if st := vfs.Stats(); st.TornWrites == 0 {
		t.Fatalf("expected a torn write, stats = %+v", st)
	}

	// Space returns: the WAL must self-heal the torn tail and keep going.
	vfs.SetWriteBudget(-1)
	for i := int64(101); i <= 108; i++ {
		mustExec(t, db, `INSERT INTO ns VALUES (?)`, i)
		acked[i] = true
	}
	db.Close()

	db2, err := Open(Options{VFS: mem, Path: "ns.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT x FROM ns ORDER BY x`)
	got := map[int64]bool{}
	for _, r := range rows.Data {
		got[r[0].Int64()] = true
	}
	for i := range acked {
		if !got[i] {
			t.Fatalf("acked commit %d lost after ENOSPC incident", i)
		}
	}
	for i := range got {
		if !acked[i] {
			t.Fatalf("torn/failed commit %d resurrected by recovery", i)
		}
	}
}

// TestWALTornTailRepairedAtOpen covers the boot-path repair: a crash
// leaves garbage at the log tail; Open must cut it so post-restart
// commits aren't appended behind the tear and lost on the next restart.
func TestWALTornTailRepairedAtOpen(t *testing.T) {
	mem := NewMemVFS()
	db, err := Open(Options{VFS: mem, Path: "tt.wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE tt (x INTEGER)`)
	mustExec(t, db, `INSERT INTO tt VALUES (1)`)
	db.Close()

	// Crash writes half a record of garbage at the tail.
	f, err := mem.Open("tt.wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xEE, 0xDD, 0xCC, 0xBB}); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{VFS: mem, Path: "tt.wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db2, `INSERT INTO tt VALUES (2)`)
	db2.Close()

	// Both the pre-crash and post-repair commits must survive a further
	// restart; without the open-time repair, row 2 sits behind garbage
	// and vanishes here.
	db3, err := Open(Options{VFS: mem, Path: "tt.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	rows := mustQuery(t, db3, `SELECT x FROM tt ORDER BY x`)
	if rows.Len() != 2 || rows.Data[0][0].Int64() != 1 || rows.Data[1][0].Int64() != 2 {
		t.Fatalf("recovered = %v, want [1 2]", rows.Data)
	}
}

// TestGroupCommitHammer is a small correctness stress: many goroutines,
// mixed inserts and updates, then full recovery audit. Run with -race.
func TestGroupCommitHammer(t *testing.T) {
	mem := NewMemVFS()
	vfs := &FaultVFS{Inner: mem, SyncDelay: 50 * time.Microsecond}
	db, err := Open(Options{VFS: vfs, Path: "h.wal", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE h (id INTEGER PRIMARY KEY, n INTEGER NOT NULL)`)
	const workers, iters = 6, 15
	for w := 0; w < workers; w++ {
		mustExec(t, db, `INSERT INTO h VALUES (?, 0)`, w)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := db.Exec(`UPDATE h SET n = n + 1 WHERE id = ?`, w); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	db.Close()
	db2, err := Open(Options{VFS: mem, Path: "h.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT id, n FROM h ORDER BY id`)
	if rows.Len() != workers {
		t.Fatalf("recovered %d rows, want %d", rows.Len(), workers)
	}
	for _, r := range rows.Data {
		if r[1].Int64() != iters {
			t.Fatalf("row %d: n = %d, want %d", r[0].Int64(), r[1].Int64(), iters)
		}
	}
}

// TestGroupFlippedByteSweep corrupts a clean log one bit at a time, at
// every byte position, and checks recovery truncates at the last valid
// group boundary: the recovered state must equal the clean log's groups
// that end before the damage, the file must be physically repaired to
// that boundary, and the database must accept new commits afterwards. Torn tails lose length; flipped bytes fail the
// group's CRC32C — both land on a group boundary, never mid-group.
func TestGroupFlippedByteSweep(t *testing.T) {
	data := flipSweepLog(t)

	groups := readGroups(data)
	for pos := 0; pos < len(data); pos++ {
		corrupted := append([]byte(nil), data...)
		corrupted[pos] ^= 0x40

		// Oracle: a flipped bit fails the CRC of the group it lands in (or
		// tears the framing from there on), so recovery keeps exactly the
		// clean log's groups that end at or before the damaged byte.
		keep := 0
		byRid := map[int64]rowImage{}
		schemaOK := false
		for _, g := range groups {
			if g.end > pos {
				break
			}
			keep = g.end
			for i := range g.recs {
				switch r := &g.recs[i]; r.op {
				case walDDL:
					schemaOK = true
				case walInsert:
					byRid[r.rid] = r.img
				case walUpdate:
					byRid[r.rid] = applyDelta(byRid[r.rid], r)
				}
			}
		}
		wantRows := map[int64]int64{}
		for _, row := range byRid {
			wantRows[row.col(0).Int64()] = row.col(1).Int64()
		}
		if got := committedLen(corrupted); got != keep {
			t.Fatalf("pos %d: reader keeps %d bytes, want %d", pos, got, keep)
		}

		vfs := NewMemVFS()
		f, _ := vfs.Create("t.wal")
		f.Write(corrupted)
		db2, err := Open(Options{VFS: vfs, Path: "t.wal"})
		if err != nil {
			t.Fatalf("pos %d: open: %v", pos, err)
		}
		if !schemaOK {
			if len(db2.TableNames()) != 0 {
				t.Fatalf("pos %d: table recovered without committed DDL", pos)
			}
			db2.Close()
			continue
		}
		rows := mustQuery(t, db2, `SELECT id, v FROM fb`)
		if rows.Len() != len(wantRows) {
			t.Fatalf("pos %d: recovered %d rows, want %d", pos, rows.Len(), len(wantRows))
		}
		for _, r := range rows.Data {
			if wantRows[r[0].Int64()] != r[1].Int64() {
				t.Fatalf("pos %d: row %v, want v=%d", pos, r, wantRows[r[0].Int64()])
			}
		}
		// The log itself must be cut back to the group boundary so a
		// future append never strands commits behind damaged bytes.
		if onDisk, err := vfs.ReadFile("t.wal"); err != nil || len(onDisk) != keep {
			t.Fatalf("pos %d: file is %d bytes after repair, want %d (err %v)", pos, len(onDisk), keep, err)
		}
		// Sampled positions: the repaired log must accept and recover new
		// commits.
		if pos%17 == 0 {
			mustExec(t, db2, `INSERT INTO fb (id, v) VALUES (1000, 1)`)
			db2.Close()
			db3, err := Open(Options{VFS: vfs, Path: "t.wal"})
			if err != nil {
				t.Fatalf("pos %d: reopen after append: %v", pos, err)
			}
			probe := mustQuery(t, db3, `SELECT v FROM fb WHERE id = 1000`)
			if probe.Len() != 1 {
				t.Fatalf("pos %d: post-repair commit lost", pos)
			}
			db3.Close()
		} else {
			db2.Close()
		}
	}
}
