package sqldb

// Replication benchmarks.
//
// BenchmarkReplShipping measures steady-state log shipping: 16
// concurrent committers on the leader while a pump drains
// CommittedSince runs into a follower's ApplyCommitted; an op is one
// leader insert fully applied on the follower (the timer stops only
// after the follower has caught up, so apply lag is inside the
// measurement). BenchmarkFailover measures the promotion-critical path
// — Open (recovery replay of a 100k-record log) plus
// RebuildAfterReplication — whose acceptance bar is under two seconds.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func benchCount(b *testing.B, db *DB, query string) int64 {
	b.Helper()
	rows, err := db.Query(query)
	if err != nil {
		b.Fatal(err)
	}
	return rows.Data[0][0].Int64()
}

func BenchmarkReplShipping(b *testing.B) {
	leader, err := Open(Options{VFS: NewMemVFS(), Path: "lead.wal", Sync: SyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer leader.Close()
	follower, err := Open(Options{VFS: NewMemVFS(), Path: "follow.wal", Sync: SyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer follower.Close()
	mustExecB(b, leader, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)

	tap, err := leader.ReplicationTap()
	if err != nil {
		b.Fatal(err)
	}
	defer tap.Close()

	stop := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		drain := func() {
			for {
				run, _, err := leader.CommittedSince(follower.AppliedLSN(), 1<<20)
				if err != nil || len(run) == 0 {
					return
				}
				if err := follower.ApplyCommitted(run); err != nil {
					b.Errorf("apply: %v", err)
					return
				}
			}
		}
		for {
			select {
			case <-stop:
				drain()
				return
			case <-tap.Notify():
				drain()
			case <-time.After(time.Millisecond):
				drain()
			}
		}
	}()

	const committers = 16
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				if _, err := leader.Exec(`INSERT INTO kv VALUES (?, ?)`, i, "payload"); err != nil {
					b.Errorf("insert: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// The op is not done until the follower has it.
	for follower.AppliedLSN() < leader.DurableLSN() {
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	close(stop)
	pumpWG.Wait()

	if got := benchCount(b, follower, `SELECT count(*) FROM kv`); got != int64(b.N) {
		b.Fatalf("follower has %d rows, want %d", got, b.N)
	}
	b.ReportMetric(float64(follower.ReplStats().BatchesApplied)/float64(b.N), "batches/op")
}

func BenchmarkFailover(b *testing.B) {
	const records = 100000
	vfs := NewMemVFS()
	db, err := Open(Options{VFS: vfs, Path: "fo.wal", Sync: SyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	mustExecB(b, db, `CREATE TABLE jobs (id INTEGER PRIMARY KEY, owner TEXT, state TEXT)`)
	var sb strings.Builder
	for i := 0; i < records; i++ {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, 'user%d', 'idle')", i, i%97)
		if i%500 == 499 {
			mustExecB(b, db, `INSERT INTO jobs VALUES `+sb.String())
			sb.Reset()
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Open(Options{VFS: vfs, Path: "fo.wal", Sync: SyncGroup})
		if err != nil {
			b.Fatal(err)
		}
		f.RebuildAfterReplication()
		if i == 0 {
			if got := benchCount(b, f, `SELECT count(*) FROM jobs`); got != records {
				b.Fatalf("recovered %d rows, want %d", got, records)
			}
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
