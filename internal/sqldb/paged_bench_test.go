package sqldb

import (
	"fmt"
	"testing"
)

// pagedStoreFiles are every on-disk artifact a paged store leaves in a
// VFS: the WAL, the page file, both alternating meta generations, and
// the double-write buffer.
var pagedStoreFiles = []string{"test.db", "test.db.pages", "test.db.meta.a", "test.db.meta.b", "test.db.dwb"}

// snapshotVFS copies a paged store's files out of a MemVFS, capturing a
// crash image that each benchmark iteration can restore into a fresh
// VFS without the setup cost of regenerating the workload.
func snapshotVFS(b testing.TB, vfs *MemVFS) map[string][]byte {
	b.Helper()
	snap := make(map[string][]byte)
	for _, name := range pagedStoreFiles {
		data, err := vfs.ReadFile(name)
		if err != nil {
			b.Fatalf("snapshot %s: %v", name, err)
		}
		if data != nil {
			snap[name] = append([]byte(nil), data...)
		}
	}
	return snap
}

// restoreVFS materializes a snapshot into a fresh MemVFS.
func restoreVFS(b testing.TB, snap map[string][]byte) *MemVFS {
	b.Helper()
	vfs := NewMemVFS()
	for name, data := range snap {
		f, err := vfs.Create(name)
		if err != nil {
			b.Fatalf("restore %s: %v", name, err)
		}
		if _, err := f.Write(data); err != nil {
			b.Fatalf("restore %s: %v", name, err)
		}
		f.Close()
	}
	return vfs
}

// buildColdStartStore runs the cold-start workload — 1000 rows, 100000
// update commits, optionally a fuzzy checkpoint, then a 1000-commit
// tail — and returns the crash image (the DB is abandoned without
// Close, so nothing is flushed beyond what commits wrote through).
func buildColdStartStore(b *testing.B, checkpoint bool) map[string][]byte {
	b.Helper()
	vfs := NewMemVFS()
	db, err := Open(Options{VFS: vfs, Path: "test.db", PoolPages: 256})
	if err != nil {
		b.Fatalf("Open paged: %v", err)
	}
	if _, err := db.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		b.Fatal(err)
	}
	const rows = 1000
	for i := 0; i < rows; i += 100 {
		stmt := "INSERT INTO kv VALUES "
		for j := 0; j < 100; j++ {
			if j > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 0)", i+j)
		}
		if _, err := db.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
	const commits = 100000
	for i := 0; i < commits; i++ {
		if _, err := db.Exec(`UPDATE kv SET v = v + 1 WHERE k = ?`, i%rows); err != nil {
			b.Fatal(err)
		}
	}
	if checkpoint {
		if err := db.Checkpoint(); err != nil {
			b.Fatalf("Checkpoint: %v", err)
		}
	}
	// The tail past the (possible) checkpoint: 1% of the main workload.
	for i := 0; i < commits/100; i++ {
		if _, err := db.Exec(`UPDATE kv SET v = v + 1 WHERE k = ?`, i%rows); err != nil {
			b.Fatal(err)
		}
	}
	return snapshotVFS(b, vfs)
}

// BenchmarkColdStart measures restart recovery on a 100k-commit paged
// store. 'full-replay' crashes without ever checkpointing, so Open
// replays the entire log; 'tail-replay' crashes after a fuzzy
// checkpoint plus a 1k-commit tail, so Open loads the page-file image
// and replays only the tail. The wal_bytes metric is the log volume
// recovery had to read; the acceptance bar is a >=10x reduction.
func BenchmarkColdStart(b *testing.B) {
	full := buildColdStartStore(b, false)
	tail := buildColdStartStore(b, true)
	b.Logf("WAL to replay: full %d bytes, tail %d bytes (%.1fx reduction)",
		len(full["test.db"]), len(tail["test.db"]),
		float64(len(full["test.db"]))/float64(len(tail["test.db"])))

	for _, bc := range []struct {
		name string
		snap map[string][]byte
	}{
		{"full-replay", full},
		{"tail-replay", tail},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportMetric(float64(len(bc.snap["test.db"])), "wal_bytes")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				vfs := restoreVFS(b, bc.snap)
				b.StartTimer()
				db, err := Open(Options{VFS: vfs, Path: "test.db", PoolPages: 256})
				if err != nil {
					b.Fatalf("Open: %v", err)
				}
				b.StopTimer()
				row, err := db.QueryRow(`SELECT count(*), sum(v) FROM kv`)
				if err != nil {
					b.Fatalf("verify: %v", err)
				}
				if row[0].Int64() != 1000 || row[1].Int64() != 101000 {
					b.Fatalf("recovered count/sum = %v/%v, want 1000/101000", row[0], row[1])
				}
				db.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkLargerThanPool measures point-read throughput when the table
// spans far more pages than the buffer pool holds (64 4KiB frames over
// a ~3x larger heap), so the scan-resistant CLOCK policy is evicting
// continuously. An op is one indexed point SELECT at a rotating key.
func BenchmarkLargerThanPool(b *testing.B) {
	vfs := NewMemVFS()
	db, err := Open(Options{VFS: vfs, Path: "test.db", PoolPages: 64, PageSize: 4096})
	if err != nil {
		b.Fatalf("Open paged: %v", err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE blobs (id INTEGER PRIMARY KEY, payload TEXT NOT NULL)`); err != nil {
		b.Fatal(err)
	}
	const rows = 6000
	pad := make([]byte, 120)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := 0; i < rows; i += 50 {
		stmt := "INSERT INTO blobs VALUES "
		for j := 0; j < 50; j++ {
			if j > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, '%s')", i+j, pad)
		}
		if _, err := db.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
	// A large prime stride visits keys in a pool-hostile order.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i * 2741) % rows
		row, err := db.QueryRow(`SELECT payload FROM blobs WHERE id = ?`, k)
		if err != nil {
			b.Fatalf("point read: %v", err)
		}
		if len(row[0].Text()) != len(pad) {
			b.Fatalf("row %d: bad payload length %d", k, len(row[0].Text()))
		}
	}
	b.StopTimer()
	s := db.BufferPoolStats()
	if s.Evictions == 0 {
		b.Fatalf("workload never evicted: pool too large for the dataset")
	}
	fetches := s.Hits + s.Misses
	if fetches > 0 {
		b.ReportMetric(100*float64(s.Hits)/float64(fetches), "hit_%")
	}
	b.ReportMetric(float64(s.Evictions)/float64(b.N), "evictions/op")
}
