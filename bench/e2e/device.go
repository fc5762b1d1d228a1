package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"condorj2/internal/sqldb"
)

// device is the harness-owned storage model every workload runs on: a
// MemVFS (optionally behind SlowVFS for a fixed sync latency) wrapped so
// the harness can count what the engine asks of it, record spans around
// each call, and remember how much of every appended file had been synced
// — the bytes a crash would leave behind.
//
// The crash model is deliberately simple and is stated in bench/README.md:
// an append-only file (the WAL) survives up to its length at its last
// Sync; random-access files (pages, meta, double-write buffer) are copied
// whole, i.e. page writes are assumed to reach the medium.
type device struct {
	mem   *sqldb.MemVFS
	inner sqldb.VFS // mem, or SlowVFS over mem
	wal   string    // the log's file name; other appended files are checkpoint meta
	tr    *tracer   // nil-safe: spans only while tracing is on

	mu     sync.Mutex
	length map[string]int64 // appended bytes per file
	synced map[string]int64 // length at last Sync
	random map[string]bool  // files opened for random access

	walWrites, walBytes   atomic.Int64
	syncs, syncBusyNs     atomic.Int64
	pageReadB, pageWriteB atomic.Int64
	pageReads, pageWrites atomic.Int64
}

// newDevice builds the modelled device. syncDelay 0 is the zero-delay
// device; anything else sleeps that long in every Sync (Go rounds sub-ms
// sleeps up to about 1.1 ms, so 1 ms is the only honest non-zero value).
func newDevice(mem *sqldb.MemVFS, wal string, syncDelay time.Duration, tr *tracer) *device {
	d := &device{
		mem:    mem,
		inner:  mem,
		wal:    wal,
		tr:     tr,
		length: make(map[string]int64),
		synced: make(map[string]int64),
		random: make(map[string]bool),
	}
	if syncDelay > 0 {
		d.inner = &sqldb.SlowVFS{Inner: mem, SyncDelay: syncDelay}
	}
	return d
}

// deviceStats is a snapshot of the device counters.
type deviceStats struct {
	WALWrites, WALBytes   int64
	Syncs                 int64
	SyncBusy              time.Duration
	PageReads, PageWrites int64
	PageReadB, PageWriteB int64
}

func (d *device) stats() deviceStats {
	return deviceStats{
		WALWrites: d.walWrites.Load(), WALBytes: d.walBytes.Load(),
		Syncs: d.syncs.Load(), SyncBusy: time.Duration(d.syncBusyNs.Load()),
		PageReads: d.pageReads.Load(), PageWrites: d.pageWrites.Load(),
		PageReadB: d.pageReadB.Load(), PageWriteB: d.pageWriteB.Load(),
	}
}

func (a deviceStats) sub(b deviceStats) deviceStats {
	return deviceStats{
		WALWrites: a.WALWrites - b.WALWrites, WALBytes: a.WALBytes - b.WALBytes,
		Syncs: a.Syncs - b.Syncs, SyncBusy: a.SyncBusy - b.SyncBusy,
		PageReads: a.PageReads - b.PageReads, PageWrites: a.PageWrites - b.PageWrites,
		PageReadB: a.PageReadB - b.PageReadB, PageWriteB: a.PageWriteB - b.PageWriteB,
	}
}

// crashImage returns a fresh MemVFS holding what a crash right now would
// leave: every appended file cut to its last synced length, every
// random-access file whole.
func (d *device) crashImage() (*sqldb.MemVFS, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := sqldb.NewMemVFS()
	for name, n := range d.synced {
		if d.random[name] || strings.HasSuffix(name, ".tmp") {
			continue
		}
		data, err := d.mem.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if int64(len(data)) < n {
			n = int64(len(data))
		}
		f, err := img.Create(name)
		if err != nil {
			return nil, err
		}
		if _, err := f.Write(data[:n]); err != nil {
			return nil, err
		}
	}
	for name := range d.random {
		data, err := d.mem.ReadFile(name)
		if err != nil {
			return nil, err
		}
		f, err := img.OpenRandom(name)
		if err != nil {
			return nil, err
		}
		if len(data) > 0 {
			if _, err := f.WriteAt(data, 0); err != nil {
				return nil, err
			}
		}
	}
	return img, nil
}

// Create implements sqldb.VFS.
func (d *device) Create(name string) (sqldb.File, error) {
	f, err := d.inner.Create(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.length[name], d.synced[name] = 0, 0
	d.mu.Unlock()
	return &devFile{d: d, name: name, inner: f}, nil
}

// Open implements sqldb.VFS.
func (d *device) Open(name string) (sqldb.File, error) {
	f, err := d.inner.Open(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if _, known := d.length[name]; !known {
		// A file this wrapper never saw written (a crash image being
		// reopened): everything in it is already on the medium.
		data, rerr := d.mem.ReadFile(name)
		if rerr != nil {
			d.mu.Unlock()
			return nil, rerr
		}
		d.length[name], d.synced[name] = int64(len(data)), int64(len(data))
	}
	d.mu.Unlock()
	return &devFile{d: d, name: name, inner: f}, nil
}

// OpenRandom implements sqldb.RandomAccessVFS.
func (d *device) OpenRandom(name string) (sqldb.RandomFile, error) {
	f, err := d.inner.(sqldb.RandomAccessVFS).OpenRandom(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.random[name] = true
	d.mu.Unlock()
	return &devRandomFile{d: d, inner: f}, nil
}

// ReadFile implements sqldb.VFS.
func (d *device) ReadFile(name string) ([]byte, error) { return d.inner.ReadFile(name) }

// Rename implements sqldb.VFS. The WAL is replaced by a synced temp file
// renamed over it, so the synced length travels with the name.
func (d *device) Rename(oldname, newname string) error {
	if err := d.inner.Rename(oldname, newname); err != nil {
		return err
	}
	d.mu.Lock()
	d.length[newname], d.synced[newname] = d.length[oldname], d.synced[oldname]
	delete(d.length, oldname)
	delete(d.synced, oldname)
	d.mu.Unlock()
	return nil
}

// Remove implements sqldb.VFS.
func (d *device) Remove(name string) error {
	d.mu.Lock()
	delete(d.length, name)
	delete(d.synced, name)
	delete(d.random, name)
	d.mu.Unlock()
	return d.inner.Remove(name)
}

type devFile struct {
	d     *device
	name  string
	inner sqldb.File
}

func (f *devFile) Write(p []byte) (int, error) {
	sp := f.d.tr.begin("vfs.Write", 0, 0)
	n, err := f.inner.Write(p)
	f.d.tr.end(sp)
	if f.name == f.d.wal || f.name == f.d.wal+".tmp" {
		f.d.walWrites.Add(1)
		f.d.walBytes.Add(int64(n))
	} else {
		f.d.pageWrites.Add(1)
		f.d.pageWriteB.Add(int64(n))
	}
	f.d.mu.Lock()
	f.d.length[f.name] += int64(n)
	f.d.mu.Unlock()
	return n, err
}

// timedSync runs one Sync on the device's clock and counters.
func (d *device) timedSync(sync func() error) error {
	sp := d.tr.begin("vfs.Sync", 0, 0)
	t0 := time.Now()
	err := sync()
	d.syncBusyNs.Add(int64(time.Since(t0)))
	d.tr.end(sp)
	d.syncs.Add(1)
	return err
}

func (f *devFile) Sync() error {
	err := f.d.timedSync(f.inner.Sync)
	if err == nil {
		f.d.mu.Lock()
		f.d.synced[f.name] = f.d.length[f.name]
		f.d.mu.Unlock()
	}
	return err
}

func (f *devFile) Close() error { return f.inner.Close() }

type devRandomFile struct {
	d     *device
	inner sqldb.RandomFile
}

func (f *devRandomFile) ReadAt(p []byte, off int64) (int, error) {
	sp := f.d.tr.begin("vfs.ReadAt", 0, 0)
	n, err := f.inner.ReadAt(p, off)
	f.d.tr.end(sp)
	f.d.pageReads.Add(1)
	f.d.pageReadB.Add(int64(n))
	return n, err
}

func (f *devRandomFile) WriteAt(p []byte, off int64) (int, error) {
	sp := f.d.tr.begin("vfs.WriteAt", 0, 0)
	n, err := f.inner.WriteAt(p, off)
	f.d.tr.end(sp)
	f.d.pageWrites.Add(1)
	f.d.pageWriteB.Add(int64(n))
	return n, err
}

func (f *devRandomFile) Sync() error { return f.d.timedSync(f.inner.Sync) }

func (f *devRandomFile) Close() error { return f.inner.Close() }
