package sqldb

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNoSpace is the error FaultVFS returns once its write budget runs
// out, modelling ENOSPC mid-group-commit.
var ErrNoSpace = errors.New("faultvfs: no space left on device")

// ErrSyncFailed is the error FaultVFS returns from armed Sync failures,
// modelling a transient fsync error (dying disk, NFS hiccup).
var ErrSyncFailed = errors.New("faultvfs: fsync failed")

// FaultVFS wraps another VFS with the behaviour of real storage that the
// in-memory VFS lacks: a fixed fsync latency (SyncDelay) and deterministic
// fault injection for crash-recovery tests — armed fsync failures (the
// next N Syncs fail) and a byte write budget after which writes tear: a
// partial prefix lands, the rest is lost to ENOSPC. Both file kinds, the
// WAL's appends and the page files' random access, see the same latency
// and the same faults. Faults are armed explicitly rather than drawn
// randomly, so every torture case states exactly which I/O dies.
//
// The zero value with Inner set injects nothing. With a 1ms SyncDelay, N
// transactions sharing one group-commit flush pay ~1ms total instead of
// N×1ms. Construct once and share the pointer.
type FaultVFS struct {
	// Inner is the file system actually storing the data.
	Inner VFS
	// SyncDelay is slept before every Sync of either file kind.
	SyncDelay time.Duration

	// armed says a sync failure or a write budget is set; while it is
	// not, I/O takes no mutex.
	armed atomic.Bool
	mu    sync.Mutex
	// failSyncs: the next N Sync calls return ErrSyncFailed.
	failSyncs int
	// budgeted says writeBudget holds the bytes that may still be written
	// before ENOSPC. A write crossing the boundary is torn: the prefix
	// that fits is written through, the remainder vanishes.
	budgeted    bool
	writeBudget int64

	syncs, syncFails, writes, writeFails, tornWrites atomic.Int64
	pageReads, pageWrites                            atomic.Int64
}

// FailNextSyncs arms the next n Sync calls (across all files) to fail.
func (v *FaultVFS) FailNextSyncs(n int) {
	v.mu.Lock()
	v.failSyncs = n
	v.rearmLocked()
	v.mu.Unlock()
}

// SetWriteBudget arms ENOSPC after n more bytes are written; the write
// that crosses the boundary is torn. Negative n disarms.
func (v *FaultVFS) SetWriteBudget(n int64) {
	v.mu.Lock()
	v.budgeted, v.writeBudget = n >= 0, n
	v.rearmLocked()
	v.mu.Unlock()
}

func (v *FaultVFS) rearmLocked() { v.armed.Store(v.failSyncs > 0 || v.budgeted) }

// FaultVFSStats snapshots injection counters.
type FaultVFSStats struct {
	Syncs      int64
	SyncFails  int64
	Writes     int64
	WriteFails int64
	TornWrites int64
	// PageReads/PageWrites count random-access (page file) I/O calls,
	// a subset of the totals above for writes.
	PageReads  int64
	PageWrites int64
}

// Stats snapshots what was injected so far.
func (v *FaultVFS) Stats() FaultVFSStats {
	return FaultVFSStats{
		Syncs:      v.syncs.Load(),
		SyncFails:  v.syncFails.Load(),
		Writes:     v.writes.Load(),
		WriteFails: v.writeFails.Load(),
		TornWrites: v.tornWrites.Load(),
		PageReads:  v.pageReads.Load(),
		PageWrites: v.pageWrites.Load(),
	}
}

// write passes p to write whole, or — when the armed budget has less room
// than p — tears it: the prefix that fits reaches the file, then ENOSPC.
func (v *FaultVFS) write(p []byte, write func([]byte) (int, error)) (int, error) {
	v.writes.Add(1)
	if !v.armed.Load() {
		return write(p)
	}
	v.mu.Lock()
	keep := int64(len(p))
	if v.budgeted {
		keep = min(keep, v.writeBudget)
		v.writeBudget -= keep
	}
	v.mu.Unlock()
	if keep == int64(len(p)) {
		return write(p)
	}
	if keep > 0 {
		v.tornWrites.Add(1)
		if n, err := write(p[:keep]); err != nil {
			return n, err
		}
	}
	v.writeFails.Add(1)
	return int(keep), ErrNoSpace
}

// sync sleeps SyncDelay, then fails if a sync failure is armed, else runs
// sync.
func (v *FaultVFS) sync(sync func() error) error {
	if v.SyncDelay > 0 {
		time.Sleep(v.SyncDelay)
	}
	v.syncs.Add(1)
	if v.armed.Load() {
		v.mu.Lock()
		fail := v.failSyncs > 0
		if fail {
			v.failSyncs--
			v.rearmLocked()
		}
		v.mu.Unlock()
		if fail {
			v.syncFails.Add(1)
			return ErrSyncFailed
		}
	}
	return sync()
}

type faultFile struct {
	vfs   *FaultVFS
	inner File
}

func (f faultFile) Write(p []byte) (int, error) { return f.vfs.write(p, f.inner.Write) }
func (f faultFile) Sync() error                 { return f.vfs.sync(f.inner.Sync) }
func (f faultFile) Close() error                { return f.inner.Close() }

type faultRandomFile struct {
	vfs   *FaultVFS
	inner RandomFile
}

func (f faultRandomFile) ReadAt(p []byte, off int64) (int, error) {
	f.vfs.pageReads.Add(1)
	return f.inner.ReadAt(p, off)
}

func (f faultRandomFile) WriteAt(p []byte, off int64) (int, error) {
	f.vfs.pageWrites.Add(1)
	return f.vfs.write(p, func(b []byte) (int, error) { return f.inner.WriteAt(b, off) })
}

func (f faultRandomFile) Sync() error  { return f.vfs.sync(f.inner.Sync) }
func (f faultRandomFile) Close() error { return f.inner.Close() }

// Create implements VFS.
func (v *FaultVFS) Create(name string) (File, error) {
	f, err := v.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return faultFile{vfs: v, inner: f}, nil
}

// Open implements VFS.
func (v *FaultVFS) Open(name string) (File, error) {
	f, err := v.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	return faultFile{vfs: v, inner: f}, nil
}

// OpenRandom implements VFS.
func (v *FaultVFS) OpenRandom(name string) (RandomFile, error) {
	f, err := v.Inner.OpenRandom(name)
	if err != nil {
		return nil, err
	}
	return faultRandomFile{vfs: v, inner: f}, nil
}

// ReadFile implements VFS.
func (v *FaultVFS) ReadFile(name string) ([]byte, error) { return v.Inner.ReadFile(name) }

// Rename implements VFS.
func (v *FaultVFS) Rename(oldname, newname string) error { return v.Inner.Rename(oldname, newname) }

// Remove implements VFS.
func (v *FaultVFS) Remove(name string) error { return v.Inner.Remove(name) }

// SlowVFS is FaultVFS under the name the benchmark harness's device still
// builds its 1ms-sync storage with; a [benchmark] change removes it.
type SlowVFS = FaultVFS
