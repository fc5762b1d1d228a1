package pager

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is the buffer-pool manager: a fixed number of page-size frames,
// each made on first use, a page table mapping PageID → frame, pin/unpin
// reference counting, dirty tracking, and scan-resistant CLOCK eviction.
//
// Pin protocol: Fetch and NewPage return a pinned frame; the caller
// reads or mutates frame bytes under the frame latch (RLock for reads,
// Lock for mutation) and then calls Unpin(frame, dirty). A pinned frame
// is never evicted and its bytes never move. Fetch hits set the frame's
// CLOCK reference bit; newly loaded frames start with the bit clear, so
// a page touched once by a large scan is evicted on the hand's first
// pass while re-referenced pages survive a full sweep — that cold
// insertion is what makes the policy scan-resistant.
//
// Eviction of a dirty frame writes the page out through the pager's
// double-write batch path before the frame is reused. While that write
// is in flight the evicted image is parked in a side map; a concurrent
// Fetch of the same page waits for the write to finish and then adopts
// the parked image, so page writes for one PageID are totally ordered
// and a reader never races the disk.
//
// Page buffers are handed over, not copied: a dirty victim's buffer
// becomes the parked image and the frame takes a spare; a checkpoint
// copies into a spare. A parked image returns to the spare list when its
// last holder lets go (see writeBack.holders).
type Pool struct {
	pager *Pager

	mu      sync.Mutex
	frames  []*Frame // nil where the CLOCK hand has not yet been
	table   map[PageID]*Frame
	writing map[PageID]*writeBack // eviction write-back in flight
	spare   [][]byte              // page buffers owned by no frame and no write-back
	hand    int

	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	dirtyWrites atomic.Uint64
	pinCount    atomic.Uint64 // total pins taken (not currently held)

	// Exhaustion wait: when every frame is pinned, a claimer parks here
	// until some pin releases (momentary overload on a tiny pool), and
	// errors only after poolWaitTimeout of no progress.
	waiters  atomic.Int32
	unpinned chan struct{}
}

// poolWaitTimeout bounds how long a claimer waits for a pinned-out pool
// to release a frame before reporting exhaustion.
const poolWaitTimeout = 10 * time.Second

// spareImages caps the spare list at one checkpoint batch of page
// buffers; a buffer released beyond it is left to the collector.
const spareImages = 32

// writeBack tracks one in-flight page write — an eviction write-back or
// a checkpoint flush entry: the image being written and a channel closed
// when the write completes. Writes for one PageID form a chain (prev =
// the write registered before this one, still in flight); each writer
// waits for its predecessor, so disk images of a page land in
// registration order. bp.writing[pid] always holds the newest parked
// image, which is authoritative over the disk for any concurrent Fetch.
//
// holders counts who may still read img: the writer, plus every Fetch or
// NewPage that found this record under bp.mu as its page's newest parked
// image. It is guarded by bp.mu, and the image is recycled only when it
// reaches zero — never on retireWrite alone, because an adopting Fetch
// copies from img after done closes. Once retired the record is in no
// map, so the count can only fall.
type writeBack struct {
	img     []byte
	done    chan struct{}
	prev    *writeBack
	holders int
}

// Attachment is state a frame's user derives from the page image and
// hangs on the frame so that it shares the page's residency (the heap's
// decoded rows). The pool calls Reset whenever the frame stops holding
// the image the state was derived from: claimed for another page,
// dropped by Forget, handed out by NewPage. Everything else about it —
// including its locking, under the frame latch — is the user's.
type Attachment interface{ Reset() }

// Frame is one resident page. Contents are guarded by mu (and may only
// be touched while the frame is pinned); lifecycle — which page the
// frame holds — is guarded by the pool mutex plus the pin count.
type Frame struct {
	mu   sync.RWMutex
	pid  PageID
	data []byte
	att  Attachment

	pins  atomic.Int32
	ref   atomic.Bool
	dirty atomic.Bool

	ready chan struct{} // non-nil while the page image is loading
	err   error         // load error, valid after ready closes
}

// Data returns the frame's page image. Access it only while the frame
// is pinned, under the frame latch.
func (f *Frame) Data() []byte { return f.data }

// PID returns the page the frame currently holds.
func (f *Frame) PID() PageID { return f.pid }

// Attachment returns what Attach last hung on the frame, nil if nothing.
// Like Data it may be read only while the frame is pinned and latched.
func (f *Frame) Attachment() Attachment { return f.att }

// Attach hangs a on the frame for good (the pool empties it, it never
// removes it). The caller holds a pin and the exclusive latch.
func (f *Frame) Attach(a Attachment) { f.att = a }

// Lock/Unlock and RLock/RUnlock expose the frame content latch.
func (f *Frame) Lock()    { f.mu.Lock() }
func (f *Frame) Unlock()  { f.mu.Unlock() }
func (f *Frame) RLock()   { f.mu.RLock() }
func (f *Frame) RUnlock() { f.mu.RUnlock() }

// PoolStats is a snapshot of the pool's counters.
type PoolStats struct {
	Frames      int
	Resident    int
	Dirty       int
	Pinned      int
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	DirtyWrites uint64
	Pins        uint64
	PageReads   uint64
	PageWrites  uint64
	Syncs       uint64
	Repaired    uint64
}

// NewPool creates a pool of frameCount frames over the pager. A frame
// and its page buffer come into being the first time the CLOCK hand
// reaches it, so a pool holds memory for the pages it has held, not for
// its size.
func NewPool(p *Pager, frameCount int) *Pool {
	if frameCount < 2 {
		frameCount = 2
	}
	bp := &Pool{
		pager:    p,
		frames:   make([]*Frame, frameCount),
		table:    make(map[PageID]*Frame),
		writing:  make(map[PageID]*writeBack),
		unpinned: make(chan struct{}, 1),
	}
	return bp
}

// Fetch pins the frame holding page pid, loading it from disk on a
// miss. The returned frame is pinned; the caller must Unpin it. When
// every frame is pinned, Fetch waits (bounded by poolWaitTimeout) for a
// pin to release rather than failing on momentary overload.
func (bp *Pool) Fetch(pid PageID) (*Frame, error) {
	var (
		f            *Frame
		oldPID       PageID
		oldWB, ownWB *writeBack
	)
	var deadline time.Time // set by the first wait: hits and plain misses read no clock
	for {
		bp.mu.Lock()
		if f, ok := bp.table[pid]; ok {
			f.pins.Add(1)
			f.ref.Store(true)
			ready := f.ready
			bp.mu.Unlock()
			bp.pinCount.Add(1)
			if ready != nil {
				<-ready
				if err := f.err; err != nil {
					bp.dropFailed(f, pid)
					return nil, err
				}
			}
			bp.hits.Add(1)
			return f, nil
		}
		var err error
		f, oldPID, oldWB, ownWB, err = bp.claimLocked(pid)
		if err == nil {
			break
		}
		bp.mu.Unlock()
		if werr := bp.awaitUnpin(&deadline, err); werr != nil {
			return nil, werr
		}
	}
	f.ready = make(chan struct{})
	bp.table[pid] = f
	bp.mu.Unlock()
	bp.pinCount.Add(1)
	bp.misses.Add(1)

	loadErr := bp.completeEviction(oldPID, oldWB)
	if loadErr == nil {
		if ownWB != nil {
			// This page's own eviction write was in flight; its parked
			// image is the freshest copy (and authoritative even if the
			// disk write failed).
			<-ownWB.done
			copy(f.data, ownWB.img)
		} else if _, rerr := bp.pager.ReadPage(pid, f.data); rerr != nil {
			loadErr = rerr
		}
	}
	f.err = loadErr
	ready := f.ready
	bp.mu.Lock()
	if loadErr == nil {
		f.ready = nil
	}
	if ownWB != nil {
		bp.releaseLocked(ownWB)
	}
	bp.mu.Unlock()
	close(ready)
	if loadErr != nil {
		bp.dropFailed(f, pid)
		return nil, loadErr
	}
	return f, nil
}

// claimLocked picks a victim frame for pid and configures it pinned and
// loading. Returns the victim's previous page (0 = none) and its
// write-back record if the victim was dirty — the record takes the
// victim's buffer, the frame a spare one, as does a frame that never held
// a page — plus any write-back already in flight for pid itself, which
// the caller now holds and must release. Called with bp.mu held.
func (bp *Pool) claimLocked(pid PageID) (f *Frame, oldPID PageID, oldWB, ownWB *writeBack, err error) {
	f = bp.victimLocked()
	if f == nil {
		return nil, 0, nil, nil, fmt.Errorf("pager: buffer pool exhausted: all %d frames pinned", len(bp.frames))
	}
	oldPID = f.pid
	if oldPID != 0 {
		delete(bp.table, oldPID)
		if f.dirty.Load() {
			oldWB = bp.parkLocked(oldPID, f.data)
			f.data = nil
		}
		bp.evictions.Add(1)
	}
	if f.data == nil {
		f.data = bp.spareLocked()
	}
	if ownWB = bp.writing[pid]; ownWB != nil {
		ownWB.holders++
	}
	if f.att != nil {
		f.att.Reset()
	}
	f.pid = pid
	f.err = nil
	f.dirty.Store(false)
	f.ref.Store(false)
	f.pins.Store(1)
	return f, oldPID, oldWB, ownWB, nil
}

// completeEviction writes back a dirty victim's parked image — after any
// earlier write of the same page has landed — and retires its
// write-back record.
func (bp *Pool) completeEviction(oldPID PageID, wb *writeBack) error {
	if wb == nil {
		return nil
	}
	if wb.prev != nil {
		<-wb.prev.done
	}
	bp.dirtyWrites.Add(1)
	err := bp.pager.WriteBatch([]BatchPage{{PID: oldPID, Data: wb.img}})
	bp.retireWrite(oldPID, wb)
	if err != nil {
		return fmt.Errorf("pager: evicting page %d: %w", oldPID, err)
	}
	return nil
}

// retireWrite removes a completed write-back from the chain head (if it
// still is the head), lets go of the writer's hold on its image and
// signals its completion.
func (bp *Pool) retireWrite(pid PageID, wb *writeBack) {
	bp.mu.Lock()
	if bp.writing[pid] == wb {
		delete(bp.writing, pid)
	}
	bp.releaseLocked(wb)
	bp.mu.Unlock()
	close(wb.done)
}

// parkLocked registers img as pid's newest parked image, held by the
// writer that will write it out and retire it.
func (bp *Pool) parkLocked(pid PageID, img []byte) *writeBack {
	wb := &writeBack{img: img, done: make(chan struct{}), prev: bp.writing[pid], holders: 1}
	bp.writing[pid] = wb
	return wb
}

// releaseLocked drops one hold on wb's image and recycles the image with
// the last.
func (bp *Pool) releaseLocked(wb *writeBack) {
	if wb.holders--; wb.holders < 0 {
		panic("pager: parked image released more often than held")
	}
	if wb.holders == 0 {
		bp.recycleLocked(wb.img)
		wb.img = nil
	}
}

// spareLocked returns a page buffer with arbitrary contents.
func (bp *Pool) spareLocked() []byte {
	if n := len(bp.spare); n > 0 {
		img := bp.spare[n-1]
		bp.spare[n-1] = nil
		bp.spare = bp.spare[:n-1]
		return img
	}
	return make([]byte, bp.pager.PageSize())
}

// recycleLocked takes back a page buffer nothing references any more.
// Under the race detector it is poisoned first, so that a holder the
// count missed reads bytes that fail every check instead of a plausible
// page.
func (bp *Pool) recycleLocked(img []byte) {
	if raceEnabled {
		for i := range img {
			img[i] = 0xDB
		}
	}
	if len(bp.spare) < spareImages {
		bp.spare = append(bp.spare, img)
	}
}

// dropFailed removes a frame whose load failed from the page table once
// the last pin is released, leaving the frame reusable.
func (bp *Pool) dropFailed(f *Frame, pid PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f.pins.Add(-1) == 0 {
		if cur, ok := bp.table[pid]; ok && cur == f {
			delete(bp.table, pid)
		}
		f.pid = 0
		f.ready = nil
		f.err = nil
	}
}

// awaitUnpin parks a frame claimer until some pin releases (or a short
// poll interval passes, covering signal races), returning claimErr once
// the deadline — poolWaitTimeout from the claimer's first wait — expires
// with the pool still pinned out.
func (bp *Pool) awaitUnpin(deadline *time.Time, claimErr error) error {
	if now := time.Now(); deadline.IsZero() {
		*deadline = now.Add(poolWaitTimeout)
	} else if now.After(*deadline) {
		return claimErr
	}
	bp.waiters.Add(1)
	select {
	case <-bp.unpinned:
	case <-time.After(2 * time.Millisecond):
	}
	bp.waiters.Add(-1)
	return nil
}

// NewPage allocates a fresh page and returns it pinned, zeroed, and
// dirty. The caller must Unpin it (dirty) after initializing it. Like
// Fetch, it waits out momentary pool exhaustion.
func (bp *Pool) NewPage() (PageID, *Frame, error) {
	pid := bp.pager.Allocate()
	var (
		f            *Frame
		oldPID       PageID
		oldWB, ownWB *writeBack
	)
	var deadline time.Time
	for {
		bp.mu.Lock()
		var err error
		f, oldPID, oldWB, ownWB, err = bp.claimLocked(pid)
		if err == nil {
			break
		}
		bp.mu.Unlock()
		if werr := bp.awaitUnpin(&deadline, err); werr != nil {
			bp.pager.Free(pid)
			return 0, nil, werr
		}
	}
	for i := range f.data {
		f.data[i] = 0
	}
	f.dirty.Store(true)
	bp.table[pid] = f
	bp.mu.Unlock()
	bp.pinCount.Add(1)
	if ownWB != nil {
		<-ownWB.done // a freed-and-reused page: order after its old write
		bp.mu.Lock()
		bp.releaseLocked(ownWB)
		bp.mu.Unlock()
	}
	if werr := bp.completeEviction(oldPID, oldWB); werr != nil {
		bp.dropFailed(f, pid)
		return 0, nil, werr
	}
	return pid, f, nil
}

// victimLocked runs the CLOCK hand: skip pinned frames and frames whose
// reference bit it clears this pass; take the first unpinned,
// unreferenced frame — a slot the hand has not reached before gets its
// frame now. Returns nil when every frame is pinned.
func (bp *Pool) victimLocked() *Frame {
	n := len(bp.frames)
	for i := 0; i < 2*n+1; i++ {
		f := bp.frames[bp.hand]
		if f == nil {
			f = &Frame{}
			bp.frames[bp.hand] = f
		}
		bp.hand = (bp.hand + 1) % n
		if f.pins.Load() > 0 {
			continue
		}
		if f.ref.CompareAndSwap(true, false) {
			continue
		}
		return f
	}
	return nil
}

// Unpin releases one pin; dirty=true records that the caller mutated
// the page image. The last pin off a frame wakes one claimer waiting on
// an exhausted pool.
func (bp *Pool) Unpin(f *Frame, dirty bool) {
	if dirty {
		f.dirty.Store(true)
	}
	n := f.pins.Add(-1)
	if n < 0 {
		panic("pager: Unpin without matching pin")
	}
	if n == 0 && bp.waiters.Load() > 0 {
		select {
		case bp.unpinned <- struct{}{}:
		default:
		}
	}
}

// DirtyPages snapshots the page IDs of currently dirty resident pages.
// The fuzzy checkpointer iterates this set; pages dirtied after the
// snapshot simply wait for the next checkpoint.
func (bp *Pool) DirtyPages() []PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	out := make([]PageID, 0, len(bp.table)/2)
	for pid, f := range bp.table {
		if f.dirty.Load() {
			out = append(out, pid)
		}
	}
	return out
}

// FlushPages writes the named pages out in batches of batchSize through
// the double-write path, clearing each frame's dirty bit at copy time
// (a concurrent writer re-dirties the frame and the page is flushed
// again next checkpoint). Each copied image is parked in the write-back
// chain the moment the dirty bit clears: a frame evicted clean before
// the batch reaches the disk would otherwise let a re-Fetch reload the
// stale on-disk image while the only fresh copy sat in the pending
// batch. Pages evicted since the snapshot — no longer resident — were
// already written back by eviction and are skipped. Returns the number
// of page images written.
func (bp *Pool) FlushPages(pids []PageID, batchSize int) (int, error) {
	if batchSize < 1 {
		batchSize = 16
	}
	type flushEntry struct {
		pid PageID
		wb  *writeBack
	}
	wrote := 0
	entries := make([]flushEntry, 0, batchSize)
	batch := make([]BatchPage, 0, batchSize)
	// img is the spare the next dirty page is copied into, taken while
	// bp.mu is held anyway and carried over a page that turns out clean.
	var img []byte
	defer func() {
		if img != nil {
			bp.mu.Lock()
			bp.recycleLocked(img)
			bp.mu.Unlock()
		}
	}()
	flush := func() error {
		if len(entries) == 0 {
			return nil
		}
		batch = batch[:0]
		for _, e := range entries {
			if e.wb.prev != nil {
				<-e.wb.prev.done
			}
			batch = append(batch, BatchPage{PID: e.pid, Data: e.wb.img})
		}
		err := bp.pager.WriteBatch(batch)
		for _, e := range entries {
			bp.retireWrite(e.pid, e.wb)
		}
		if err != nil {
			return err
		}
		wrote += len(entries)
		entries = entries[:0]
		return nil
	}
	for _, pid := range pids {
		bp.mu.Lock()
		f, ok := bp.table[pid]
		if !ok || f.ready != nil {
			bp.mu.Unlock()
			continue
		}
		f.pins.Add(1)
		if img == nil {
			img = bp.spareLocked()
		}
		bp.mu.Unlock()
		bp.pinCount.Add(1)
		f.mu.RLock()
		if f.dirty.CompareAndSwap(true, false) {
			copy(img, f.data)
			bp.mu.Lock()
			wb := bp.parkLocked(pid, img)
			bp.mu.Unlock()
			img = nil
			entries = append(entries, flushEntry{pid: pid, wb: wb})
		}
		f.mu.RUnlock()
		bp.Unpin(f, false)
		if len(entries) >= batchSize {
			if err := flush(); err != nil {
				return wrote, err
			}
		}
	}
	return wrote, flush()
}

// FlushAll flushes every dirty resident page (clean shutdown).
func (bp *Pool) FlushAll() (int, error) {
	return bp.FlushPages(bp.DirtyPages(), 16)
}

// Forget drops any resident frames for the given pages without writing
// them back (their content is garbage: dropped tables). Pages must not
// be pinned.
func (bp *Pool) Forget(pids []PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, pid := range pids {
		if f, ok := bp.table[pid]; ok && f.pins.Load() == 0 {
			delete(bp.table, pid)
			f.pid = 0
			f.dirty.Store(false)
			f.ref.Store(false)
			if f.att != nil {
				f.att.Reset()
			}
		}
	}
}

// Stats snapshots the pool and pager counters.
func (bp *Pool) Stats() PoolStats {
	bp.mu.Lock()
	resident, dirty, pinned := 0, 0, 0
	for _, f := range bp.table {
		resident++
		if f.dirty.Load() {
			dirty++
		}
		if f.pins.Load() > 0 {
			pinned++
		}
	}
	frames := len(bp.frames)
	bp.mu.Unlock()
	return PoolStats{
		Frames:      frames,
		Resident:    resident,
		Dirty:       dirty,
		Pinned:      pinned,
		Hits:        bp.hits.Load(),
		Misses:      bp.misses.Load(),
		Evictions:   bp.evictions.Load(),
		DirtyWrites: bp.dirtyWrites.Load(),
		Pins:        bp.pinCount.Load(),
		PageReads:   bp.pager.pageReads.Load(),
		PageWrites:  bp.pager.pageWrites.Load(),
		Syncs:       bp.pager.syncs.Load(),
		Repaired:    bp.pager.repaired.Load(),
	}
}
