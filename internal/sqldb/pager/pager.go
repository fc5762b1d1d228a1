// Package pager provides page-granular durable storage: a disk pager
// that reads and writes fixed-size, checksummed pages through a
// double-write buffer (so a torn in-place write can always be repaired
// from the last complete image), and a buffer-pool manager (pool.go)
// that caps how many pages are resident, with pin/unpin reference
// counting and scan-resistant CLOCK eviction. What is resident is a
// frame's page buffer plus whatever its user attached to the frame
// (Attachment: the heap's decoded rows), and beside the frames a bounded
// list of spare page buffers and the double-write image of the largest
// batch written so far.
//
// The pager knows nothing about rows, tables, or the WAL: callers own
// every byte of a page past the 4-byte checksum header, and what those
// bytes mean — a checksum that holds says the bytes are the ones written,
// no more. The sqldb heap layers a slotted-record format on top
// (pagedheap.go in the parent package), validates it as images come in,
// and drives checkpoints; the pager's single crash-safety contract is:
//
//	After WriteBatch(pages) returns, every page in the batch is
//	durably either its new complete image or repairable to it by
//	RecoverTorn at the next open. No crash can leave a page that
//	fails its checksum AND has no double-write copy.
//
// The contract is kept the classic way (InnoDB's doublewrite): each
// batch is first written and synced to the side buffer file, then
// written in place, then the page file is synced before the side
// buffer may be reused. A page image on disk therefore only ever tears
// while its complete copy is durable in the buffer.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// PageID names one fixed-size page in the page file. IDs start at 1;
// 0 is the nil sentinel. Page pid lives at file offset (pid-1)*PageSize.
type PageID uint64

// Page size limits. Offsets inside a page are addressed with uint16 by
// the heap layer, so pages are capped below 64 KiB.
const (
	MinPageSize     = 512
	MaxPageSize     = 32768
	DefaultPageSize = 8192
)

// CheckHeader is the number of leading page bytes owned by the pager:
// a CRC32-C of the remainder of the page, filled in on write and
// verified on read. Callers must not touch bytes [0, CheckHeader).
const CheckHeader = 4

var pageCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptPage reports a page that failed its checksum and had no
// double-write copy to repair from.
var ErrCorruptPage = errors.New("pager: page checksum mismatch")

// File is the random-access file behaviour the pager needs. The sqldb
// VFS seam adapts its implementations (in-memory, OS, fault- and
// latency-injecting) to this interface.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
}

// Pager allocates page IDs and moves whole pages between memory and the
// page file. All writes go through WriteBatch; its internal mutex
// serializes batches (single-page eviction writes and multi-page
// checkpoint flushes share the one double-write buffer).
type Pager struct {
	pageSize int
	file     File
	dwb      File

	allocMu sync.Mutex
	next    PageID   // next never-allocated page ID
	free    []PageID // reusable page IDs (from dropped tables)

	wmu    sync.Mutex // serializes WriteBatch cycles (shared dwb)
	dwbBuf []byte     // the batch's double-write image, reused batch to batch under wmu

	pageWrites atomic.Uint64
	pageReads  atomic.Uint64
	syncs      atomic.Uint64
	repaired   atomic.Uint64
}

// New wraps an open page file and double-write buffer file. pageSize
// must be in [MinPageSize, MaxPageSize]. The caller seeds the
// allocation state afterwards with SetAllocState (from checkpoint
// metadata or a file scan).
func New(file, dwb File, pageSize int) (*Pager, error) {
	if pageSize < MinPageSize || pageSize > MaxPageSize {
		return nil, fmt.Errorf("pager: page size %d out of range [%d, %d]", pageSize, MinPageSize, MaxPageSize)
	}
	return &Pager{pageSize: pageSize, file: file, dwb: dwb, next: 1}, nil
}

// PageSize returns the fixed page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// Allocate returns a page ID for a new page, reusing freed IDs first.
// The page's disk content is undefined until its first WriteBatch.
func (p *Pager) Allocate() PageID {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	if n := len(p.free); n > 0 {
		pid := p.free[n-1]
		p.free = p.free[:n-1]
		return pid
	}
	pid := p.next
	p.next++
	return pid
}

// Free returns a page ID to the allocator. The caller guarantees no
// live reference to the page remains and that resurrecting the page's
// stale disk content after a crash is harmless (the sqldb layer only
// frees pages of dropped tables, whose table IDs are never reused).
func (p *Pager) Free(pid PageID) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	p.free = append(p.free, pid)
}

// AllocState snapshots the allocator for checkpoint metadata.
func (p *Pager) AllocState() (next PageID, free []PageID) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	return p.next, append([]PageID(nil), p.free...)
}

// SetAllocState seeds the allocator at open.
func (p *Pager) SetAllocState(next PageID, free []PageID) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	if next < 1 {
		next = 1
	}
	p.next = next
	p.free = append([]PageID(nil), free...)
}

// Allocated returns the page IDs that have ever been allocated,
// i.e. 1..next-1. Recovery scans this range.
func (p *Pager) Allocated() PageID {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	return p.next - 1
}

// ReadPage reads page pid into buf (which must be PageSize bytes) and
// verifies its checksum. An all-zero page — never written, or torn to
// nothing and repaired by no one because it held no data — is reported
// as empty=true with a nil error and buf zeroed. A page that fails its
// checksum without being all-zero returns ErrCorruptPage (after open
// has run RecoverTorn, this means real corruption).
func (p *Pager) ReadPage(pid PageID, buf []byte) (empty bool, err error) {
	if len(buf) != p.pageSize {
		return false, fmt.Errorf("pager: ReadPage buffer is %d bytes, want %d", len(buf), p.pageSize)
	}
	p.pageReads.Add(1)
	n, err := p.file.ReadAt(buf, int64(pid-1)*int64(p.pageSize))
	if err != nil && n == 0 {
		// Reading past EOF: the page was allocated but never written.
		for i := range buf {
			buf[i] = 0
		}
		return true, nil
	}
	for i := n; i < len(buf); i++ {
		buf[i] = 0 // short read at EOF: rest of the page was never written
	}
	if allZero(buf) {
		return true, nil
	}
	want := binary.LittleEndian.Uint32(buf[:CheckHeader])
	if crc32.Checksum(buf[CheckHeader:], pageCRC) != want {
		return false, fmt.Errorf("%w: page %d", ErrCorruptPage, pid)
	}
	return false, nil
}

// BatchPage is one page image handed to WriteBatch. Data must be
// exactly PageSize bytes; the pager fills in Data[0:CheckHeader].
type BatchPage struct {
	PID  PageID
	Data []byte
}

// WriteBatch durably writes a batch of complete page images: double-
// write buffer first (write + sync), then in place, then a page-file
// sync. On return every page is durable and torn-write repairable.
func (p *Pager) WriteBatch(pages []BatchPage) error {
	if len(pages) == 0 {
		return nil
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	// Stamp checksums, then build the double-write image:
	// [count u32] then per page [pid u64][image PageSize]. Batches run one
	// at a time under wmu, so they share one buffer, grown to the largest
	// batch seen.
	size := 4 + len(pages)*(8+p.pageSize)
	if cap(p.dwbBuf) < size {
		p.dwbBuf = make([]byte, size)
	}
	dwb := p.dwbBuf[:size]
	binary.LittleEndian.PutUint32(dwb[:4], uint32(len(pages)))
	off := 4
	for _, pg := range pages {
		if len(pg.Data) != p.pageSize {
			return fmt.Errorf("pager: WriteBatch page %d image is %d bytes, want %d", pg.PID, len(pg.Data), p.pageSize)
		}
		binary.LittleEndian.PutUint32(pg.Data[:CheckHeader], crc32.Checksum(pg.Data[CheckHeader:], pageCRC))
		binary.LittleEndian.PutUint64(dwb[off:off+8], uint64(pg.PID))
		copy(dwb[off+8:off+8+p.pageSize], pg.Data)
		off += 8 + p.pageSize
	}
	if _, err := p.dwb.WriteAt(dwb, 0); err != nil {
		return fmt.Errorf("pager: double-write buffer: %w", err)
	}
	if err := p.dwb.Sync(); err != nil {
		return fmt.Errorf("pager: double-write buffer sync: %w", err)
	}
	p.syncs.Add(1)
	for _, pg := range pages {
		if _, err := p.file.WriteAt(pg.Data, int64(pg.PID-1)*int64(p.pageSize)); err != nil {
			return fmt.Errorf("pager: page %d write: %w", pg.PID, err)
		}
		p.pageWrites.Add(1)
	}
	if err := p.file.Sync(); err != nil {
		return fmt.Errorf("pager: page file sync: %w", err)
	}
	p.syncs.Add(1)
	return nil
}

// RecoverTorn repairs torn page writes at open: every complete image
// in the double-write buffer whose main-file copy fails its checksum
// (or tore to zeros) is written back in place. Returns how many pages
// were repaired. Must run before any ReadPage-based recovery scan.
func (p *Pager) RecoverTorn() (repaired int, err error) {
	head := make([]byte, 4)
	if n, err := p.dwb.ReadAt(head, 0); err != nil && n < 4 {
		return 0, nil // empty or absent buffer: nothing was mid-write
	}
	count := int(binary.LittleEndian.Uint32(head))
	if count <= 0 || count > 1<<20 {
		return 0, nil // garbage header: buffer itself tore before any page write began
	}
	entry := make([]byte, 8+p.pageSize)
	main := make([]byte, p.pageSize)
	var fixed []BatchPage
	for i := 0; i < count; i++ {
		off := int64(4) + int64(i)*int64(8+p.pageSize)
		if n, err := p.dwb.ReadAt(entry, off); err != nil && n < len(entry) {
			break // buffer tore mid-entry: later entries never reached their page writes
		}
		pid := PageID(binary.LittleEndian.Uint64(entry[:8]))
		if pid == 0 {
			break
		}
		img := entry[8:]
		want := binary.LittleEndian.Uint32(img[:CheckHeader])
		if crc32.Checksum(img[CheckHeader:], pageCRC) != want {
			continue // this buffered image itself is torn; its page write never started
		}
		empty, rerr := p.ReadPage(pid, main)
		if rerr == nil && !empty {
			continue // main copy is a complete image (old or new): leave it
		}
		fixed = append(fixed, BatchPage{PID: pid, Data: append([]byte(nil), img...)})
	}
	if len(fixed) == 0 {
		return 0, nil
	}
	for _, pg := range fixed {
		if _, err := p.file.WriteAt(pg.Data, int64(pg.PID-1)*int64(p.pageSize)); err != nil {
			return 0, fmt.Errorf("pager: repairing page %d: %w", pg.PID, err)
		}
	}
	if err := p.file.Sync(); err != nil {
		return 0, fmt.Errorf("pager: sync after repair: %w", err)
	}
	p.repaired.Add(uint64(len(fixed)))
	return len(fixed), nil
}

// Close closes the underlying files.
func (p *Pager) Close() error {
	err := p.file.Close()
	if derr := p.dwb.Close(); err == nil {
		err = derr
	}
	return err
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
