package sqldb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The write-ahead log provides the durability and crash-recovery guarantees
// the paper attributes to the RDBMS tier (§4: "transaction and recovery
// services"). Each committed transaction's redo records are appended as one
// group ending in a commit marker; recovery replays committed groups only,
// in log order, and truncates at the last whole group (a group failing its
// CRC or torn short, and everything after it, is cut — never replayed).
//
// A group is one length-prefixed, CRC-protected (CRC32-C/Castagnoli) frame:
//
//	[4-byte little-endian payload length][records…][walCommit][uvarint LSN][4-byte CRC32C of payload]
//
// Records inside it are an op byte and their fields, with no frame of their
// own. Every record but the marker names its table by the table's permanent
// id (table.tableID), a uvarint: one byte for the first 127 tables. An
// insert then logs the row id and its whole row image; an update the row
// id, the table's column count, a bitmap of the columns it changed and
// their new values; a delete the row id; DDL its statement text, the id
// being the table the statement creates or drops, or the one owning its
// index.
//
// The commit marker carries a log sequence number (LSN), assigned
// in file-write order, so the log doubles as a replication stream: every
// committed group is addressable by the LSN of its commit marker, and a
// follower resumes shipping from its durable applied LSN (see repl.go).
// LSNs are monotone but may have gaps — a batch retracted after its LSN
// was reserved, or a torn tail cut by repair, consumes numbers without
// leaving records.

// walCRC is the CRC32-C (Castagnoli) table guarding every WAL record.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walOp tags a WAL record. Ops 1 to 4 were the records of a format that
// named tables by name; none is written now, so a log in that format
// decodes as no group at all and Open refuses it (ErrLogFormat) instead of
// misreading a name's length as a table id.
type walOp uint8

const (
	walCommit walOp = 5
	walInsert walOp = 6
	walUpdate walOp = 7
	walDelete walOp = 8
	walDDL    walOp = 9
)

type walRecord struct {
	op  walOp
	lsn uint64 // commit markers only: the group's log sequence number
	// tableID is the record's table as the log names it. It is kept as
	// read, so that an id no table can have — 0, or one past uint32 — reaches
	// the redo, which refuses it by number (DB.redoTable).
	tableID uint64
	rid     int64
	// img is an insert's row, the image its version holds. cols is an
	// update's table column count, and delta what the log holds of it after
	// that count: the bitmap of changed columns — ⌈cols/8⌉ bytes, bit i%8 of
	// byte i/8 for column i, no bit set past cols — then their cells, in
	// column order.
	img   rowImage
	cols  int
	delta []byte
	sql   string // DDL text
}

// ErrLogFormat reports a store file that is sealed — whole, its CRC32C
// matches — but not in the layout this engine writes: a log whose first
// frame is not a committed group (a version whose records each carried
// their own frame), or a checkpoint meta whose magic or body is another
// layout's. Open refuses it, leaving every file as it found it, rather
// than cut the log back to the nothing the reader accepts or open the
// store as one that never checkpointed.
var ErrLogFormat = errors.New("sqldb: a store file is not in this engine's format")

// VFS abstracts the file system so tests and simulations can run against
// memory while deployments use the operating system.
type VFS interface {
	// Create opens name for appending, creating or truncating it.
	Create(name string) (File, error)
	// Open opens name for appending, creating it if absent.
	Open(name string) (File, error)
	// OpenRandom opens name for random-access reads and writes, creating
	// it if absent: a paged store's page files, and the log as a
	// replication read cuts runs from it.
	OpenRandom(name string) (RandomFile, error)
	// ReadFile reads the whole named file; a missing file yields (nil, nil).
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
	// Remove deletes the named file if it exists.
	Remove(name string) error
}

// File is the subset of file behaviour the WAL needs.
type File interface {
	io.Writer
	io.Closer
	// Sync forces written data to stable storage.
	Sync() error
}

// RandomFile is a random-access file: what the page store needs beyond
// the WAL's append-only File. It satisfies pager.File.
type RandomFile interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Sync forces written data to stable storage.
	Sync() error
}

// RandomAccessVFS is VFS under the name the benchmark harness's device
// still asserts to; a [benchmark] change removes it.
type RandomAccessVFS = VFS

// MemVFS is an in-memory VFS for tests and simulations. Files are byte
// blobs that both file kinds open.
type MemVFS struct {
	mu    sync.Mutex
	files map[string]*memBlob
}

// memBlob is one in-memory file's contents. The blob pointer is shared
// by every open handle; MemVFS.mu guards the byte slice.
type memBlob struct{ data []byte }

// NewMemVFS creates an empty in-memory file system.
func NewMemVFS() *MemVFS { return &MemVFS{files: make(map[string]*memBlob)} }

type memFile struct {
	vfs  *MemVFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	blob, ok := f.vfs.files[f.name]
	if !ok {
		return 0, fmt.Errorf("sqldb: write to removed file %s", f.name)
	}
	blob.data = append(blob.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// memRandomFile is a random-access handle onto a MemVFS blob.
type memRandomFile struct {
	vfs  *MemVFS
	blob *memBlob
}

func (f *memRandomFile) ReadAt(p []byte, off int64) (int, error) {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	if off >= int64(len(f.blob.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.blob.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memRandomFile) WriteAt(p []byte, off int64) (int, error) {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	end := off + int64(len(p))
	if int64(len(f.blob.data)) < end {
		f.blob.data = append(f.blob.data, make([]byte, end-int64(len(f.blob.data)))...)
	}
	copy(f.blob.data[off:end], p)
	return len(p), nil
}

func (f *memRandomFile) Sync() error  { return nil }
func (f *memRandomFile) Close() error { return nil }

// Create implements VFS.
func (m *MemVFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memBlob{}
	return &memFile{vfs: m, name: name}, nil
}

// Open implements VFS.
func (m *MemVFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = &memBlob{}
	}
	return &memFile{vfs: m, name: name}, nil
}

// OpenRandom implements VFS: a read-write random-access handle, creating
// the file if absent.
func (m *MemVFS) OpenRandom(name string) (RandomFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	blob, ok := m.files[name]
	if !ok {
		blob = &memBlob{}
		m.files[name] = blob
	}
	return &memRandomFile{vfs: m, blob: blob}, nil
}

// ReadFile implements VFS.
func (m *MemVFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	blob, ok := m.files[name]
	if !ok {
		return nil, nil
	}
	return append([]byte(nil), blob.data...), nil
}

// Rename implements VFS.
func (m *MemVFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	blob, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("sqldb: rename: no file %s", oldname)
	}
	m.files[newname] = blob
	delete(m.files, oldname)
	return nil
}

// Remove implements VFS.
func (m *MemVFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// OSVFS is the operating-system file system. Its files are the *os.File
// itself; a failed open returns a nil file, not a nil *os.File in one.
type OSVFS struct{}

// Create implements VFS.
func (OSVFS) Create(name string) (File, error) {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Open implements VFS.
func (OSVFS) Open(name string) (File, error) {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// OpenRandom implements VFS.
func (OSVFS) OpenRandom(name string) (RandomFile, error) {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFile implements VFS.
func (OSVFS) ReadFile(name string) ([]byte, error) {
	b, err := os.ReadFile(name)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return b, err
}

// Rename implements VFS.
func (OSVFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements VFS.
func (OSVFS) Remove(name string) error {
	err := os.Remove(name)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// SyncPolicy controls whether the WAL waits for stable storage. There is
// one commit pipeline (commit → flushGroup); the policy only decides
// whether a flush ends in an fsync.
type SyncPolicy int

const (
	// SyncGroup, the zero value, makes every commit durable before it
	// returns: committers enqueue their record batches and block; whichever
	// unserved committer takes the flush token drains the queue, writes all
	// pending batches with one buffered write, issues a single fsync, and
	// wakes the whole group. N concurrent commits cost ~1 fsync instead of
	// N; a lone committer flushes its own batch — one write, one fsync.
	// Each transaction holds its locks until its own commit record is
	// durable.
	SyncGroup SyncPolicy = iota
	// SyncNever is the same pipeline with the fsync skipped, leaving syncing
	// to the file system (fastest; a crash may lose recent commits but never
	// corrupts recovered state).
	SyncNever
)

// ParseSyncPolicy maps the flag spellings the cmd daemons accept to a
// SyncPolicy: "group" and "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("sqldb: unknown sync policy %q (want group or never)", s)
}

// walGroupBuckets is the number of group-size histogram buckets: sizes
// 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65+.
const walGroupBuckets = 8

// WALStats is a snapshot of the write-ahead log's commit-pipeline counters.
// Syncs/Commits is the amortization the group-commit pipeline exists to
// deliver: 1.0 for sequential commits, approaching 1/concurrency for
// concurrent ones.
type WALStats struct {
	// Commits counts transactions whose commit record was successfully
	// logged (and, under SyncGroup, made durable).
	Commits uint64
	// Syncs counts fsync calls issued on the log file.
	Syncs uint64
	// Flushes counts batched writes that reached the log file; equals
	// Syncs under SyncGroup, and counts unsynced writes under SyncNever.
	Flushes uint64
	// BytesWritten is the total log bytes appended.
	BytesWritten uint64
	// GroupSizeHist buckets flushed group sizes: 1, 2, 3-4, 5-8, 9-16,
	// 17-32, 33-64, 65+ transactions per flush.
	GroupSizeHist [walGroupBuckets]uint64
	// MaxGroup is the largest number of transactions made durable by a
	// single flush.
	MaxGroup uint64
	// CommitWait is cumulative wall-clock time commits spent between
	// enqueueing their batch and learning its flush's outcome.
	CommitWait time.Duration
}

// FsyncsPerCommit reports the amortized fsync cost of a durable commit.
func (s WALStats) FsyncsPerCommit() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Syncs) / float64(s.Commits)
}

// walBatch is one transaction's encoded redo records and their CRC32C
// (the group not yet framed — the flusher seals it with the next LSN at
// write time, so LSN order always equals file order) waiting in the
// group-commit queue. done (buffered, one send) delivers the outcome of
// the flush that carried the batch; it is selectable alongside the flush
// token and ctx.Done(), so a committer whose context fires while its batch
// is still queued can retract it instead of sleeping on a condition
// variable.
type walBatch struct {
	data []byte
	crc  uint32 // CRC32C of data; the flusher extends it over the marker
	lsn  uint64 // sealed by the flusher under w.mu, before done is signalled
	done chan error
}

// walMark is one entry of the log file's sparse index: every group at or
// below lsn ends at or before byte off of the file, and every group from
// off on is above lsn.
type walMark struct {
	lsn uint64
	off int64
}

// walMarkEvery spaces the index's marks: a read seeking afterLSN starts at
// most this far, plus one flush, before the first group it ships.
const walMarkEvery = 64 << 10

// walTapRetain is how much of the log's tail a checkpoint leaves in the
// file while a replication tap is registered, whatever its LSN: a
// follower a little behind when the checkpoint runs is then still shipped
// from the file instead of refused.
const walTapRetain = 4 << 20

// addMark extends an index over whole groups now ending at byte end, the
// last of them committed at lsn. The last mark always sits at the end of
// the file's whole groups: it moves forward until it is walMarkEvery past
// the mark before it, then stays, and the next group opens a new last
// mark. The first mark never moves.
func addMark(marks []walMark, lsn uint64, end int64) []walMark {
	if n := len(marks); n > 1 && marks[n-1].off-marks[n-2].off < walMarkEvery {
		marks[n-1] = walMark{lsn, end}
		return marks
	}
	return append(marks, walMark{lsn, end})
}

type wal struct {
	// mu guards the file handle: group flushes, follower appends,
	// checkpoint truncations and close all serialize here.
	mu     sync.Mutex
	vfs    VFS
	name   string
	file   File
	policy SyncPolicy

	// dirty (guarded by mu) marks that a failed or partial write may have
	// left torn bytes at the log's tail. Appending after garbage would
	// strand every later commit behind the tear — logReader stops at the
	// first corrupt frame — so the next writer first repairs the file
	// back to its committed prefix (atomic tmp+rename, like a checkpoint
	// truncation).
	dirty bool

	// Group-commit state: queue of encoded, unflushed batches. gmu is held
	// only for queue manipulation, never across I/O. flush is the flush
	// token (capacity one): a committer holds it — sends into it — while it
	// writes the queue, so at most one group is in flight.
	gmu   sync.Mutex
	queue []*walBatch
	flush chan struct{}

	// nextLSN (guarded by mu, since every append path writes under mu) is
	// the last LSN handed out; durableLSN publishes the newest LSN whose
	// group has been flushed per the sync policy.
	nextLSN    uint64
	durableLSN atomic.Uint64

	// wbuf (guarded by mu) is the write buffer of this node's own flushes,
	// reused flush after flush; nothing keeps a view of it.
	wbuf bytes.Buffer

	// marks is the log file's sparse index (see walMark), ascending in LSN
	// and offset: the first at the file's start, then one per walMarkEvery
	// bytes, the last at the end of the file's whole groups. Appends and
	// file swaps change it holding both mu and idxMu; committedSince reads
	// it under idxMu alone.
	idxMu sync.Mutex
	marks []walMark

	// Replication taps to signal after every durable append.
	tapMu     sync.Mutex
	taps      map[*ReplicationTap]struct{}
	servedLSN atomic.Uint64 // newest LSN handed to CommittedSince callers

	// In-flight commit registry: LSNs whose group is (or may be) durable
	// in the log but whose effects have not yet been applied to the
	// engine's state (version stamping; page write-through under paged
	// storage). A fuzzy checkpoint must not declare a checkpoint LSN at
	// or above an in-flight commit — its effects would be neither in the
	// flushed pages nor in the kept WAL tail. Registration happens before
	// durableLSN publishes the LSN (so barrier readers that load
	// durableLSN first can never miss an in-flight LSN at or below it);
	// the committer unregisters after applying, success or failure.
	inflMu   sync.Mutex
	inflight map[uint64]struct{}

	// truncLSN is the newest LSN the log file may no longer hold: the
	// newest one a fuzzy checkpoint's tail truncation removed, and at open
	// the first mark's LSN (see DB.redoLog). Followers this far behind can
	// no longer be served from the file and must re-seed: committedSince
	// refuses them with ErrLogTruncated.
	truncLSN atomic.Uint64

	// Pipeline counters (see WALStats).
	commits    atomic.Uint64
	syncs      atomic.Uint64
	flushes    atomic.Uint64
	bytes      atomic.Uint64
	groupHist  [walGroupBuckets]atomic.Uint64
	maxGroup   atomic.Uint64
	commitWait atomic.Int64
}

// openWAL opens the log for appending after recovery. LSN numbering
// resumes past lsn, everything the log holds — groups this node wrote or
// applied as a follower, and under paged storage the truncated prefix the
// checkpoint covers — and marks is the index Open's log pass built. The
// file reaches back to the first mark's LSN.
func openWAL(vfs VFS, name string, policy SyncPolicy, lsn uint64, marks []walMark) (*wal, error) {
	f, err := vfs.Open(name)
	if err != nil {
		return nil, err
	}
	w := &wal{vfs: vfs, name: name, file: f, policy: policy, flush: make(chan struct{}, 1), inflight: make(map[uint64]struct{}), nextLSN: lsn, marks: marks}
	w.durableLSN.Store(lsn)
	w.truncLSN.Store(marks[0].lsn)
	return w, nil
}

// registerInflight marks lsn durable-but-unapplied. Called with w.mu
// held (or otherwise ordered before durableLSN publishes lsn).
func (w *wal) registerInflight(lsn uint64) {
	w.inflMu.Lock()
	w.inflight[lsn] = struct{}{}
	w.inflMu.Unlock()
}

// unregisterInflight marks lsn applied (or abandoned). lsn 0 is a no-op.
func (w *wal) unregisterInflight(lsn uint64) {
	if lsn == 0 {
		return
	}
	w.inflMu.Lock()
	delete(w.inflight, lsn)
	w.inflMu.Unlock()
}

// checkpointBarrier returns the newest LSN every one of whose
// predecessors (itself included) is both durable and fully applied —
// the highest safe checkpoint LSN. Loading durableLSN before scanning
// the registry is what makes the result safe: any commit with lsn ≤
// the loaded durableLSN registered before that store, so if it is
// absent from the registry now, it has been applied.
func (w *wal) checkpointBarrier() uint64 {
	durable := w.durableLSN.Load()
	w.inflMu.Lock()
	defer w.inflMu.Unlock()
	barrier := durable
	for lsn := range w.inflight {
		if lsn <= barrier {
			barrier = lsn - 1
		}
	}
	return barrier
}

// truncateThrough cuts every committed group with LSN ≤ ckptLSN off the
// front of the log (their effects are durable in the checkpointed
// pages). LSN numbering continues uninterrupted — only file content
// shrinks. Groups are whole: the cut lands exactly after the last
// commit marker at or below ckptLSN, which file order guarantees is
// before any marker above it — or earlier, while a tap is registered, so
// that at least walTapRetain bytes stay behind it.
func (w *wal) truncateThrough(ckptLSN uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dirty {
		if err := w.repairLocked(); err != nil {
			return err
		}
	}
	data, err := w.vfs.ReadFile(w.name)
	if err != nil {
		return fmt.Errorf("sqldb: wal truncate: %w", err)
	}
	keep := 0
	w.tapMu.Lock()
	if len(w.taps) > 0 {
		keep = walTapRetain
	}
	w.tapMu.Unlock()
	cut, truncated := 0, uint64(0)
	for rd := (logReader{data: data}); rd.next() && rd.lsn <= ckptLSN && len(data)-rd.end >= keep; {
		cut, truncated = rd.end, rd.lsn
	}
	if cut == 0 {
		return nil
	}
	// Published before the swap (see committedSince); only this function,
	// under w.mu, and Open write it.
	if truncated > w.truncLSN.Load() {
		w.truncLSN.Store(truncated)
	}
	marks := []walMark{{lsn: truncated}}
	for _, m := range w.marks {
		if m.off > int64(cut) {
			marks = append(marks, walMark{m.lsn, m.off - int64(cut)})
		}
	}
	if err := w.replaceLocked(append([]byte(nil), data[cut:]...), marks); err != nil {
		return fmt.Errorf("sqldb: wal truncate: %w", err)
	}
	return nil
}

// stats snapshots the pipeline counters.
func (w *wal) stats() WALStats {
	s := WALStats{
		Commits:      w.commits.Load(),
		Syncs:        w.syncs.Load(),
		Flushes:      w.flushes.Load(),
		BytesWritten: w.bytes.Load(),
		MaxGroup:     w.maxGroup.Load(),
		CommitWait:   time.Duration(w.commitWait.Load()),
	}
	for i := range s.GroupSizeHist {
		s.GroupSizeHist[i] = w.groupHist[i].Load()
	}
	return s
}

// observeGroup records one completed flush of n transactions.
func (w *wal) observeGroup(n int) {
	w.flushes.Add(1)
	b := 0
	for s := n - 1; s > 0 && b < walGroupBuckets-1; s >>= 1 {
		b++
	}
	w.groupHist[b].Add(1)
	for {
		cur := w.maxGroup.Load()
		if uint64(n) <= cur || w.maxGroup.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// commit enqueues the transaction's records on the group pipeline and
// blocks until a flush containing them has been written and, per the sync
// policy, made durable — or the batch is retracted by ctx. A waiting
// committer whose batch is unanswered takes the flush token and writes the
// whole queue, its own batch with it; committers arriving while that
// flush's fsync is in flight accumulate in the queue and ride the next
// flush together — that overlap is what amortizes the fsync across
// concurrent transactions. flushGroup answers every batch it wrote before
// its caller gives the token back, so a committer that takes the token
// finds its batch either answered or still queued. A batch still queued
// when ctx fires is retracted (nothing written) and the mapped context
// error returned; a batch already drained into a flush rides it to the
// real outcome.
//
// On success the group's LSN is returned, registered in the in-flight
// registry; the caller MUST unregisterInflight it once the commit's
// effects are applied. A nonzero LSN may come back even with an error
// (the marker may have reached the file but the write or sync failed) —
// the caller unregisters on that path too.
//
// buf is the committer's encode buffer (the transaction's scratch): the
// records are laid out there and it is the committer's again when commit
// returns — a flush copies queued batches into the log's write buffer.
func (w *wal) commit(ctx context.Context, recs []walRecord, buf *bytes.Buffer) (uint64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, mapCtxErr(err) // nothing written yet: cancel is free
		}
	}
	// Encode and checksum outside any lock: it is pure CPU work and must not
	// extend the critical section other committers queue behind. The group
	// is framed at write time (under w.mu) so its marker's LSN matches file
	// order.
	buf.Reset()
	for i := range recs {
		appendRecord(buf, &recs[i])
	}
	start := time.Now()
	b := &walBatch{data: buf.Bytes(), crc: crc32.Checksum(buf.Bytes(), walCRC), done: make(chan error, 1)}
	w.gmu.Lock()
	w.queue = append(w.queue, b)
	w.gmu.Unlock()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var err error
	select {
	case err = <-b.done:
	case w.flush <- struct{}{}:
		select {
		case err = <-b.done: // carried by the flush that gave the token back
		default:
			w.flushGroup()
			err = <-b.done
		}
		<-w.flush
	case <-done:
		err = w.retractBatch(b, ctx)
	}
	w.commitWait.Add(time.Since(start).Nanoseconds())
	// b.lsn was sealed (and registered in-flight) by the flusher before
	// done was signalled; a batch retracted while still queued keeps 0.
	return b.lsn, err
}

// retractBatch withdraws a cancelled committer's batch. If it is still
// queued nothing of it was written: remove it and report the mapped
// context error. If a flush already drained it, the write may be durable —
// the only honest outcome is the flush's own, so wait for it (the wait is
// bounded by one group write + fsync).
func (w *wal) retractBatch(b *walBatch, ctx context.Context) error {
	w.gmu.Lock()
	for i, qb := range w.queue {
		if qb == b {
			w.queue = append(w.queue[:i], w.queue[i+1:]...)
			w.gmu.Unlock()
			return mapCtxErr(ctx.Err())
		}
	}
	w.gmu.Unlock()
	return <-b.done
}

// flushGroup drains the queue, seals the group into the log's write buffer
// and appends it (appendLocked), then delivers the outcome to every batch
// in the group. It holds the only write of this node's own commits to the
// log. Its caller holds the flush token and has its own batch queued, so
// the group is never empty.
func (w *wal) flushGroup() {
	w.gmu.Lock()
	group := w.queue
	w.queue = w.queue[len(group):]
	w.gmu.Unlock()

	// Seal and write under w.mu: each batch's commit marker receives the
	// next LSN as it is laid into the write buffer, so LSNs increase in
	// exactly file order and every committed group is addressable for
	// replication. Framing a batch costs its length word, its few marker
	// bytes and a CRC extended over just those: nothing here checksums a
	// record.
	w.mu.Lock()
	w.wbuf.Reset()
	for _, qb := range group {
		w.nextLSN++
		qb.lsn = w.nextLSN
		w.registerInflight(qb.lsn)
		appendGroup(&w.wbuf, qb.data, qb.crc, qb.lsn)
	}
	wrote, err := w.appendLocked(w.wbuf.Bytes(), w.nextLSN)
	w.mu.Unlock()
	if wrote {
		w.observeGroup(len(group))
	}
	if err == nil {
		w.commits.Add(uint64(len(group)))
	}
	for _, qb := range group {
		qb.done <- err
	}
}

// appendLocked is the log's one write, shared by this node's group flushes
// and a follower's shipped runs; the caller holds w.mu. It repairs a
// tail a failed write left torn, writes data — whole groups, the last
// committed at lsn — counts its bytes, marks the index and syncs per the
// policy; only when all of that succeeded is lsn published durable and
// every replication tap signaled. wrote reports whether data reached the
// file.
func (w *wal) appendLocked(data []byte, lsn uint64) (wrote bool, err error) {
	if w.dirty {
		if err := w.repairLocked(); err != nil {
			return false, err
		}
	}
	if _, err := w.file.Write(data); err != nil {
		w.dirty = true
		return false, err
	}
	w.bytes.Add(uint64(len(data)))
	w.idxMu.Lock()
	w.marks = addMark(w.marks, lsn, w.marks[len(w.marks)-1].off+int64(len(data)))
	w.idxMu.Unlock()
	if w.policy != SyncNever {
		w.syncs.Add(1)
		if err := w.file.Sync(); err != nil {
			return true, err
		}
	}
	if lsn > w.durableLSN.Load() {
		w.durableLSN.Store(lsn)
	}
	w.notifyTaps()
	return true, nil
}

// replaceLocked swaps the log content under w.mu via the crash-safe
// tmp+sync+rename dance, then reopens the handle for appending. marks,
// content's index, replaces the log's in one step with the rename, under
// idxMu: a reader holding idxMu opens one file and seeks by its marks.
func (w *wal) replaceLocked(content []byte, marks []walMark) error {
	tmp, err := w.vfs.Create(w.name + ".tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(content); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := w.file.Close(); err != nil {
		return err
	}
	w.idxMu.Lock()
	err = w.vfs.Rename(w.name+".tmp", w.name)
	if err == nil {
		w.marks = marks
	}
	w.idxMu.Unlock()
	if err != nil {
		return err
	}
	nf, err := w.vfs.Open(w.name)
	if err != nil {
		return err
	}
	w.file = nf
	return nil
}

// repairLocked heals a tail torn by a crash or by a failed or partial
// append: reread the file, keep its whole committed groups, and
// atomically swap them into place. Called under w.mu, by Open and before
// the next write after a failed one: a torn frame left behind would
// strand every group appended after it. The index is trimmed to what is
// kept by indexing it again: a torn write may have landed whole groups
// before its tear.
func (w *wal) repairLocked() error {
	data, err := w.vfs.ReadFile(w.name)
	if err != nil {
		return fmt.Errorf("sqldb: wal repair: %w", err)
	}
	marks := w.marks[:1:1]
	rd := logReader{data: data}
	for rd.next() {
		marks = addMark(marks, rd.lsn, int64(rd.end))
	}
	if rd.end < len(data) {
		if err := w.replaceLocked(data[:rd.end], marks); err != nil {
			return fmt.Errorf("sqldb: wal repair: %w", err)
		}
	} else {
		w.idxMu.Lock()
		w.marks = marks
		w.idxMu.Unlock()
	}
	w.dirty = false
	return nil
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.file.Close()
}

// appendRecord encodes r onto buf: its op byte and its fields. A record
// has no frame of its own; appendGroup frames a group.
func appendRecord(buf *bytes.Buffer, r *walRecord) {
	buf.WriteByte(byte(r.op))
	if r.op == walCommit {
		writeUvarint(buf, r.lsn)
		return
	}
	writeUvarint(buf, r.tableID)
	if r.op == walDDL {
		writeString(buf, r.sql)
		return
	}
	writeUvarint(buf, uint64(r.rid))
	switch r.op {
	case walInsert:
		writeUvarint(buf, uint64(r.img.width()))
		buf.WriteString(r.img.cells())
	case walUpdate:
		writeUvarint(buf, uint64(r.cols))
		buf.Write(r.delta)
	}
}

// appendGroup frames one committed group onto buf: the length word, the
// encoded records recs, the commit marker for lsn, and the CRC32C of
// records and marker. crc is the records' own CRC32C, which the committer
// computed outside w.mu; only the marker's bytes are added to it here.
func appendGroup(buf *bytes.Buffer, recs []byte, crc uint32, lsn uint64) {
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], uint32(len(recs)+1+uvarintLen(lsn)))
	buf.Write(word[:])
	buf.Write(recs)
	marker := buf.Len()
	appendRecord(buf, &walRecord{op: walCommit, lsn: lsn})
	binary.LittleEndian.PutUint32(word[:], crc32.Update(crc, walCRC, buf.Bytes()[marker:]))
	buf.Write(word[:])
}

// logReader walks raw log bytes one committed group at a time. A group is
// one frame — one transaction's redo records and its commit marker, as
// flushGroup and appendRaw lay it down — and it is the unit of everything
// done with the log: repair keeps whole groups, recovery and follower
// apply redo whole groups, truncation and shipping cut at group
// boundaries. Every consumer is a loop over next; this is the only place
// log framing is parsed and the only place a CRC is checked.
type logReader struct {
	data []byte
	// recs, lsn, start and end describe the group the last successful next
	// yielded: its redo records (commit marker stripped; the slice is reused
	// by the following call, an insert's image is its own, and an update's
	// delta points into data), the marker's LSN, and its
	// verbatim bytes data[start:end]. Once next reports false, end is the
	// length of the log's committed prefix.
	recs       []walRecord
	lsn        uint64
	start, end int
}

// next advances to the following whole committed group. It reports false
// at the clean end of the log and equally at the first torn or CRC-failing
// frame, and at one whose records do not decode or are not ended by its
// commit marker: nothing past that point can be trusted, so to every
// consumer the log ends there.
//
// A group is parsed twice: once allocating nothing, to validate it and
// count its records, then into an array of exactly that many. So what
// reading a group costs is bounded by its bytes, however small its
// records.
func (r *logReader) next() bool {
	r.recs = r.recs[:0]
	payload, ok := frameAt(r.data, r.end)
	if !ok {
		return false
	}
	n, lsn, ok := scanGroup(payload)
	if !ok {
		return false
	}
	if cap(r.recs) < n {
		r.recs = make([]walRecord, n)
	}
	r.recs = r.recs[:n]
	rd := byteReader{b: payload}
	for i := range r.recs {
		r.recs[i] = walRecord{}
		decodeRecord(&rd, &r.recs[i]) // cannot fail: scanGroup accepted these bytes
	}
	r.lsn = lsn
	r.start, r.end = r.end, r.end+8+len(payload)
	return true
}

// frameAt returns the payload of the frame at data[off:], and whether its
// length word fits the data and its CRC32C matches.
func frameAt(data []byte, off int) ([]byte, bool) {
	if len(data)-off < 8 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	if n > len(data)-off-8 {
		return nil, false
	}
	payload := data[off+4 : off+4+n]
	return payload, crc32.Checksum(payload, walCRC) == binary.LittleEndian.Uint32(data[off+4+n:])
}

// scanGroup validates a group's payload without allocating: decodable
// records, then a commit marker that ends the payload. It reports the
// records' count and the marker's LSN.
func scanGroup(payload []byte) (n int, lsn uint64, ok bool) {
	rd := byteReader{b: payload, skim: true}
	var rec walRecord
	for decodeRecord(&rd, &rec) {
		if rec.op == walCommit {
			return n, rec.lsn, rd.off == len(payload)
		}
		n++
	}
	return 0, 0, false
}

// foreignLog reports whether data's first frame is sealed — a non-empty
// payload its CRC32C matches — yet not a group: the mark of a log written
// in another format (ErrLogFormat). An empty payload is not that mark: a
// zero-filled tail reads as one, and a torn first commit must still open.
func foreignLog(data []byte) bool {
	payload, sealed := frameAt(data, 0)
	if !sealed || len(payload) == 0 {
		return false
	}
	_, _, group := scanGroup(payload)
	return !group
}

// decodeRecord parses the record at rd into r. The bytes come from disk or
// from the network (a shipped run), so every count and length is bounded
// by the bytes that remain, and a record has one byte form: what decodes
// is exactly what appendRecord would write.
func decodeRecord(rd *byteReader, r *walRecord) bool {
	op, ok := rd.u8()
	if !ok {
		return false
	}
	r.op = walOp(op)
	switch r.op {
	case walCommit:
		r.lsn, ok = rd.uvarint()
		return ok
	case walInsert, walUpdate, walDelete, walDDL:
		if r.tableID, ok = rd.uvarint(); !ok {
			return false
		}
	default:
		return false
	}
	if r.op == walDDL {
		r.sql, ok = rd.str()
		return ok
	}
	if r.rid, ok = rd.rid(); !ok {
		return false
	}
	switch r.op {
	case walInsert:
		r.img, ok = rd.image()
	case walUpdate:
		r.cols, r.delta, ok = rd.delta()
	}
	return ok
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

// uvarintLen is how many bytes writeUvarint emits for v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

type byteReader struct {
	b   []byte
	off int
	// skim parses without keeping anything: strings and rows are
	// bounds-checked and stepped over, never allocated.
	skim bool
}

func (r *byteReader) u8() (byte, bool) {
	if r.off >= len(r.b) {
		return 0, false
	}
	v := r.b[r.off]
	r.off++
	return v, true
}

// uvarint reads one minimally encoded uvarint. A padded encoding (a
// trailing zero byte) is rejected so that a record has exactly one byte
// form.
func (r *byteReader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		return 0, false
	}
	r.off += n
	return v, true
}

func (r *byteReader) str() (string, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.b)-r.off) {
		return "", false
	}
	var s string
	if !r.skim {
		s = string(r.b[r.off : r.off+int(n)])
	}
	r.off += int(n)
	return s, true
}

// rid reads a row id: a slot position, so a non-negative int64.
func (r *byteReader) rid() (int64, bool) {
	u, ok := r.uvarint()
	return int64(u), ok && u <= math.MaxInt64
}

// image reads a counted row (WAL insert records and page records share
// it) into an image, or, skimming, into nothing. Every value takes at least
// its type byte, which bounds the count — and so the allocation — by the
// bytes that remain.
func (r *byteReader) image() (rowImage, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.b)-r.off) {
		return noRow, false
	}
	cells, ok := r.cells(int(n))
	if !ok || r.skim {
		return noRow, ok
	}
	return imageFromCells(int(n), cells), true
}

// delta reads an update's column count and what follows it: the
// changed-column bitmap and the changed cells, as one view of the input.
// Only the set columns' cells are read — never a row as wide as the
// column count, which nothing but the bitmap's own length bounds — and the
// set bits, like a row's count, are bounded by the bytes that remain.
func (r *byteReader) delta() (cols int, delta []byte, ok bool) {
	n, ok := r.uvarint()
	if !ok || n > 8*uint64(len(r.b)-r.off) {
		return 0, nil, false
	}
	start, end := r.off, r.off+int((n+7)/8)
	changed := r.b[start:end]
	r.off = end
	set := 0
	for _, b := range changed {
		set += bits.OnesCount8(b)
	}
	if n%8 != 0 && changed[len(changed)-1]>>(n%8) != 0 {
		return 0, nil, false // a bit set past the last column
	}
	if set > len(r.b)-r.off {
		return 0, nil, false
	}
	if _, ok = r.cells(set); !ok {
		return 0, nil, false
	}
	return int(n), r.b[start:r.off:r.off], true
}

// cells steps over n well-formed cells, returning their bytes, a view of
// the input.
func (r *byteReader) cells(n int) ([]byte, bool) {
	start, skim := r.off, r.skim
	r.skim = true
	ok := true
	for i := 0; i < n && ok; i++ {
		_, ok = r.value()
	}
	r.skim = skim
	return r.b[start:r.off:r.off], ok
}

func (r *byteReader) value() (Value, bool) {
	t, ok := r.u8()
	if !ok {
		return Value{}, false
	}
	switch Type(t) {
	case Null:
		return NullValue(), true
	case Int, Bool, Time:
		u, ok := r.uvarint()
		if !ok {
			return Value{}, false
		}
		return Value{typ: Type(t), i: int64(u)}, true
	case Float:
		if r.off+8 > len(r.b) {
			return Value{}, false
		}
		bits := binary.LittleEndian.Uint64(r.b[r.off:]) // IEEE 754 bits
		r.off += 8
		return Value{typ: Float, i: int64(bits)}, true
	case Text:
		s, ok := r.str()
		if !ok {
			return Value{}, false
		}
		return NewText(s), true
	default:
		return Value{}, false
	}
}
