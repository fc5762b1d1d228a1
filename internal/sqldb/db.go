package sqldb

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// StmtStats summarizes one executed statement. Experiments register a
// StatsHook to translate these counts into simulated CPU cost (the paper's
// "speed and efficiency with which ... the database can process the SQL
// statements" is the scalability-critical path).
type StmtStats struct {
	// Kind is the statement verb: SELECT, INSERT, UPDATE, DELETE, DDL,
	// BEGIN, COMMIT, ROLLBACK.
	Kind string
	// Table is the primary target table (first FROM table for SELECT).
	Table string
	// RowsScanned counts heap rows visited across all scans.
	RowsScanned int
	// RowsReturned counts result rows (SELECT only).
	RowsReturned int
	// RowsAffected counts modified rows (INSERT/UPDATE/DELETE).
	RowsAffected int
	// UsedIndex reports whether any access path was an index scan.
	UsedIndex bool
}

// StatsHook observes statement execution.
type StatsHook func(StmtStats)

// Options configures Open.
type Options struct {
	// VFS supplies the file system for the WAL; nil disables durability
	// (pure in-memory database).
	VFS VFS
	// Path names the WAL file within the VFS.
	Path string
	// Sync selects the WAL sync policy.
	Sync SyncPolicy
	// PoolPages is the buffer-pool capacity in frames of a paged store:
	// committed rows are written through to fixed-size pages behind the
	// pool, fuzzy checkpoints (the owner calls Checkpoint; Close takes a
	// final one) truncate the WAL, and recovery replays only the tail above
	// the last checkpoint. Whether a store is paged is read from its files —
	// one that has checkpointed opens paged whatever this says, 0 then
	// meaning defaultPoolPages. A positive value on a store that has never
	// checkpointed (a new one, or a log-only one, whose whole log is redone
	// onto pages) makes it paged; zero there keeps the log-only layout.
	PoolPages int
	// PageSize is the page size in bytes for a newly created page file
	// (0 = pager.DefaultPageSize). An existing store's own page size is
	// authoritative.
	PageSize int
}

// DB is an embedded database engine instance. It is safe for concurrent
// use. Writing statements use strict two-phase locking at two
// granularities: row locks (under table intention locks) for index-driven
// statements, whole-table locks for full scans and DDL. Read-only
// transactions (and plain Query calls outside a transaction) read a
// consistent snapshot from the multi-version store without taking any
// locks.
type DB struct {
	// mu serializes the catalog's writers: DDL, on the statement path and
	// in redo. Readers take no lock: they load cat, the immutable catalog
	// published whole at every CREATE and DROP TABLE. nextTableID, written
	// under mu, is the last id assigned; ids are never reused, so an id
	// names one table for the store's whole life — in the log, the lock
	// manager, the checkpoint meta and the pages.
	mu          sync.Mutex
	cat         atomic.Pointer[catalog]
	nextTableID atomic.Uint32
	locks       *lockManager
	wal         *wal
	// store is the paged-storage engine (nil on a log-only or in-memory
	// database): pager, buffer pool, and fuzzy-checkpoint state (see
	// paged.go).
	store  *pageStore
	nextTx atomic.Uint64
	nowFn  func() time.Time
	hook   atomic.Pointer[StatsHook]
	stmtMu sync.RWMutex
	stmts  map[string]*cachedStmt
	// stmtClock is the eviction order for stmts: every cached statement
	// in an arbitrary but stable slot, walked by the persistent hand in
	// stmtHand. Both are guarded by stmtMu's write half.
	stmtClock []*cachedStmt
	stmtHand  int
	// liveMu makes a transaction's registration among the open ones and
	// the closed test one step: BeginTx holds it across both, Close while
	// it sets closed — so a BeginTx is either waited for or refused. live
	// is the newest open transaction, the others linked through
	// Tx.prev/next; drained, made by a Close that finds any open, is closed
	// by the finish that leaves none.
	liveMu  sync.Mutex
	closed  atomic.Bool
	live    *Tx
	drained chan struct{}
	// shutMu serializes Close; shut records that one released the files.
	// closeWait bounds how long a Close waits for open transactions:
	// closeWaitBound, which tests shorten.
	shutMu    sync.Mutex
	shut      bool
	closeWait time.Duration
	// scratchPool lends each transaction its statements' working memory
	// (scratch.go).
	scratchPool sync.Pool

	// MVCC state. clock is the global commit timestamp generator; commitMu
	// serializes version stamping with the clock publication so snapshots
	// never observe a half-stamped transaction. snaps counts active
	// read-only snapshots per timestamp; watermark caches the oldest one
	// (== clock when none) and only ever advances.
	clock     atomic.Uint64
	commitMu  sync.Mutex
	snapMu    sync.Mutex
	snaps     map[uint64]int
	watermark atomic.Uint64
	gcMu      sync.Mutex
	gcQueue   []gcRecord

	snapshotReads   atomic.Uint64
	versionsCreated atomic.Uint64
	versionsPruned  atomic.Uint64
	slotsReclaimed  atomic.Uint64
	entriesRemoved  atomic.Uint64

	// Replication state (see repl.go): the newest LSN applied through
	// ApplyCommitted (or recovered from this node's own log) plus the
	// follower-apply counters.
	replApplied        atomic.Uint64
	replBatchesApplied atomic.Uint64
	replRecordsApplied atomic.Uint64
	replBatchesSkipped atomic.Uint64
	replApplyErrors    atomic.Uint64

	// Cancellation state (see ctx.go): the default statement deadline and
	// the statement-outcome counters.
	stmtTimeout       atomic.Int64
	stmtsCanceled     atomic.Uint64
	deadlinesExceeded atomic.Uint64
	commitRetractions atomic.Uint64

	// Cost-based join planner state (see stats.go, join.go).
	plannerJoinQueries atomic.Uint64
	plannerReordered   atomic.Uint64
	plannerHashJoins   atomic.Uint64
	plannerIndexNL     atomic.Uint64
	plannerNestedLoops atomic.Uint64
	plannerHashBuilds  atomic.Uint64
	plannerBuildRows   atomic.Uint64
	plannerProbeRows   atomic.Uint64

	// Aggregation counters (see executor.go).
	execAggQueries   atomic.Uint64
	execAggFastPath  atomic.Uint64
	execAggInputRows atomic.Uint64
	execAggGroups    atomic.Uint64

	// Plan-cache state (see plancache.go): the hit/miss/invalidation
	// accounting PlanCacheStats snapshots.
	planHits          atomic.Uint64
	planMisses        atomic.Uint64
	planInvalidations atomic.Uint64
	planStores        atomic.Uint64
}

// New creates a pure in-memory database (no durability).
func New() *DB {
	db, err := Open(Options{})
	if err != nil {
		panic(err) // cannot happen without a VFS
	}
	return db
}

// Open creates or recovers a database according to opts.
func Open(opts Options) (*DB, error) {
	db := &DB{
		locks: newLockManager(),
		nowFn: time.Now,
		stmts: make(map[string]*cachedStmt),
		snaps: make(map[uint64]int),

		closeWait: closeWaitBound,
	}
	db.cat.Store(&catalog{})
	if opts.VFS != nil {
		if opts.Path == "" {
			return nil, fmt.Errorf("sqldb: Options.Path required with a VFS")
		}
		data, err := opts.VFS.ReadFile(opts.Path)
		if err != nil {
			return nil, fmt.Errorf("sqldb: reading WAL: %w", err)
		}
		// Redo ends where the reader stops, and Open then cuts the file
		// there: over a log in another format, that is its first byte.
		if foreignLog(data) {
			return nil, fmt.Errorf("%w: %s", ErrLogFormat, opts.Path)
		}
		// A failed Open leaves no page store open behind it.
		fail := func(err error) (*DB, error) {
			if db.store != nil {
				db.store.close()
			}
			return nil, err
		}
		// The store says which layout it has. Checkpoint meta exists exactly
		// when a checkpoint may have truncated the log, and then the pages
		// hold what the log no longer does: such a store opens paged, or
		// not at all. Without meta the log is whole, and Options.PoolPages
		// chooses.
		meta, err := readPagedMeta(opts.VFS, opts.Path)
		if err != nil {
			return nil, err
		}
		// Redo the log: all of it for a log-only store, the tail above the
		// checkpoint once the page image is loaded for a paged one.
		var marks []walMark
		if meta != nil || opts.PoolPages > 0 {
			poolPages := opts.PoolPages
			if poolPages <= 0 {
				poolPages = defaultPoolPages
			}
			st, err := openPageStore(opts.VFS, opts.Path, meta, opts.PageSize, poolPages)
			if err != nil {
				return nil, err
			}
			db.store = st
			if marks, err = db.recoverPaged(meta, data); err != nil {
				return fail(err)
			}
		} else if marks, err = db.redoLog(data, 0, nil); err != nil {
			return nil, err
		}
		w, err := openWAL(opts.VFS, opts.Path, opts.Sync, db.replApplied.Load(), marks)
		if err != nil {
			return fail(err)
		}
		// Cut the log back to its last committed group boundary — where the
		// reader stopped — before it is appended to again. This removes a
		// crash's torn tail (a partial group, a group failing its CRC): the
		// redo ignored it, but left in place it would strand every future
		// commit behind garbage.
		if int(marks[len(marks)-1].off) < len(data) {
			w.mu.Lock()
			err = w.repairLocked()
			w.mu.Unlock()
			if err != nil {
				w.close()
				return fail(err)
			}
		}
		db.wal = w
	}
	return db, nil
}

// closeWaitBound is how long Close waits for the transactions still open.
const closeWaitBound = 10 * time.Second

// Close shuts the database down. New transactions are refused from the
// first call on, and the open ones are waited for, for closeWaitBound at most:
// past it Close returns an error naming each (id, read-only or not, how
// long it has been open) and leaves the files open, so those
// transactions can still finish; a later Close waits again. Under paged
// storage a final fuzzy checkpoint runs first, so a clean shutdown leaves
// an empty WAL tail and the next open replays nothing.
func (db *DB) Close() error {
	db.shutMu.Lock()
	defer db.shutMu.Unlock()
	if db.shut {
		return nil
	}
	db.liveMu.Lock()
	db.closed.Store(true)
	if db.live != nil && db.drained == nil {
		db.drained = make(chan struct{})
	}
	drained := db.drained
	db.liveMu.Unlock()
	if drained != nil {
		timer := time.NewTimer(db.closeWait)
		select {
		case <-drained:
			timer.Stop()
		case <-timer.C:
			if err := db.openTxError(); err != nil {
				return err
			}
		}
	}
	db.shut = true
	var err error
	if db.store != nil {
		if cerr := db.fuzzyCheckpoint(true); cerr != nil {
			err = cerr
		}
		if serr := db.store.close(); serr != nil && err == nil {
			err = serr
		}
	}
	if db.wal != nil {
		if werr := db.wal.close(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// openTxError is Close's answer when transactions outlast its wait: each
// one still open, the oldest first; nil when the last one has finished.
func (db *DB) openTxError() error {
	db.liveMu.Lock()
	var open []string
	for tx := db.live; tx != nil; tx = tx.next {
		mode := "read-write"
		if tx.readOnly {
			mode = "read-only"
		}
		age := time.Duration(time.Now().UnixNano() - tx.began).Round(time.Millisecond)
		open = append(open, fmt.Sprintf("tx %d (%s, open %v)", tx.id, mode, age))
	}
	db.liveMu.Unlock()
	if len(open) == 0 {
		return nil
	}
	slices.Reverse(open)
	return fmt.Errorf("sqldb: close: %d transactions still open after %v, files left open: %s",
		len(open), db.closeWait, strings.Join(open, ", "))
}

// SetStatsHook installs a hook observing every executed statement.
// Passing nil removes the hook.
func (db *DB) SetStatsHook(h StatsHook) {
	if h == nil {
		db.hook.Store(nil)
		return
	}
	db.hook.Store(&h)
}

// SetNow replaces the clock used by NOW(); simulations inject virtual time.
func (db *DB) SetNow(now func() time.Time) { db.nowFn = now }

// LockStats snapshots the lock manager's contention counters (requests
// granted, requests that blocked, deadlocks, cumulative wait time, and
// currently held table/row locks).
func (db *DB) LockStats() LockStats { return db.locks.stats() }

// WALStats snapshots the write-ahead log's commit-pipeline counters (fsync
// count, group-size histogram, commit wait time). A database without a WAL
// reports zeros.
func (db *DB) WALStats() WALStats {
	if db.wal == nil {
		return WALStats{}
	}
	return db.wal.stats()
}

func (db *DB) emit(s StmtStats) {
	if h := db.hook.Load(); h != nil {
		(*h)(s)
	}
}

// redoLog redoes the node's own log at Open: every committed group above
// ckptLSN (0 unless a page image was loaded, which already holds the
// groups at or below it), in file order, each stamped one tick later than
// the last — the order their locks let them commit in before the crash.
// The GC queue is drained group by group, so with no snapshot to pin
// anything chains stay short and the queue never grows with the log. It
// returns the index of the log's committed prefix, every group it read
// marked, redone or not; the last mark is where the prefix ends, what Open
// repairs the file to before the first append. The first mark's LSN is
// where the file reaches back to: the checkpoint's, or the LSN before the
// file's first group when a checkpoint kept older groups in it, as one
// does while a follower is shipped.
func (db *DB) redoLog(data []byte, ckptLSN uint64, im *redoImage) ([]walMark, error) {
	marks := []walMark{{lsn: ckptLSN}}
	rd := logReader{data: data}
	for rd.next() {
		if rd.start == 0 {
			marks[0].lsn = min(ckptLSN, rd.lsn-1)
		}
		marks = addMark(marks, rd.lsn, int64(rd.end))
		if rd.lsn <= ckptLSN {
			continue
		}
		if err := db.applyGroup(rd.lsn, rd.recs, im); err != nil {
			return nil, fmt.Errorf("sqldb: recovery: %w", err)
		}
		db.runGC(0)
	}
	if err := im.lost(); err != nil {
		return nil, err
	}
	db.RebuildAfterReplication()
	return marks, nil
}

// TxOptions configures BeginTx.
type TxOptions struct {
	// ReadOnly starts a lock-free snapshot transaction (see
	// BeginReadOnly).
	ReadOnly bool
}

// Begin starts an explicit read-write transaction (2PL reads and writes).
func (db *DB) Begin() (*Tx, error) { return db.BeginTx(context.Background(), TxOptions{}) }

// BeginReadOnly starts a read-only transaction: every statement reads the
// consistent snapshot captured here, no locks are taken, and writes are
// rejected with ErrReadOnly. This is the transaction mode behind
// `BEGIN READ ONLY`, driver-level sql.TxOptions{ReadOnly: true}, and
// plain DB.Query calls.
func (db *DB) BeginReadOnly() (*Tx, error) {
	return db.BeginTx(context.Background(), TxOptions{ReadOnly: true})
}

// BeginTx starts a transaction whose statements — including lock waits,
// scans, and the commit's durability wait — observe ctx. Statements run
// with their own context when one is supplied to ExecContext /
// QueryContext; ctx is the fallback (and the bound database/sql applies
// to statements issued without one).
func (db *DB) BeginTx(ctx context.Context, opts TxOptions) (*Tx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, mapCtxErr(err)
	}
	readOnly := opts.ReadOnly
	tx := &Tx{db: db, id: db.nextTx.Add(1), readOnly: readOnly, base: ctx, ctx: ctx, began: time.Now().UnixNano()}
	db.liveMu.Lock()
	if db.closed.Load() {
		db.liveMu.Unlock()
		return nil, fmt.Errorf("sqldb: database is closed")
	}
	if tx.next = db.live; tx.next != nil {
		tx.next.prev = tx
	}
	db.live = tx
	db.liveMu.Unlock()
	if readOnly {
		// Snapshot capture and registration are one critical section with
		// watermark computation, so GC can never sneak past a snapshot that
		// has read the clock but not yet registered.
		db.snapMu.Lock()
		tx.snap = db.clock.Load()
		db.snaps[tx.snap]++
		db.snapMu.Unlock()
	} else {
		tx.snap = db.clock.Load()
	}
	return tx, nil
}

func (db *DB) finishTx(tx *Tx) {
	if tx.readOnly {
		db.snapMu.Lock()
		if n := db.snaps[tx.snap]; n <= 1 {
			delete(db.snaps, tx.snap)
		} else {
			db.snaps[tx.snap] = n - 1
		}
		db.snapMu.Unlock()
	}
	db.liveMu.Lock()
	if tx.prev != nil {
		tx.prev.next = tx.next
	} else {
		db.live = tx.next
	}
	if tx.next != nil {
		tx.next.prev = tx.prev
	}
	tx.prev, tx.next = nil, nil
	if db.live == nil && db.drained != nil {
		close(db.drained)
		db.drained = nil
	}
	db.liveMu.Unlock()
}

// advanceWatermark recomputes the oldest-active-snapshot watermark: the
// smallest registered snapshot timestamp, or the commit clock when no
// read-only transaction is live. The watermark is monotone.
func (db *DB) advanceWatermark() uint64 {
	db.snapMu.Lock()
	wm := db.clock.Load()
	for s, n := range db.snaps {
		if n > 0 && s < wm {
			wm = s
		}
	}
	if wm > db.watermark.Load() {
		db.watermark.Store(wm)
	}
	db.snapMu.Unlock()
	return db.watermark.Load()
}

// stamp makes a committed group visible: under commitMu each version is
// stamped with the next commit timestamp and gcs are queued at it before
// the clock advances to it, so no snapshot observes part of the group. A
// redone group also moves the applied LSN to its lsn (0 for a local
// commit, which moves nothing). On a paged store the group's rows are then
// absorbed into their slots' bases where they may be (absorb): the one
// path both a local commit, whose X locks are still held, and the redo go
// through.
func (db *DB) stamp(versions []stampEntry, gcs []gcRecord, lsn uint64) {
	db.commitMu.Lock()
	ts := db.clock.Load() + 1
	for _, e := range versions {
		e.v.begin.Store(ts)
	}
	db.queueGC(gcs, ts)
	db.clock.Store(ts)
	if lsn > db.replApplied.Load() {
		db.replApplied.Store(lsn)
	}
	db.commitMu.Unlock()
	db.versionsCreated.Add(uint64(len(versions)))
	if db.store != nil {
		db.absorb(versions, ts)
	}
}

// absorb makes the versions of a group stamped at ts their slots' bases
// where that frees nothing (table.absorb): a version that is not a
// tombstone, names a page record and is its row's whole chain over no
// base, once a freshly computed watermark has reached ts. One stamped
// while an older snapshot was live is queued for GC, as a record with
// neither entries nor a tombstone, to be absorbed once that snapshot is
// gone: a row inserted and never written again is reached by no prune.
func (db *DB) absorb(versions []stampEntry, ts uint64) {
	wm := db.advanceWatermark()
	for _, e := range versions {
		if e.tbl.heap == nil || e.v.isTomb() || e.v.loc.pid() == 0 {
			continue
		}
		if e.tbl.absorb(e.rid, e.v, wm) {
			// Queued after commitMu, so it may sit behind a later commit's
			// record; runGC takes the queue's due prefix, so it waits for
			// that one, which is harmless.
			db.gcMu.Lock()
			db.gcQueue = append(db.gcQueue, gcRecord{tableID: e.tbl.tableID, rid: e.rid, ts: ts})
			db.gcMu.Unlock()
		}
	}
}

// queueGC queues recs for reclamation once no snapshot older than ts is
// live. Caller holds commitMu.
func (db *DB) queueGC(recs []gcRecord, ts uint64) {
	if len(recs) == 0 {
		return
	}
	for i := range recs {
		recs[i].ts = ts
	}
	db.gcMu.Lock()
	db.gcQueue = append(db.gcQueue, recs...)
	db.gcMu.Unlock()
}

// gcBatch caps how many deferred-reclamation records one commit-time GC
// sweep processes: the latched pause a committing transaction's goroutine
// pays for reclamation. Vacuum drains regardless.
const gcBatch = 64

// maybeGC runs one bounded reclamation sweep (commit-time piggyback).
func (db *DB) maybeGC() { db.runGC(gcBatch) }

// runGC drains up to budget deferred-reclamation records whose
// superseding commit has passed below the watermark (budget <= 0 means
// all due records). Records are popped in commit order; processing is
// claim-checked, so concurrent sweeps are safe. Returns the number of
// records processed.
func (db *DB) runGC(budget int) int {
	wm := db.advanceWatermark()
	db.gcMu.Lock()
	n := 0
	for n < len(db.gcQueue) && (budget <= 0 || n < budget) && db.gcQueue[n].ts <= wm {
		n++
	}
	recs := make([]gcRecord, n)
	copy(recs, db.gcQueue[:n])
	db.gcQueue = db.gcQueue[:copy(db.gcQueue, db.gcQueue[n:])]
	db.gcMu.Unlock()
	for i := range recs {
		tbl := db.tableByID(uint64(recs[i].tableID))
		if tbl == nil {
			continue // dropped since
		}
		removed, freed := tbl.gcProcess(&recs[i], wm)
		db.entriesRemoved.Add(removed)
		db.slotsReclaimed.Add(freed)
	}
	return len(recs)
}

// Vacuum drains the entire due reclamation queue, returning the number of
// records processed. Old versions pinned by a still-active snapshot stay
// queued.
func (db *DB) Vacuum() int {
	total := 0
	for {
		n := db.runGC(0)
		total += n
		if n == 0 {
			return total
		}
	}
}

// VersionStats snapshots the MVCC machinery's counters: the commit clock,
// the oldest active snapshot (the GC watermark), snapshot-read and
// version-churn counts, and the reclamation backlog.
func (db *DB) VersionStats() VersionStats {
	db.snapMu.Lock()
	active := int64(0)
	oldest := db.clock.Load()
	for s, n := range db.snaps {
		active += int64(n)
		if s < oldest {
			oldest = s
		}
	}
	db.snapMu.Unlock()
	db.gcMu.Lock()
	pending := int64(len(db.gcQueue))
	db.gcMu.Unlock()
	return VersionStats{
		CommitTS:        db.clock.Load(),
		OldestSnapshot:  oldest,
		ActiveSnapshots: active,
		SnapshotReads:   db.snapshotReads.Load(),
		VersionsCreated: db.versionsCreated.Load(),
		VersionsPruned:  db.versionsPruned.Load(),
		SlotsReclaimed:  db.slotsReclaimed.Load(),
		EntriesRemoved:  db.entriesRemoved.Load(),
		PendingGC:       pending,
	}
}

// stmtCacheMax bounds the statement cache; stmtCacheEvict is how many
// entries one overflow sweep reclaims.
const (
	stmtCacheMax   = 4096
	stmtCacheEvict = 64
)

// cachedStmt is one statement-cache entry. used is set on every hit and
// cleared as the clock hand passes, giving hot entries a second chance
// (clock eviction without an access-ordered list). slot is the entry's
// position in DB.stmtClock, maintained under stmtMu.
type cachedStmt struct {
	stmt Statement
	sql  string
	slot int
	used atomic.Bool
}

// parse parses with a statement cache, since the CAS executes the same
// handful of statement shapes millions of times. The cached AST is the
// interned instance for its SQL text — the compiled-plan slot riding on
// SELECT/UPDATE/DELETE nodes (plancache.go) is keyed by it — so parse
// must never hand out two ASTs for one live text. On overflow the cache
// evicts a small batch of entries not referenced since the hand last
// passed — never the whole map, which would throw away the hot CAS
// statements along with the cold ones. A text is cached without the
// white space around it, so a statement and the same text explained
// (EXPLAIN's inner text starts past the keyword) share an entry.
func (db *DB) parse(sql string) (Statement, error) {
	sql = strings.TrimSpace(sql)
	db.stmtMu.RLock()
	c, ok := db.stmts[sql]
	db.stmtMu.RUnlock()
	if ok {
		c.used.Store(true)
		return c.stmt, nil
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	db.stmtMu.Lock()
	if c, ok := db.stmts[sql]; ok {
		// Lost the parse race: another goroutine cached this text while we
		// were parsing. Keep its entry — it is the interned AST — and throw
		// our duplicate away.
		c.used.Store(true)
		db.stmtMu.Unlock()
		return c.stmt, nil
	}
	if len(db.stmts) >= stmtCacheMax {
		db.sweepStmtsLocked()
	}
	e := &cachedStmt{stmt: stmt, sql: sql, slot: len(db.stmtClock)}
	db.stmts[sql] = e
	db.stmtClock = append(db.stmtClock, e)
	db.stmtMu.Unlock()
	return stmt, nil
}

// sweepStmtsLocked reclaims up to stmtCacheEvict entries whose used bit
// is clear, advancing the persistent hand at most one full revolution
// and clearing set bits as it passes. A sweep that finds nothing
// evictable — every entry referenced since the hand last came around —
// evicts nothing: the cache is allowed to overshoot stmtCacheMax by up
// to stmtCacheEvict of slack, during which hits keep re-arming the
// genuinely hot entries while one-shot entries stay clear for the next
// sweep. Only when the slack is exhausted does the sweep reclaim at the
// hand regardless of bits, which rotates the forced victims instead of
// repeatedly sacrificing one arbitrary map-order region.
func (db *DB) sweepStmtsLocked() {
	evicted := 0
	for scanned := len(db.stmtClock); scanned > 0 && evicted < stmtCacheEvict; scanned-- {
		if db.stmtHand >= len(db.stmtClock) {
			db.stmtHand = 0
		}
		e := db.stmtClock[db.stmtHand]
		if e.used.Swap(false) {
			db.stmtHand++ // second chance
			continue
		}
		db.removeStmtLocked(e) // swap-remove: the hand re-examines this slot
		evicted++
	}
	if evicted == 0 && len(db.stmts) >= stmtCacheMax+stmtCacheEvict {
		for evicted < stmtCacheEvict && len(db.stmtClock) > 0 {
			if db.stmtHand >= len(db.stmtClock) {
				db.stmtHand = 0
			}
			db.removeStmtLocked(db.stmtClock[db.stmtHand])
			evicted++
		}
	}
}

// removeStmtLocked deletes e from the cache map and swap-removes it from
// the clock, fixing the moved tail entry's slot index.
func (db *DB) removeStmtLocked(e *cachedStmt) {
	delete(db.stmts, e.sql)
	last := len(db.stmtClock) - 1
	moved := db.stmtClock[last]
	db.stmtClock[e.slot] = moved
	moved.slot = e.slot
	db.stmtClock = db.stmtClock[:last]
}

// Result reports the outcome of a mutating statement.
type Result struct {
	// LastInsertID is the last AUTOINCREMENT value assigned by an INSERT.
	LastInsertID int64
	// RowsAffected counts inserted/updated/deleted rows.
	RowsAffected int64
}

// Rows is a query result and its cursor: Next steps through the rows and
// Col reads a cell of the current one. A result QueryValues hands over is
// lent by its transaction and valid until the transaction ends (scratch.go);
// one Query, QueryContext or QueryRow hands over is materialized and the
// caller's for good.
type Rows struct {
	// Columns names the result columns in order.
	Columns []string
	// Data holds the result rows of a materialized result (Query,
	// QueryContext, QueryRow): the caller's own, nothing else reads or
	// writes them. A result of row images that QueryValues hands over
	// leaves it nil; read such a result with Next and Col.
	Data [][]Value
	pos  int
	drv  driverRows // the database/sql cursor over this result (driver.go)

	// A result whose outputs are all bare columns, as the statement hands
	// it over: per result row, the width images of the rows it read (one
	// per FROM table, noRow for a LEFT JOIN's padded side), and where in
	// them each output column is. An image is immutable, so the result
	// reads what the statement saw whatever becomes of the version or page
	// slot it came from; refs is cut from the transaction's arena and no
	// other result's. Col reads through it; materialize fills Data from
	// it.
	refs  []rowImage
	picks []pick
	width int
}

// released is the cursor position of a result its transaction took back,
// under the race detector: reading it panics.
const released = -1

// release empties a lent result as its transaction ends. Under the race
// detector it is poisoned too, so that a holder past the transaction
// panics on its next read instead of finding the result empty.
func (r *Rows) release() {
	*r = Rows{}
	if raceEnabled {
		r.pos = released
	}
}

// materialize returns the result as Query hands it over, the caller's for
// good: a fresh *Rows whose Data, filled from the row images of a result
// of picks, is fresh slices. Computed rows were allocated for the result
// and pass as they are.
func (r *Rows) materialize() *Rows {
	out := &Rows{Columns: r.Columns, Data: r.Data}
	if n, ncol := r.Len(), len(r.picks); r.picks != nil && n > 0 {
		cells := make([]Value, n*ncol)
		out.Data = make([][]Value, n)
		for i := range out.Data {
			row := cells[i*ncol : (i+1)*ncol : (i+1)*ncol]
			for c, p := range r.picks {
				row[c] = p.of(r.refs[i*r.width : (i+1)*r.width])
			}
			out.Data[i] = row
		}
	}
	return out
}

// own returns the result as the database/sql driver holds it past its
// transaction: a fresh *Rows with its own copy of the array of row images
// (the images themselves are immutable and shared), read through Col as
// the statement handed it over.
func (r *Rows) own() *Rows {
	return &Rows{Columns: r.Columns, Data: r.Data, refs: slices.Clone(r.refs), picks: r.picks, width: r.width}
}

// Next advances the cursor, reporting whether a row is available.
func (r *Rows) Next() bool {
	if r.pos >= r.Len() {
		return false
	}
	r.pos++
	return true
}

// Col reads column c of the current row (after Next). A result of row
// images is read where it lies, through the plan's pick: no row is copied
// and no cell boxed.
func (r *Rows) Col(c int) Value {
	if r.picks != nil {
		return r.picks[c].of(r.refs[(r.pos-1)*r.width : r.pos*r.width])
	}
	return r.Data[r.pos-1][c]
}

// Row returns the current row of a materialized result after Next.
func (r *Rows) Row() []Value { return r.Data[r.pos-1] }

// Len reports the number of rows.
func (r *Rows) Len() int {
	if r.pos == released {
		panic("sqldb: a result read after its transaction ended")
	}
	if r.picks != nil {
		return len(r.refs) / r.width
	}
	return len(r.Data)
}

// Exec runs a mutating statement in autocommit mode.
func (db *DB) Exec(sql string, args ...any) (Result, error) {
	return db.ExecContext(context.Background(), sql, args...)
}

// ExecContext runs a statement in autocommit mode under ctx: lock waits,
// scans, and the commit's durability wait all observe it, and the default
// statement timeout applies when ctx has no deadline.
func (db *DB) ExecContext(ctx context.Context, sql string, args ...any) (Result, error) {
	stmt, err := db.parse(sql)
	if err != nil {
		return Result{}, err
	}
	res, _, err := db.autocommit(ctx, stmt, func(tx *Tx) ([]Value, error) { return tx.toValues(args) }, (*Rows).own)
	return res, err
}

// Query runs a SELECT in autocommit mode. The statement reads a snapshot:
// it takes no locks, never blocks behind writers, and never makes a
// writer wait.
func (db *DB) Query(sql string, args ...any) (*Rows, error) {
	return db.QueryContext(context.Background(), sql, args...)
}

// QueryContext runs a SELECT in autocommit mode under ctx (see
// ExecContext for the deadline semantics).
func (db *DB) QueryContext(ctx context.Context, sql string, args ...any) (*Rows, error) {
	stmt, err := db.parse(sql)
	if err != nil {
		return nil, err
	}
	if !isQuery(stmt) {
		return nil, errNotQuery
	}
	_, rows, err := db.autocommit(ctx, stmt, func(tx *Tx) ([]Value, error) { return tx.toValues(args) }, (*Rows).materialize)
	return rows, err
}

// autocommit runs one statement outside any transaction: the one path
// behind DB.ExecContext, DB.QueryContext and a database/sql connection with
// no transaction open. The statement gets an implicit transaction of its own
// under ctx (default statement timeout applied) — a lock-free snapshot for
// SELECT/EXPLAIN, read-write otherwise — committed if the statement succeeds
// and rolled back if not. bind converts the caller's arguments, in the
// transaction's parameter buffer. The result outlives the transaction, so
// keep turns it into one the caller owns before the commit takes it back:
// Rows.materialize for DB.Query, Rows.own for the driver.
func (db *DB) autocommit(ctx context.Context, stmt Statement, bind func(*Tx) ([]Value, error), keep func(*Rows) *Rows) (Result, *Rows, error) {
	ctx, cancel := db.stmtCtx(ctx)
	defer cancel()
	tx, err := db.BeginTx(ctx, TxOptions{ReadOnly: isQuery(stmt)})
	if err != nil {
		return Result{}, nil, err
	}
	tx.implicit = true
	params, err := bind(tx)
	if err == nil {
		var res Result
		var rows *Rows
		if res, rows, err = tx.execStmtCtx(ctx, stmt, params); err == nil {
			if rows != nil {
				rows = keep(rows)
			}
			return res, rows, tx.Commit()
		}
	}
	tx.Rollback()
	return Result{}, nil, err
}

// isQuery reports whether stmt only reads: the statements Query accepts and
// autocommit runs on a snapshot.
func isQuery(stmt Statement) bool {
	switch stmt.(type) {
	case *SelectStmt, *ExplainStmt:
		return true
	}
	return false
}

var errNotQuery = errors.New("sqldb: Query requires a SELECT or EXPLAIN statement")

// QueryRow runs a SELECT expected to return at most one row; it returns
// nil when no row matched.
func (db *DB) QueryRow(sql string, args ...any) ([]Value, error) {
	return db.QueryRowContext(context.Background(), sql, args...)
}

// QueryRowContext is QueryRow under ctx.
func (db *DB) QueryRowContext(ctx context.Context, sql string, args ...any) ([]Value, error) {
	rows, err := db.QueryContext(ctx, sql, args...)
	if err != nil {
		return nil, err
	}
	if rows.Len() == 0 {
		return nil, nil
	}
	return rows.Data[0], nil
}

// Exec runs a statement inside the transaction under the transaction's
// base context.
func (tx *Tx) Exec(sql string, args ...any) (Result, error) {
	return tx.ExecContext(context.Background(), sql, args...)
}

// ExecContext runs a statement inside the transaction. ctx governs this
// statement's blocking points; when it is not cancellable and carries no
// deadline, the transaction's BeginTx context applies instead.
func (tx *Tx) ExecContext(ctx context.Context, sql string, args ...any) (Result, error) {
	res, _, err := tx.run(ctx, sql, false, func(tx *Tx) ([]Value, error) { return tx.toValues(args) })
	return res, err
}

// ExecValues is ExecContext with arguments that already are engine values,
// as internal/beans binds them from an entity's fields: they are copied
// into the transaction's parameter buffer, never boxed.
func (tx *Tx) ExecValues(ctx context.Context, sql string, args ...Value) (Result, error) {
	res, _, err := tx.run(ctx, sql, false, func(tx *Tx) ([]Value, error) { return tx.copyParams(args), nil })
	return res, err
}

// QueryValues is QueryContext with engine-value arguments (see
// ExecValues), and hands the result over as the statement produced it,
// lent by the transaction: valid until the transaction ends, whatever
// statements it runs meanwhile, and taken back then. A result of row
// images is read through Next and Col where it lies, never materialized
// into Data; a value read out of it stays valid after the transaction.
func (tx *Tx) QueryValues(ctx context.Context, sql string, args ...Value) (*Rows, error) {
	_, rows, err := tx.run(ctx, sql, true, func(tx *Tx) ([]Value, error) { return tx.copyParams(args), nil })
	return rows, err
}

// run parses sql and executes it inside the transaction under ctx (see
// ExecContext), with the arguments bind lays into the transaction's
// parameter buffer; query admits only what Query accepts.
func (tx *Tx) run(ctx context.Context, sql string, query bool, bind func(*Tx) ([]Value, error)) (Result, *Rows, error) {
	if tx.done {
		return Result{}, nil, ErrTxDone
	}
	stmt, err := tx.db.parse(sql)
	if err != nil {
		return Result{}, nil, err
	}
	if query && !isQuery(stmt) {
		return Result{}, nil, errNotQuery
	}
	params, err := bind(tx)
	if err != nil {
		return Result{}, nil, err
	}
	return tx.execStmtCtx(ctx, stmt, params)
}

// Query runs a SELECT inside the transaction under the transaction's
// base context.
func (tx *Tx) Query(sql string, args ...any) (*Rows, error) {
	return tx.QueryContext(context.Background(), sql, args...)
}

// QueryContext runs a SELECT inside the transaction (see ExecContext for
// the context semantics). The result is materialized: the caller's for
// good.
func (tx *Tx) QueryContext(ctx context.Context, sql string, args ...any) (*Rows, error) {
	_, rows, err := tx.run(ctx, sql, true, func(tx *Tx) ([]Value, error) { return tx.toValues(args) })
	if err != nil {
		return nil, err
	}
	return rows.materialize(), nil
}

// QueryRow runs a single-row SELECT inside the transaction; nil when empty.
func (tx *Tx) QueryRow(sql string, args ...any) ([]Value, error) {
	rows, err := tx.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	if rows.Len() == 0 {
		return nil, nil
	}
	return rows.Data[0], nil
}

// execStmtCtx binds the statement's effective context to the transaction
// for the duration of one statement, restores the base afterwards, and
// classifies cancellation outcomes into the engine counters. The default
// statement timeout is applied here when neither the statement nor the
// transaction context carries a deadline, so it bounds transactional
// statements (the service layer's whole workload), not just autocommit
// ones. All statement entry points (Tx methods, autocommit and the
// database/sql driver) funnel through here.
func (tx *Tx) execStmtCtx(ctx context.Context, stmt Statement, params []Value) (Result, *Rows, error) {
	eff, cancel := tx.db.stmtCtx(tx.effCtx(ctx))
	defer cancel()
	tx.ctx = eff
	if err := tx.ctxErr(); err != nil {
		tx.db.noteStmtErr(err)
		tx.ctx = tx.base
		return Result{}, nil, err
	}
	res, rows, err := tx.execStmt(stmt, params)
	if err != nil {
		tx.db.noteStmtErr(err)
	}
	tx.ctx = tx.base
	return res, rows, err
}

// toValues binds a statement's arguments in the scratch's parameter
// buffer: valid until the transaction's next statement.
func (tx *Tx) toValues(args []any) ([]Value, error) {
	vals := tx.bindParams(len(args))
	for i, a := range args {
		v, err := FromGo(a)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// copyParams binds engine-value arguments in the scratch's parameter
// buffer (see toValues).
func (tx *Tx) copyParams(args []Value) []Value {
	params := tx.bindParams(len(args))
	copy(params, args)
	return params
}

// execStmt dispatches a parsed statement.
func (tx *Tx) execStmt(stmt Statement, params []Value) (Result, *Rows, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		rows, err := tx.execSelect(s, params)
		return Result{}, rows, err
	case *ExplainStmt:
		rows, err := tx.execExplain(s)
		return Result{}, rows, err
	case *InsertStmt:
		res, err := tx.execInsert(s, params)
		return res, nil, err
	case *UpdateStmt:
		res, err := tx.execUpdate(s, params)
		return res, nil, err
	case *DeleteStmt:
		res, err := tx.execDelete(s, params)
		return res, nil, err
	case *CreateTableStmt, *CreateIndexStmt, *DropTableStmt, *DropIndexStmt:
		if tx.readOnly {
			return Result{}, nil, ErrReadOnly
		}
		if !tx.implicit {
			return Result{}, nil, fmt.Errorf("sqldb: DDL is not allowed inside an explicit transaction")
		}
		if err := tx.lockTable(nil, lockExclusive); err != nil {
			return Result{}, nil, err
		}
		// Under the catalog's X lock the table a statement names stays put.
		// An index build waits out the table's in-flight writers, so every
		// version it enters is committed (addIndexLocked); a drop waits them
		// out too, so their records precede its own in the log.
		var tbl *table
		mode := lockShared
		switch s := s.(type) {
		case *CreateIndexStmt:
			tbl = tx.db.table(s.Index.Table)
		case *DropTableStmt:
			tbl, mode = tx.db.table(s.Name), lockExclusive
		}
		if tbl != nil {
			if err := tx.lockTable(tbl, mode); err != nil {
				return Result{}, nil, err
			}
		}
		tx.db.mu.Lock()
		err := tx.db.applyDDL(stmt, 0, tx)
		tx.db.mu.Unlock()
		tx.db.emit(StmtStats{Kind: "DDL"})
		return Result{}, nil, err
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return Result{}, nil, fmt.Errorf("sqldb: transaction control runs at the session layer (DB.BeginTx or sql.DB.BeginTx, then Commit/Rollback; the cj2sql shell accepts BEGIN [READ ONLY]/COMMIT/ROLLBACK)")
	default:
		return Result{}, nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
}

// applyDDL mutates the catalog. Caller holds db.mu (or is in recovery).
// id is the table the statement creates or drops, or the one owning its
// index: 0 on the statement path, where CREATE TABLE assigns the next id;
// a logged or checkpointed id otherwise, which CREATE TABLE adopts and
// every other statement must find on the table it names. tx, when non-nil,
// receives WAL records.
func (db *DB) applyDDL(stmt Statement, id uint32, tx *Tx) error {
	switch s := stmt.(type) {
	case *CreateTableStmt:
		name := strings.ToLower(s.Schema.Name)
		if db.table(name) != nil {
			if s.IfNotExists {
				return nil
			}
			return fmt.Errorf("sqldb: table %s already exists", name)
		}
		if id == 0 {
			id = db.nextTableID.Load() + 1
		} else if db.tableByID(uint64(id)) != nil {
			return fmt.Errorf("sqldb: table id %d is already in use", id)
		}
		db.nextTableID.Store(max(db.nextTableID.Load(), id))
		schema := s.Schema
		schema.Name = name
		tbl := newTable(schema, &db.versionsPruned)
		tbl.tableID = id
		if db.store != nil {
			tbl.heap = newPagedHeap(db.store, id)
			tbl.rows.paged = true
		}
		db.publish(tbl, false)
		if tx != nil {
			tx.recordDDL(id, schema.DDL())
		}
		return nil
	case *CreateIndexStmt:
		tbl, err := db.ddlTarget(s.Index.Table, id)
		if err != nil {
			return err
		}
		if tbl.findIndex(s.Index.Name) != nil && s.IfNotExists {
			return nil
		}
		history, err := tbl.addIndexLocked(s.Index)
		if err != nil {
			return err
		}
		// Entries only older snapshots can reach are reclaimed once every
		// snapshot from before the build has ended.
		db.commitMu.Lock()
		db.queueGC(history, db.clock.Load())
		db.commitMu.Unlock()
		if tx != nil {
			tx.recordDDL(tbl.tableID, s.Index.DDL())
		}
		return nil
	case *DropTableStmt:
		if db.table(s.Name) == nil && s.IfExists {
			return nil
		}
		tbl, err := db.ddlTarget(s.Name, id)
		if err != nil {
			return err
		}
		db.publish(tbl, true)
		// Cached plans hold the *table pointer directly; a recreate under
		// the same name builds a fresh table, so the only way stale plans
		// notice the drop is through the dropped table's own epoch.
		tbl.schemaEpoch.Add(1)
		if tbl.heap != nil {
			tbl.heap.drop()
		}
		if tx != nil {
			tx.recordDDL(tbl.tableID, "DROP TABLE "+tbl.schema.Name)
		}
		return nil
	case *DropIndexStmt:
		for _, tbl := range db.cat.Load().byName {
			if (id == 0 || tbl.tableID == id) && tbl.dropIndex(s.Name) {
				if tx != nil {
					tx.recordDDL(tbl.tableID, "DROP INDEX "+s.Name)
				}
				return nil
			}
		}
		if s.IfExists {
			return nil
		}
		return fmt.Errorf("sqldb: no index %s", s.Name)
	default:
		return fmt.Errorf("sqldb: not DDL: %T", stmt)
	}
}

// ddlTarget is the table a DDL statement names, which must be id's when id
// is not 0. Caller holds db.mu.
func (db *DB) ddlTarget(name string, id uint32) (*table, error) {
	tbl, err := db.lookupTable(name)
	if err != nil {
		return nil, err
	}
	if id != 0 && tbl.tableID != id {
		return nil, fmt.Errorf("sqldb: table %s has id %d, not %d", tbl.schema.Name, tbl.tableID, id)
	}
	return tbl, nil
}

// catalog is the set of live tables by name and by permanent id. It is
// immutable: a CREATE or DROP TABLE publishes a new one whole, so a reader
// holds one consistent catalog for as long as it looks.
type catalog struct {
	byName map[string]*table
	byID   map[uint32]*table
}

// publish replaces the catalog with a copy that adds tbl or, with drop,
// leaves it out. Caller holds db.mu.
func (db *DB) publish(tbl *table, drop bool) {
	old := db.cat.Load()
	c := &catalog{byName: make(map[string]*table, len(old.byName)+1), byID: make(map[uint32]*table, len(old.byID)+1)}
	for _, t := range old.byID {
		if t != tbl {
			c.byName[t.schema.Name], c.byID[t.tableID] = t, t
		}
	}
	if !drop {
		c.byName[tbl.schema.Name], c.byID[tbl.tableID] = tbl, tbl
	}
	db.cat.Store(c)
}

// tableByID is the live table with id, or nil: how the redo resolves every
// record, and how a table lock is validated after its grant (lockTable).
func (db *DB) tableByID(id uint64) *table {
	if id > math.MaxUint32 {
		return nil
	}
	return db.cat.Load().byID[uint32(id)]
}

// table is the live table named name, or nil.
func (db *DB) table(name string) *table {
	return db.cat.Load().byName[strings.ToLower(name)]
}

// lookupTable is the live table named name, or the error naming none.
func (db *DB) lookupTable(name string) (*table, error) {
	tbl := db.table(name)
	if tbl == nil {
		return nil, fmt.Errorf("sqldb: no table %s", name)
	}
	return tbl, nil
}

// TableNames lists tables in sorted order (for the SQL shell and tools).
func (db *DB) TableNames() []string {
	return slices.Sorted(maps.Keys(db.cat.Load().byName))
}

// Schema returns a copy of the named table's schema.
func (db *DB) Schema(name string) (TableSchema, bool) {
	tbl := db.table(name)
	if tbl == nil {
		return TableSchema{}, false
	}
	return tbl.schema, true
}

// Checkpoint bounds recovery time on a paged store: one fuzzy checkpoint
// — dirty pages flushed, meta written, WAL truncated through the
// checkpoint LSN — without quiescing writers. A log-only or in-memory
// database has no pages to checkpoint onto: there it does nothing and
// returns nil, and a log-only store's log is never truncated.
func (db *DB) Checkpoint() error { return db.fuzzyCheckpoint(false) }
