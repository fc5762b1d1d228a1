package sqldb

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Writing transactions use strict two-phase locking at two granularities:
// row locks for index-driven access plus intention locks (IS/IX) on the
// owning table, and plain S/X table locks for full scans and DDL. Locks
// are held to commit/rollback. Deadlocks are detected eagerly with a
// waits-for graph; the requesting transaction receives ErrDeadlock and
// should roll back (the paper's "short-running transactions for the most
// common operations" keep conflicts rare). Finer granularity means
// disjoint-row writers — the CAS's concurrent job submits, heartbeats,
// and match updates — no longer serialize on the jobs/machines tables.
//
// Read-only transactions bypass the lock manager entirely: they capture a
// snapshot of the commit clock at Begin and read row versions visible at
// that timestamp (see version.go). Cluster monitoring — the web site, the
// status services, accounting reports — is therefore invisible to the
// submit/heartbeat write mix, and vice versa.

// ErrDeadlock is returned when granting a lock would create a cycle.
var ErrDeadlock = errors.New("sqldb: deadlock detected")

// ErrTxDone is returned when using a committed or rolled-back transaction.
var ErrTxDone = errors.New("sqldb: transaction has already been committed or rolled back")

// ErrReadOnly is returned when a read-only transaction attempts a write.
var ErrReadOnly = errors.New("sqldb: cannot write in a read-only transaction")

// lockMode is the lock strength, ordered so the compatibility matrix below
// can be indexed directly.
type lockMode int

const (
	lockIntentShared    lockMode = iota // IS: row S locks will be taken below
	lockIntentExclusive                 // IX: row X locks will be taken below
	lockShared                          // S: full shared (whole resource)
	lockExclusive                       // X: full exclusive (whole resource)
)

// lockCompat[requested][held] is the standard multi-granularity matrix.
var lockCompat = [4][4]bool{
	lockIntentShared:    {true, true, true, false},
	lockIntentExclusive: {true, true, false, false},
	lockShared:          {true, false, true, false},
	lockExclusive:       {false, false, false, false},
}

// covers reports whether holding mode a already satisfies a request for b.
func covers(a, b lockMode) bool {
	switch a {
	case lockExclusive:
		return true
	case lockShared:
		return b == lockShared || b == lockIntentShared
	case lockIntentExclusive:
		return b == lockIntentExclusive || b == lockIntentShared
	default: // lockIntentShared
		return b == lockIntentShared
	}
}

// mergeMode is the weakest mode covering both held and requested. The one
// incomparable pair, {S, IX}, promotes to X (a dedicated SIX mode is not
// worth its own matrix row for this engine's statement mix).
func mergeMode(a, b lockMode) lockMode {
	if covers(a, b) {
		return a
	}
	if covers(b, a) {
		return b
	}
	return lockExclusive
}

// tableRID is the rid pseudo-value keying a table-granularity lock.
const tableRID int64 = -1

// lockTarget names one lockable resource by numbers alone: a table (rid
// == tableRID), one row of it, or — index not 0 — one hashed key value of
// the table's index numbered index (see keyLockTarget). table is the
// table's permanent id; table 0 is the catalog, which DDL locks.
type lockTarget struct {
	table uint32
	index uint32
	rid   int64
}

type lockRequest struct {
	txn   uint64
	mode  lockMode
	grant chan error
}

// lockHolder is one transaction's granted mode on a resource.
type lockHolder struct {
	txn  uint64
	mode lockMode
}

// resLock is the lock state of one resource (table or row). Holders are a
// small slice, not a map: a row lock has one holder and a table intention
// lock a handful, every grant already walks all of them for compatibility,
// and a slice keeps its backing array when the entry is recycled.
type resLock struct {
	holders []lockHolder
	queue   []*lockRequest
}

// holder reports txn's granted mode on the resource.
func (rl *resLock) holder(txn uint64) (lockMode, bool) {
	for i := range rl.holders {
		if rl.holders[i].txn == txn {
			return rl.holders[i].mode, true
		}
	}
	return 0, false
}

// dropHolder removes txn's grant, reporting whether it had one.
func (rl *resLock) dropHolder(txn uint64) bool {
	for i := range rl.holders {
		if rl.holders[i].txn == txn {
			last := len(rl.holders) - 1
			rl.holders[i] = rl.holders[last]
			rl.holders = rl.holders[:last]
			return true
		}
	}
	return false
}

// lockShards is the number of independently latched lock-table partitions.
// Disjoint-row transactions hash to different shards, so the hot
// grant/release path never funnels through one mutex (the profile showed a
// single global lock-manager mutex costing more than the row locks saved).
const lockShards = 64

// lockFreeMax bounds each shard's freelist of idle resLock entries. A
// transaction's footprint is a few locks per shard at most, so a short
// list absorbs the steady take/release churn; the cap is what keeps a
// one-off burst (a scan that row-locked a whole table) from parking its
// entries on the heap for the life of the process.
const lockFreeMax = 16

// lockShardShrink bounds the targets a shard's map may have held before
// it is remade once it drains: a Go map never gives back the buckets a
// burst grew (a scan that row-locked a whole table), so the drained map is
// dropped instead of kept at its high-water mark. What a shard keeps is
// then at most a 128-target map, about 6 KiB; a scheduler cycle's row
// locks stay under it, so a steady workload does not remake and regrow
// its maps every cycle.
const lockShardShrink = 128

type lockShard struct {
	mu  sync.Mutex
	res map[lockTarget]*resLock
	// peak is the most targets res has held since it was made.
	peak int
	// free holds entries unlinked from res with no holder and no queued
	// request, ready to serve the next new target. Guarded by mu.
	free []*resLock
}

// resource returns the target's entry, linking a recycled or fresh one
// when the target is not in the table. Nothing may hold an entry across
// an unlock of the shard: once unlinked it serves another target, so
// every path re-fetches by target after re-locking.
func (sh *lockShard) resource(t lockTarget) *resLock {
	rl, ok := sh.res[t]
	if !ok {
		if n := len(sh.free); n > 0 {
			rl = sh.free[n-1]
			sh.free[n-1] = nil
			sh.free = sh.free[:n-1]
			if len(rl.holders) != 0 || len(rl.queue) != 0 {
				panic("sqldb: recycled lock entry still has a holder or a queued request")
			}
		} else {
			rl = &resLock{}
		}
		sh.res[t] = rl
		sh.peak = max(sh.peak, len(sh.res))
	}
	return rl
}

// unlinkIfIdle removes the target's entry from the table once nothing
// holds or waits for it — the table stays proportional to contention, its
// map remade when it drains after a burst — and keeps the entry for reuse
// while the freelist has room.
func (sh *lockShard) unlinkIfIdle(t lockTarget, rl *resLock) {
	if len(rl.holders) != 0 || len(rl.queue) != 0 {
		return
	}
	delete(sh.res, t)
	if len(sh.res) == 0 && sh.peak > lockShardShrink {
		sh.res, sh.peak = make(map[lockTarget]*resLock), 0
	}
	if len(sh.free) < lockFreeMax {
		// A drained queue's backing array still points at its old requests;
		// only contended resources ever have one, so drop it rather than
		// let a recycled entry pin them.
		rl.queue = nil
		sh.free = append(sh.free, rl)
	}
}

// LockStats is a snapshot of lock-manager counters.
type LockStats struct {
	// Acquired counts lock requests granted (immediately or after waiting).
	Acquired uint64
	// Waited counts requests that had to block before being granted.
	Waited uint64
	// Deadlocks counts requests aborted by deadlock detection.
	Deadlocks uint64
	// WaitTime is cumulative wall-clock time spent blocked on locks.
	WaitTime time.Duration
	// HeldTable is the number of table-granularity locks currently held.
	HeldTable int64
	// HeldRow is the number of row-granularity locks currently held.
	HeldRow int64
}

// lockManager is the two-granularity lock table. Resource state is sharded
// by target hash; the waits-for graph is global but only touched on the
// slow path (a request that must block), under its own mutex. Lock order is
// always shard.mu → wfMu, and never two shard mutexes at once.
type lockManager struct {
	shards [lockShards]lockShard
	wfMu   sync.Mutex
	// waitsFor[a][b] means txn a waits on txn b.
	waitsFor map[uint64]map[uint64]bool

	// timeout bounds one lock wait (nanoseconds; 0 = wait forever).
	timeout atomic.Int64

	acquired     atomic.Uint64
	waited       atomic.Uint64
	deadlocks    atomic.Uint64
	heldTable    atomic.Int64
	heldRow      atomic.Int64
	waitNanos    atomic.Int64
	lockTimeouts atomic.Uint64
	lockCancels  atomic.Uint64
}

func newLockManager() *lockManager {
	lm := &lockManager{waitsFor: make(map[uint64]map[uint64]bool)}
	for i := range lm.shards {
		lm.shards[i].res = make(map[lockTarget]*resLock)
	}
	return lm
}

// shard picks the partition for a target: its numbers mixed by
// multiplication, the partition read from the top six bits, which every
// input bit reaches — so a hot table's rows, and its tables, spread.
func (lm *lockManager) shard(t lockTarget) *lockShard {
	h := (uint64(t.table)<<32 | uint64(t.index)) ^ uint64(t.rid)*0x9E3779B97F4A7C15
	return &lm.shards[(h*0xBF58476D1CE4E5B9)>>58]
}

// stats snapshots the counters.
func (lm *lockManager) stats() LockStats {
	return LockStats{
		Acquired:  lm.acquired.Load(),
		Waited:    lm.waited.Load(),
		Deadlocks: lm.deadlocks.Load(),
		WaitTime:  time.Duration(lm.waitNanos.Load()),
		HeldTable: lm.heldTable.Load(),
		HeldRow:   lm.heldRow.Load(),
	}
}

// compatible reports whether txn may hold mode given the other holders.
func (rl *resLock) compatible(txn uint64, mode lockMode) bool {
	for _, h := range rl.holders {
		if h.txn != txn && !lockCompat[mode][h.mode] {
			return false
		}
	}
	return true
}

// setHolder grants txn the given mode on target, maintaining the held
// gauges. Caller holds the target's shard mutex.
func (lm *lockManager) setHolder(rl *resLock, target lockTarget, txn uint64, mode lockMode) {
	for i := range rl.holders {
		if rl.holders[i].txn == txn {
			rl.holders[i].mode = mode
			return
		}
	}
	if target.rid == tableRID {
		lm.heldTable.Add(1)
	} else {
		lm.heldRow.Add(1)
	}
	rl.holders = append(rl.holders, lockHolder{txn: txn, mode: mode})
}

// acquire blocks until the lock is granted, a deadlock is detected, the
// wait exceeds the lock-wait timeout, or ctx fires. The transaction's
// footprint is recorded in tx.locked (a Tx is confined to one goroutine,
// so no lock guards it) the first time it touches a resource.
func (lm *lockManager) acquire(ctx context.Context, tx *Tx, target lockTarget, mode lockMode) error {
	txn := tx.id
	sh := lm.shard(target)
	sh.mu.Lock()
	rl := sh.resource(target)
	cur, holding := rl.holder(txn)
	if holding && covers(cur, mode) {
		sh.mu.Unlock()
		return nil // already held at sufficient strength
	}
	want := mode
	if holding {
		want = mergeMode(cur, mode)
	}
	// Immediate grant when compatible — upgrades jump the queue (a txn
	// already holding a lock only waits on the other current holders, never
	// behind queued newcomers), new requests only with an empty queue.
	if rl.compatible(txn, want) && (holding || len(rl.queue) == 0) {
		lm.setHolder(rl, target, txn, want)
		if !holding {
			tx.locked = append(tx.locked, target)
		}
		lm.acquired.Add(1)
		if holding && len(rl.queue) > 0 {
			// The upgrade jumped the queue: waiters that conflict with the
			// strengthened mode are now blocked by this txn too. Their
			// enqueue-time edges cannot know that, so record it now (and
			// abort any waiter whose new edge closes a cycle) — otherwise a
			// later cycle through this grant would go undetected and hang.
			lm.addBlockedEdges(rl, txn, want)
		}
		sh.mu.Unlock()
		return nil
	}
	// Slow path: record wait edges to every conflicting holder and, unless
	// upgrading, to earlier queued requests (they'll be granted first).
	blockers := make(map[uint64]bool)
	for _, h := range rl.holders {
		if h.txn != txn && !lockCompat[want][h.mode] {
			blockers[h.txn] = true
		}
	}
	if !holding {
		for _, q := range rl.queue {
			if q.txn != txn {
				blockers[q.txn] = true
			}
		}
	}
	lm.wfMu.Lock()
	edges := lm.waitsFor[txn]
	if edges == nil {
		edges = make(map[uint64]bool)
		lm.waitsFor[txn] = edges
	}
	for b := range blockers {
		edges[b] = true
	}
	if lm.cycleFrom(txn) {
		for b := range blockers {
			delete(edges, b)
		}
		if len(edges) == 0 {
			delete(lm.waitsFor, txn)
		}
		lm.wfMu.Unlock()
		sh.mu.Unlock()
		lm.deadlocks.Add(1)
		return ErrDeadlock
	}
	lm.wfMu.Unlock()
	req := &lockRequest{txn: txn, mode: want, grant: make(chan error, 1)}
	if holding {
		// Upgrades go to the front so shared holders can't starve them.
		rl.queue = append([]*lockRequest{req}, rl.queue...)
	} else {
		rl.queue = append(rl.queue, req)
		// Track the queued target so releaseAll finds the request on abort.
		tx.locked = append(tx.locked, target)
	}
	lm.waited.Add(1)
	sh.mu.Unlock()
	start := time.Now()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var timeoutCh <-chan time.Time
	if d := time.Duration(lm.timeout.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeoutCh = t.C
	}
	var err error
	select {
	case err = <-req.grant:
	case <-done:
		err = lm.abandonWait(tx, sh, target, req, mapCtxErr(ctx.Err()), &lm.lockCancels)
	case <-timeoutCh:
		err = lm.abandonWait(tx, sh, target, req, ErrLockTimeout, &lm.lockTimeouts)
	}
	lm.waitNanos.Add(int64(time.Since(start)))
	return err
}

// abandonWait retracts a parked lock request after its context fired or
// its timer expired. If the request is still queued it is removed, the
// waiter's waits-for edges are deleted in BOTH directions — its own
// outgoing edges, and the stale inbound edges from requests queued
// behind it (the retracted transaction lives on and may wait again; a
// surviving inbound edge would close phantom deadlock cycles through
// it) — and any waiters unblocked by the departure are granted; counter
// records the retraction and reason is returned. If a grant raced ahead
// of the retraction the request is no longer in the queue — the grant
// outcome is authoritative, so it is consumed and returned instead: on
// success the lock is held (recorded in tx.locked already) and the
// statement surfaces the cancellation at its next checkpoint; a
// deadlock verdict stays a deadlock, uncounted here.
func (lm *lockManager) abandonWait(tx *Tx, sh *lockShard, target lockTarget, req *lockRequest, reason error, counter *atomic.Uint64) error {
	sh.mu.Lock()
	rl := sh.res[target]
	removed := false
	if rl != nil {
		for i, q := range rl.queue {
			if q == req {
				rl.queue = append(rl.queue[:i], rl.queue[i+1:]...)
				removed = true
				break
			}
		}
	}
	if !removed {
		sh.mu.Unlock()
		// The grant (or a deadlock/abort verdict) is already in flight;
		// it decides.
		if err := <-req.grant; err != nil {
			return err
		}
		return nil
	}
	// Remove the waiter's outgoing edges: a Tx blocks on one resource at
	// a time, so its whole waits-for entry belongs to this retracted
	// request. Inbound edges from waiters still queued here are stale
	// too — unless this transaction also holds the resource (a retracted
	// upgrade), in which case they legitimately wait on it as a holder.
	_, stillHolds := rl.holder(tx.id)
	lm.wfMu.Lock()
	delete(lm.waitsFor, tx.id)
	if !stillHolds {
		for _, q := range rl.queue {
			if edges := lm.waitsFor[q.txn]; edges != nil {
				delete(edges, tx.id)
				if len(edges) == 0 {
					delete(lm.waitsFor, q.txn)
				}
			}
		}
	}
	lm.wfMu.Unlock()
	// The departure may unblock requests that were queued behind ours.
	lm.grantQueued(rl, target)
	sh.unlinkIfIdle(target, rl)
	sh.mu.Unlock()
	counter.Add(1)
	return reason
}

// cycleFrom detects whether start can reach itself through waitsFor edges.
// Caller holds wfMu.
func (lm *lockManager) cycleFrom(start uint64) bool {
	seen := make(map[uint64]bool)
	var dfs func(n uint64) bool
	dfs = func(n uint64) bool {
		for m := range lm.waitsFor[n] {
			if m == start {
				return true
			}
			if !seen[m] {
				seen[m] = true
				if dfs(m) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// releaseAll drops every lock held by tx and grants what it can. Work is
// proportional to the transaction's own footprint, not the lock table.
func (lm *lockManager) releaseAll(tx *Tx) {
	txn := tx.id
	lm.wfMu.Lock()
	delete(lm.waitsFor, txn)
	lm.wfMu.Unlock()
	for _, target := range tx.locked {
		sh := lm.shard(target)
		sh.mu.Lock()
		rl := sh.res[target]
		if rl == nil {
			sh.mu.Unlock()
			continue
		}
		if rl.dropHolder(txn) {
			if target.rid == tableRID {
				lm.heldTable.Add(-1)
			} else {
				lm.heldRow.Add(-1)
			}
		}
		// Drop any queued requests from this txn (deadlock abort path).
		kept := rl.queue[:0]
		for _, q := range rl.queue {
			if q.txn == txn {
				q.grant <- fmt.Errorf("sqldb: transaction aborted while waiting")
				continue
			}
			kept = append(kept, q)
		}
		rl.queue = kept
		lm.grantQueued(rl, target)
		sh.unlinkIfIdle(target, rl)
		sh.mu.Unlock()
	}
	tx.locked = reuse(tx.locked)
}

// grantQueued grants queued requests in order while they are compatible.
// Caller holds the target's shard mutex.
func (lm *lockManager) grantQueued(rl *resLock, target lockTarget) {
	for len(rl.queue) > 0 {
		q := rl.queue[0]
		want := q.mode
		if cur, holding := rl.holder(q.txn); holding {
			want = mergeMode(cur, want)
		}
		if !rl.compatible(q.txn, want) {
			return
		}
		rl.queue = rl.queue[1:]
		lm.setHolder(rl, target, q.txn, want)
		lm.acquired.Add(1)
		// The granted txn no longer waits on anyone for this request.
		lm.wfMu.Lock()
		delete(lm.waitsFor, q.txn)
		lm.wfMu.Unlock()
		q.grant <- nil
		// Remaining waiters may conflict with the just-granted mode without
		// an edge (front-queued upgrades postdate their enqueue).
		lm.addBlockedEdges(rl, q.txn, want)
	}
}

// addBlockedEdges records a wait edge to grantee for every queued request
// that conflicts with grantee's newly granted mode, aborting any waiter
// whose new edge closes a deadlock cycle (the waiter is asleep; the grantee
// is running and proceeds). Caller holds the target's shard mutex.
func (lm *lockManager) addBlockedEdges(rl *resLock, grantee uint64, granted lockMode) {
	for i := 0; i < len(rl.queue); {
		q := rl.queue[i]
		if q.txn == grantee || lockCompat[q.mode][granted] {
			i++
			continue
		}
		lm.wfMu.Lock()
		edges := lm.waitsFor[q.txn]
		if edges == nil {
			edges = make(map[uint64]bool)
			lm.waitsFor[q.txn] = edges
		}
		edges[grantee] = true
		cycle := lm.cycleFrom(q.txn)
		if cycle {
			delete(lm.waitsFor, q.txn)
		}
		lm.wfMu.Unlock()
		if cycle {
			rl.queue = append(rl.queue[:i], rl.queue[i+1:]...)
			lm.deadlocks.Add(1)
			q.grant <- ErrDeadlock
			continue
		}
		i++
	}
}

// stampEntry is one version awaiting its commit stamp, with enough
// context (table, rid) for the paged commit path to write the version's
// row through to a heap page first.
type stampEntry struct {
	v   *rowVersion
	tbl *table
	rid int64
}

// Tx is an in-flight transaction. A Tx is not safe for concurrent use by
// multiple goroutines.
type Tx struct {
	db       *DB
	id       uint64
	snap     uint64          // commit clock at Begin (snapshot reads)
	base     context.Context // BeginTx context: bounds the whole transaction
	ctx      context.Context // effective context of the running statement
	readOnly bool            // snapshot reads, writes rejected, no locks taken
	done     bool
	implicit bool         // autocommit wrapper
	redo     []walRecord  // the log records of its writes, read backward on rollback
	locked   []lockTarget // resources this txn holds or queues on
	versions []stampEntry // versions to stamp at commit
	gcPend   []gcRecord   // reclamation work to queue at commit
	// began is when BeginTx ran, in Unix nanoseconds; prev/next link the
	// open transactions (DB.live), so a Close that waits too long can name
	// them.
	began      int64
	prev, next *Tx
	// sc is the working memory the transaction's statements borrow
	// (scratch.go): attached at the first statement, returned in finish.
	// While attached, the four slices above are backed by it.
	sc *txScratch
}

// Snapshot reports the commit timestamp this transaction's snapshot reads
// observe.
func (tx *Tx) Snapshot() uint64 { return tx.snap }

// lockTable takes every table-granularity lock: mode on tbl, or on the
// catalog (table 0) when tbl is nil. A statement finds or plans its tables
// before it locks them, and a DROP TABLE holds the table's X lock to its
// commit, so a grant that comes after a drop committed finds the catalog
// no longer mapping the id to tbl: the statement then fails as if it had
// named no table, and nothing of it reaches the log.
func (tx *Tx) lockTable(tbl *table, mode lockMode) error {
	var id uint32
	if tbl != nil {
		id = tbl.tableID
	}
	if err := tx.db.locks.acquire(tx.ctx, tx, lockTarget{table: id, rid: tableRID}, mode); err != nil {
		return err
	}
	if tbl != nil && tx.db.tableByID(uint64(id)) != tbl {
		return fmt.Errorf("sqldb: no table %s", tbl.schema.Name)
	}
	return nil
}

// lockRow locks one row. The caller must already hold the matching
// intention (or stronger) lock on the table.
func (tx *Tx) lockRow(tbl *table, rid int64, mode lockMode) error {
	return tx.db.locks.acquire(tx.ctx, tx, lockTarget{table: tbl.tableID, rid: rid}, mode)
}

// lockKeys X-locks the unique-key resources a write must hold: every
// enforced key row occupies, or — with newRow — only those entering or
// leaving occupancy when newRow replaces it. They are collected in the
// scratch's buffer — a row has a handful — and taken in sorted order
// (consistent order keeps same-statement acquisitions from deadlocking
// each other).
func (tx *Tx) lockKeys(tbl *table, row, newRow rowImage) error {
	sc := tx.scratch()
	sc.keyTargets = tbl.uniqueKeyTargets(reuse(sc.keyTargets), row, newRow)
	slices.SortFunc(sc.keyTargets, func(a, b lockTarget) int {
		return cmp.Or(cmp.Compare(a.table, b.table), cmp.Compare(a.index, b.index), cmp.Compare(a.rid, b.rid))
	})
	for _, t := range sc.keyTargets {
		if err := tx.db.locks.acquire(tx.ctx, tx, t, lockExclusive); err != nil {
			return err
		}
	}
	return nil
}

// Commit makes the transaction's effects durable and visible: WAL first
// (durability), then the version stamp (visibility). Stamping runs under
// the commit mutex — every created version receives the new commit
// timestamp before the global clock advances to it, so no snapshot can
// observe a half-stamped transaction. The transaction's base context
// (from BeginTx) bounds the group-commit wait.
func (tx *Tx) Commit() error { return tx.CommitContext(tx.base) }

// CommitContext is Commit with an explicit context bounding the
// durability wait. A commit retracted before any log write (the batch
// was still queued when ctx fired) aborts the transaction — its versions
// are popped exactly as Rollback would — and returns the cancellation
// error; once the batch is drained into a flush the wait runs to the
// flush's outcome regardless of ctx, because the commit record may
// already be durable.
func (tx *Tx) CommitContext(ctx context.Context) error {
	if tx.done {
		return ErrTxDone
	}
	db := tx.db
	var err error
	var lsn uint64
	if db.wal != nil && len(tx.redo) > 0 {
		sc := tx.scratch() // a DDL-only transaction attaches it here
		lsn, err = db.wal.commit(ctx, tx.redo, &sc.walBuf)
		if err != nil && IsCancellation(err) {
			// Retracted before any write reached the log: abort cleanly.
			// lsn is 0 here — nothing was registered in-flight.
			db.commitRetractions.Add(1)
			tx.popVersions()
			tx.finish()
			return fmt.Errorf("sqldb: commit: %w", err)
		}
	}
	// The committed rows raise their tables' autoincrement marks, read
	// before the write-through below releases their bytes.
	for _, e := range tx.versions {
		if !e.v.isTomb() {
			e.tbl.raiseAuto(&e.tbl.autoHigh, e.v.data)
		}
	}
	// Paged storage: write each version's row through to its table's heap
	// pages, as a record carrying the group's LSN, before stamping. The
	// transaction still holds its row X locks, so same-rid record LSN order
	// is commit order; the stamp's release/acquire on begin publishes loc to
	// every future reader. This runs even when the WAL sync failed (the
	// engine stamps such commits — the group may be durable).
	db.pageWriteThrough(tx.versions, lsn)
	wrote := len(tx.versions) > 0
	if wrote {
		db.stamp(tx.versions, tx.gcPend, 0)
	}
	tx.finish()
	if db.wal != nil {
		// The commit's effects are applied (or abandoned): release the
		// in-flight registration so checkpoints may pass this LSN.
		db.wal.unregisterInflight(lsn)
	}
	if wrote {
		db.maybeGC()
	}
	if err != nil {
		return fmt.Errorf("sqldb: commit: %w", err)
	}
	return nil
}

// Rollback undoes the transaction's effects by popping its uncommitted
// versions off their chains (newest first). Superseded versions are still
// linked below, so no pre-images are re-applied.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.popVersions()
	tx.finish()
	return nil
}

// finish resolves the transaction, committed or aborted: its locks are
// released, its snapshot unregistered, and — the one place done is set —
// the working memory its statements borrowed goes back to the pool.
func (tx *Tx) finish() {
	tx.done = true
	tx.db.locks.releaseAll(tx)
	tx.db.finishTx(tx)
	tx.releaseScratch()
}

// popVersions reverses the transaction's writes by reading its redo list
// backward (the shared abort path of Rollback and a retracted commit).
func (tx *Tx) popVersions() {
	for i := len(tx.redo) - 1; i >= 0; i-- {
		r := &tx.redo[i]
		if r.op == walDDL {
			continue
		}
		if tbl := tx.db.tableByID(r.tableID); tbl != nil { // nil: dropped since, nothing to restore into
			tbl.rollback(r.op, r.rid, tx.id)
		}
	}
}

// Mutation helpers used by the executor: they perform the table operation
// and record its redo.

// insertRow X-locks the row's unique key values, reserves a heap slot,
// X-locks it, and only then publishes the row. The key locks serialize
// this insert against uncommitted deletes/updates of the same keys (index
// entries persist across versions under MVCC, so the entries themselves
// cannot conflict); the row lock must precede publication so a locked
// index scan that finds the new rid blocks instead of reading the
// uncommitted insert. Snapshot readers need no such care — the
// uncommitted version is unstamped and invisible to them.
func (tx *Tx) insertRow(tbl *table, row rowImage) (int64, error) {
	if err := tx.lockKeys(tbl, row, noRow); err != nil {
		return 0, err
	}
	rid := tbl.allocSlot()
	if err := tx.lockRow(tbl, rid, lockExclusive); err != nil {
		tbl.releaseSlot(rid)
		return 0, err
	}
	_, ver, _, err := tbl.write(rid, row, true, tx.id, tx.db.watermark.Load())
	if err != nil {
		tbl.releaseSlot(rid)
		return 0, err
	}
	tx.versions = append(tx.versions, stampEntry{v: ver, tbl: tbl, rid: rid})
	tx.redo = append(tx.redo, walRecord{op: walInsert, tableID: uint64(tbl.tableID), rid: rid, img: row})
	return rid, nil
}

func (tx *Tx) deleteRow(tbl *table, rid int64) error {
	// X-lock the vacated unique key values first: until this txn commits,
	// an insert reclaiming one of them must block (a rollback would pop the
	// tombstone and the key would be occupied again).
	if cur := tbl.currentRow(rid, tx.id); cur != noRow {
		if err := tx.lockKeys(tbl, cur, noRow); err != nil {
			return err
		}
	}
	tomb, orphans, err := tbl.remove(rid, tx.id, tx.db.watermark.Load())
	if err != nil {
		return err
	}
	tx.versions = append(tx.versions, stampEntry{v: tomb, tbl: tbl, rid: rid})
	tx.gcPend = append(tx.gcPend, gcRecord{tableID: tbl.tableID, rid: rid, tombstone: true, entries: orphans})
	tx.redo = append(tx.redo, walRecord{op: walDelete, tableID: uint64(tbl.tableID), rid: rid})
	return nil
}

func (tx *Tx) updateRow(tbl *table, rid int64, newRow rowImage) error {
	// X-lock unique key values this update vacates or claims, for the same
	// reason deletes do (the vacated key becomes claimable at commit).
	if cur := tbl.currentRow(rid, tx.id); cur != noRow {
		if err := tx.lockKeys(tbl, cur, newRow); err != nil {
			return err
		}
	}
	old, ver, orphans, err := tbl.write(rid, newRow, false, tx.id, tx.db.watermark.Load())
	if err != nil {
		return err
	}
	tx.versions = append(tx.versions, stampEntry{v: ver, tbl: tbl, rid: rid})
	if len(orphans) > 0 {
		tx.gcPend = append(tx.gcPend, gcRecord{tableID: tbl.tableID, rid: rid, entries: orphans})
	}
	tx.redo = append(tx.redo, tx.scratch().updateRecord(tbl.tableID, rid, old, newRow))
	return nil
}

func (tx *Tx) recordDDL(tableID uint32, sql string) {
	tx.redo = append(tx.redo, walRecord{op: walDDL, tableID: uint64(tableID), sql: sql})
}
