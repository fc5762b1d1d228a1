package sqldb

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Replication treats the WAL as the replication stream (the paper's
// thesis — cluster state is just data — extended to availability: the
// schedd's failover story is a database failover story). A leader's
// committed groups are addressable by the LSN on their commit markers;
// CommittedSince cuts a run — the bytes of whole groups, exactly as they
// lie in the log file — reading the file itself, from the sparse index's
// last (LSN, offset) mark at or below the caller's LSN, and
// ApplyCommitted replays a run on a follower, re-stamping every version
// through the follower's own MVCC commit clock so its snapshot readers
// are always transactionally consistent — a group is invisible until the
// instant its stamp publishes, exactly like a local commit. A group's LSN
// is stated once, in its commit marker.
//
// Apply is idempotent by LSN (a group at or below the applied horizon is
// skipped), which is what makes shipping safe to retry over a lossy link
// with duplicating middleware. The groups applied are appended verbatim
// to the follower's own log before they become visible, so the applied
// LSN is durable: after a restart the follower resumes shipping from
// exactly where its log ends.

// ErrNoWAL reports a replication call on a database without a log.
var ErrNoWAL = fmt.Errorf("sqldb: replication requires a WAL-backed database")

// ErrLogTruncated reports a CommittedSince from an LSN a checkpoint has
// already cut out of the log: what remains would ship with a hole, so the
// follower that far behind must be re-seeded instead.
var ErrLogTruncated = errors.New("sqldb: replication: the log no longer reaches back that far")

// ReplicationTap notifies a shipping loop that new committed groups are
// available. The channel carries no data — consume it, then drain new
// groups with CommittedSince.
type ReplicationTap struct {
	w  *wal
	ch chan struct{}
}

// Notify returns the tap's signal channel. It has a one-slot buffer:
// notifications coalesce rather than queue.
func (t *ReplicationTap) Notify() <-chan struct{} { return t.ch }

// Close unregisters the tap.
func (t *ReplicationTap) Close() {
	t.w.tapMu.Lock()
	delete(t.w.taps, t)
	t.w.tapMu.Unlock()
}

// ReplicationTap registers a tap signaled after every durable commit.
func (db *DB) ReplicationTap() (*ReplicationTap, error) {
	if db.wal == nil {
		return nil, ErrNoWAL
	}
	w := db.wal
	t := &ReplicationTap{w: w, ch: make(chan struct{}, 1)}
	w.tapMu.Lock()
	if w.taps == nil {
		w.taps = make(map[*ReplicationTap]struct{})
	}
	w.taps[t] = struct{}{}
	w.tapMu.Unlock()
	return t, nil
}

// DurableLSN is the newest log sequence number whose commit group has
// reached stable storage (0 for a database without a WAL).
func (db *DB) DurableLSN() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.durableLSN.Load()
}

// AppliedLSN is the newest LSN this node has applied — through
// ApplyCommitted, or recovered from its own log at open.
func (db *DB) AppliedLSN() uint64 { return db.replApplied.Load() }

// CommittedSince returns the run of whole committed groups with afterLSN
// < LSN ≤ durable, plus the durable LSN: the groups' log bytes as they lie
// in the file, in log order. maxBytes caps the run (0 = unlimited; it
// always holds at least one group when any qualifies). The run is cut from
// one read of the log file, from the indexed mark at or below afterLSN;
// the file is read through VFS.OpenRandom.
func (db *DB) CommittedSince(afterLSN uint64, maxBytes int) ([]byte, uint64, error) {
	if db.wal == nil {
		return nil, 0, ErrNoWAL
	}
	return db.wal.committedSince(afterLSN, maxBytes)
}

// notifyTaps signals every registered tap that more of the log is durable.
func (w *wal) notifyTaps() {
	w.tapMu.Lock()
	defer w.tapMu.Unlock()
	for t := range w.taps {
		select {
		case t.ch <- struct{}{}:
		default:
		}
	}
}

func (w *wal) committedSince(afterLSN uint64, maxBytes int) ([]byte, uint64, error) {
	durable := w.durableLSN.Load()
	if afterLSN >= durable {
		return nil, durable, nil
	}
	// The marks and the file are taken together under idxMu, which every
	// swap of the file renames under: the handle keeps reading the file it
	// opened, whatever is renamed over its name later, and these are that
	// file's marks. Appends only extend the file, and every byte at or
	// below the durable LSN was marked before that LSN was published.
	w.idxMu.Lock()
	// truncateThrough publishes its cut before it swaps the file, so a
	// read that would meet the cut file is refused here.
	if trunc := w.truncLSN.Load(); afterLSN < trunc {
		w.idxMu.Unlock()
		return nil, durable, fmt.Errorf("%w (asked after LSN %d, checkpointed through %d)", ErrLogTruncated, afterLSN, trunc)
	}
	// The first mark above afterLSN ends a group above it, so the first
	// group to ship ends by that mark: with maxBytes set, nothing past the
	// mark plus maxBytes ships.
	i := sort.Search(len(w.marks), func(i int) bool { return w.marks[i].lsn > afterLSN })
	from, end := w.marks[max(i-1, 0)].off, w.marks[len(w.marks)-1].off
	to := end
	if maxBytes > 0 && i < len(w.marks) {
		to = min(end, w.marks[i].off+int64(maxBytes))
	}
	f, err := w.vfs.OpenRandom(w.name)
	w.idxMu.Unlock()
	if err != nil {
		return nil, durable, fmt.Errorf("sqldb: replication read: %w", err)
	}
	defer f.Close()
	data := make([]byte, to-from)
	if n, err := f.ReadAt(data, from); n < len(data) {
		return nil, durable, fmt.Errorf("sqldb: replication read: %d of %d bytes at offset %d: %w", n, len(data), from, err)
	}
	run, last := cutRun(data, afterLSN, maxBytes, durable)
	if len(run) > 0 {
		w.noteServed(last)
	}
	return run, durable, nil
}

func (w *wal) noteServed(lsn uint64) {
	for {
		cur := w.servedLSN.Load()
		if lsn <= cur || w.servedLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// cutRun cuts the run of whole committed groups with afterLSN < LSN <=
// durable out of raw log bytes, honoring maxBytes (always at least one
// qualifying group), and reports the LSN of its last group. Groups lie in
// LSN order, so the run is one view of data.
func cutRun(data []byte, afterLSN uint64, maxBytes int, durable uint64) (run []byte, last uint64) {
	start := -1
	for rd := (logReader{data: data}); rd.next() && rd.lsn <= durable; {
		if rd.lsn <= afterLSN {
			continue
		}
		if start < 0 {
			start = rd.start
		} else if maxBytes > 0 && rd.end-start > maxBytes {
			break
		}
		run, last = data[start:rd.end:rd.end], rd.lsn
	}
	return run, last
}

// appendRaw appends a verbatim leader-sealed run, validated by
// ApplyCommitted and ending in the group at LSN last, to the follower's
// log through the log's one write, and advances the LSN horizon to last.
// A torn append may have landed whole groups before its tear, which the
// repair keeps: so only the groups above the log's last whole group are
// written, or a retried run would put those groups in the log twice.
func (w *wal) appendRaw(run []byte, last uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dirty {
		if err := w.repairLocked(); err != nil {
			return err
		}
	}
	logged := w.marks[len(w.marks)-1].lsn
	from := 0
	for rd := (logReader{data: run}); rd.next() && rd.lsn <= logged; {
		from = rd.end
	}
	last = max(last, logged)
	if _, err := w.appendLocked(run[from:], last); err != nil {
		return err
	}
	w.nextLSN = max(w.nextLSN, last)
	return nil
}

// ApplyCommitted applies a run of committed groups shipped from a leader:
// read and check the whole run, append the groups it applies to this
// node's own log with one sync (durability first — the applied LSN must
// survive a restart), then redo each group in order. A run is whole groups
// in strictly rising LSN order, gaps allowed. It is idempotent: groups at
// or below the applied horizon, which can only lead a run, are skipped,
// which is what makes shipping safe to retry. Anything else — a torn or
// garbage tail, a group whose LSN does not exceed the one before it —
// refuses the whole run before any of it reaches the log.
func (db *DB) ApplyCommitted(run []byte) error {
	applied := db.replApplied.Load()
	var lsns []uint64
	var groups [][]walRecord
	from, skipped, prev := 0, 0, uint64(0)
	rd := logReader{data: run}
	for rd.next() {
		if rd.start > 0 && rd.lsn <= prev {
			db.replApplyErrors.Add(1)
			return fmt.Errorf("sqldb: follower apply: group at lsn %d follows lsn %d in a shipped run", rd.lsn, prev)
		}
		prev = rd.lsn
		if rd.lsn <= applied {
			from, skipped = rd.end, skipped+1
			continue
		}
		lsns, groups = append(lsns, rd.lsn), append(groups, rd.recs)
		rd.recs = nil // the group keeps its records; the next is read into its own
	}
	if rd.end != len(run) {
		// A group the reader rejects must never reach this node's log,
		// where every later Open would meet it.
		db.replApplyErrors.Add(1)
		return fmt.Errorf("sqldb: follower apply: %d bytes of a %d-byte run after lsn %d are not whole committed groups", len(run)-rd.end, len(run), prev)
	}
	db.replBatchesSkipped.Add(uint64(skipped))
	if len(groups) == 0 {
		return nil
	}
	if err := db.checkRun(groups); err != nil {
		db.replApplyErrors.Add(1)
		return fmt.Errorf("sqldb: follower apply: %w", err)
	}
	if db.wal != nil {
		// Register every LSN as in-flight BEFORE appendRaw advances the
		// durable LSN: a fuzzy checkpoint must not pass an LSN that is
		// durable in the log but not yet applied to pages.
		for _, lsn := range lsns {
			db.wal.registerInflight(lsn)
		}
		if err := db.wal.appendRaw(run[from:], prev); err != nil {
			db.replApplyErrors.Add(1)
			return fmt.Errorf("sqldb: follower apply: %w", err)
		}
	}
	for i, lsn := range lsns {
		if err := db.applyGroup(lsn, groups[i], false); err != nil {
			// Leave the failed group (and any after it) registered: a
			// checkpoint wedging below an unapplied durable LSN is safe;
			// truncating its records away would not be.
			db.replApplyErrors.Add(1)
			return fmt.Errorf("sqldb: follower apply: %w", err)
		}
		if db.wal != nil {
			db.wal.unregisterInflight(lsn)
		}
		db.replBatchesApplied.Add(1)
		db.replRecordsApplied.Add(uint64(len(groups[i])))
	}
	db.maybeGC()
	return nil
}

// checkRun holds a run of shipped groups to the strict redo's rowRule
// before any of it reaches this node's log, in the state the records ahead
// of it in the run leave, and every table id must name a live table. A
// group the redo would refuse is then refused whole, not appended for
// every later Open to meet. Every DDL record must carry an id a table can
// have and parse to a statement applyDDL applies; what it does to the
// catalog is applyDDL's to say, so the first one ends the row checks, and
// past it the redo's own checks, after the append, are what stand.
func (db *DB) checkRun(groups [][]walRecord) error {
	type slot struct {
		tbl *table
		rid int64
	}
	var live map[slot]bool
	ddl := false
	for _, recs := range groups {
		for i := range recs {
			r := &recs[i]
			if r.op == walDDL {
				if _, err := ddlID(r); err != nil {
					return err
				}
				stmt, err := Parse(r.sql)
				if err != nil {
					return fmt.Errorf("bad DDL %q: %w", r.sql, err)
				}
				switch stmt.(type) {
				case *CreateTableStmt, *CreateIndexStmt, *DropTableStmt, *DropIndexStmt:
				default:
					return fmt.Errorf("DDL record %q is not a catalog change", r.sql)
				}
				ddl = true
				continue
			}
			if ddl {
				continue
			}
			tbl, err := db.redoTable(r.tableID, false)
			if err != nil {
				return err
			}
			k := slot{tbl, r.rid}
			was, seen := live[k]
			if !seen {
				was = tbl.isLive(r.rid)
			}
			if _, err := rowRule(r.op, was, false); err != nil {
				return tbl.refused(err, r.rid)
			}
			if live == nil {
				live = make(map[slot]bool)
			}
			live[k] = r.op != walDelete
		}
	}
	return nil
}

// applyGroup is the redo: the one place a logged group becomes heap rows,
// version chains and index entries. Recovery feeds it the groups of the
// node's own log, ApplyCommitted the groups a leader shipped. Records land
// through the write and remove a transaction's statements use (with
// transaction id 0) as unstamped versions, then — under the commit mutex,
// exactly like a local commit — all are stamped with the next commit
// timestamp and the clock advances, so a concurrent snapshot reader sees
// either none or all of the group, never a half-applied prefix. DDL
// records go through applyDDL, which bumps the affected tables' schema
// epochs — cached plans are invalidated by redone CREATE/DROP INDEX/TABLE
// exactly as they are by local DDL (plancache.go).
//
// mayContain says the state being applied onto may already hold some of
// the group's effects. That is true of exactly one input — a log tail redone
// over a page image, because a fuzzy checkpoint also flushes pages dirtied
// by commits above its LSN — and there every record converges (rowRule): an
// insert onto a live row is an upsert; an update or a delete of a missing
// row, a record of a table a DROP removed (redoTable) and DDL whose effect
// is present are no-ops. Everywhere else (a log-only recovery, a follower)
// the log is the whole history and those same situations are errors.
//
// An update logs only the columns it changed, so it cannot upsert; why
// skipping it is right: a delta is a set of blind column writes, so
// replaying deltas in log order over any image at or after the checkpoint
// leaves each column with its last logged write — the right value. At redo
// time a row can be missing from such an image only if a later logged
// delete removed it: a row inserted before the checkpoint is in every
// state from the checkpoint on until it is deleted, and if the row's insert
// came after the checkpoint, that insert is earlier in the log than the
// update and recreates the row first. Whatever the skipped update would
// have written, that delete removes. Neither page LSNs nor full row images
// after the checkpoint are needed.
func (db *DB) applyGroup(lsn uint64, recs []walRecord, mayContain bool) error {
	var versions []stampEntry
	var gcs []gcRecord
	wm := db.watermark.Load()
	for i := range recs {
		r := &recs[i]
		var tbl *table
		var v *rowVersion
		var orphaned []gcEntry
		var err error
		switch r.op {
		case walDDL:
			var stmt Statement
			if stmt, err = Parse(r.sql); err != nil {
				return fmt.Errorf("bad DDL %q at lsn %d: %w", r.sql, lsn, err)
			}
			db.mu.Lock()
			err = db.redoDDL(r, stmt, mayContain)
			db.mu.Unlock()
		case walInsert, walUpdate:
			if tbl, err = db.redoTable(r.tableID, mayContain); tbl != nil {
				v, orphaned, err = tbl.applyWrite(r, wm, mayContain)
			}
		case walDelete:
			if tbl, err = db.redoTable(r.tableID, mayContain); tbl != nil {
				v, orphaned, err = tbl.remove(r.rid, 0, wm, mayContain)
			}
		default:
			err = fmt.Errorf("unexpected record op %d at lsn %d", r.op, lsn)
		}
		if err != nil {
			return err
		}
		if v == nil {
			continue // DDL, a dropped table's record, or an update or delete of a row the image no longer holds
		}
		versions = append(versions, stampEntry{v: v, tbl: tbl, rid: r.rid})
		if v.isTomb() || len(orphaned) > 0 {
			gcs = append(gcs, gcRecord{tableID: tbl.tableID, rid: r.rid, tombstone: v.isTomb(), entries: orphaned})
		}
	}
	// Paged storage: write the group's versions through to heap pages
	// before stamping (same ordering argument as the leader commit path;
	// groups apply in LSN order, so same-rid records land in commit order).
	db.pageWriteThrough(versions)
	db.stamp(versions, gcs, lsn)
	return nil
}

// redoTable resolves the table id of a logged insert, update or delete.
// Under mayContain an id assigned before but gone names a table a DROP
// removed — in the image, or further down the tail — so the record is
// skipped (nil, nil); everywhere else the log names only live tables.
func (db *DB) redoTable(id uint64, mayContain bool) (*table, error) {
	if tbl := db.tableByID(id); tbl != nil {
		return tbl, nil
	}
	if mayContain && id != 0 && id <= uint64(db.nextTableID.Load()) {
		return nil, nil
	}
	return nil, fmt.Errorf("sqldb: no table with id %d", id)
}

// ddlID is a DDL record's table id, refused when no table can have it.
func ddlID(r *walRecord) (uint32, error) {
	if r.tableID == 0 || r.tableID > math.MaxUint32 {
		return 0, fmt.Errorf("sqldb: DDL record %q names table id %d", r.sql, r.tableID)
	}
	return uint32(r.tableID), nil
}

// redoDDL applies a logged DDL record, stmt parsed from its text. Caller
// holds db.mu. The record's table id, never the statement's names, says
// what is present. Strictly, a CREATE TABLE must bring an id never
// assigned — ids are assigned in log order — and every statement applies
// as logged. Under mayContain a statement whose effect is present is
// skipped: the tail overlaps the checkpoint (DDL mutates the catalog before
// its commit record lands, so a checkpoint between the two snapshots the
// new schema while the record survives truncation). There a CREATE TABLE
// whose id was assigned before has made its table (which may since be
// dropped), and a statement on a table id that is gone has nothing to act
// on.
func (db *DB) redoDDL(r *walRecord, stmt Statement, mayContain bool) error {
	id, err := ddlID(r)
	if err != nil {
		return err
	}
	tbl := db.tableByID(uint64(id))
	switch s := stmt.(type) {
	case *CreateTableStmt:
		if id <= db.nextTableID.Load() {
			if mayContain {
				return nil
			}
			return fmt.Errorf("sqldb: CREATE TABLE reuses table id %d", id)
		}
	case *CreateIndexStmt:
		if mayContain && (tbl == nil || tbl.findIndex(s.Index.Name) != nil) {
			return nil
		}
	case *DropTableStmt:
		if mayContain && tbl == nil {
			return nil
		}
	case *DropIndexStmt:
		if mayContain && (tbl == nil || tbl.findIndex(s.Name) == nil) {
			return nil
		}
	}
	return db.applyDDL(stmt, id, nil)
}

// RebuildAfterReplication ends a redo — recovery at Open, a follower's
// apply stream at promotion — by making the engine fit to allocate again:
// the reclamation queue is drained as far as live snapshots allow (so
// tombstoned slots are free), then every table flattens its chains and
// rebuilds its free list from the heap. The redo itself leaves the free
// lists alone, since a replaying node allocates no slot.
func (db *DB) RebuildAfterReplication() {
	db.Vacuum()
	wm := db.watermark.Load()
	for _, tbl := range db.cat.Load().byID {
		tbl.rebuildAfterReplay(wm)
	}
}

// ReplStats snapshots the engine-level replication counters. Shipped-side
// numbers describe this node as a leader (runs served to followers);
// applied-side numbers describe it as a follower.
type ReplStats struct {
	// DurableLSN is the newest LSN stable in this node's own log.
	DurableLSN uint64
	// ServedLSN is the newest LSN handed to a CommittedSince caller.
	ServedLSN uint64
	// AppliedLSN is the newest LSN applied through ApplyCommitted (or
	// recovered from the node's own log).
	AppliedLSN uint64
	// BatchesApplied / RecordsApplied count follower-apply work: the
	// groups redone and their records.
	BatchesApplied uint64
	RecordsApplied uint64
	// BatchesSkipped counts re-delivered groups dropped by LSN.
	BatchesSkipped uint64
	// ApplyErrors counts runs rejected by validation or apply.
	ApplyErrors uint64
}

// ReplStats snapshots the replication counters.
func (db *DB) ReplStats() ReplStats {
	s := ReplStats{
		AppliedLSN:     db.replApplied.Load(),
		BatchesApplied: db.replBatchesApplied.Load(),
		RecordsApplied: db.replRecordsApplied.Load(),
		BatchesSkipped: db.replBatchesSkipped.Load(),
		ApplyErrors:    db.replApplyErrors.Load(),
	}
	if db.wal != nil {
		s.DurableLSN = db.wal.durableLSN.Load()
		s.ServedLSN = db.wal.servedLSN.Load()
	}
	return s
}
