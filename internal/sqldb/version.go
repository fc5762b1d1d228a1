package sqldb

import (
	"sync/atomic"
)

// Multi-version storage. Every heap slot holds a chain of row versions,
// newest first. A version is stamped with its creator's commit timestamp
// (from the database's global commit clock) when the creator commits;
// until then begin is 0 and the version is visible only to its creator.
// Deletes push a tombstone version (nil data) instead of vacating the
// slot, and index entries are left in place, so a reader holding an older
// snapshot still finds the row exactly as it stood at its snapshot
// timestamp — without asking the lock manager for anything.
//
// Writers are unchanged: strict 2PL (row X locks under table IX locks,
// unique-key value locks) serializes conflicting writers, and the WAL
// makes them durable before their versions are stamped visible.
//
// Version garbage is reclaimed against the oldest-active-snapshot
// watermark: a version shadowed by a newer committed version at or below
// the watermark can never be seen again. Chains self-prune on the write
// fast path; index entries orphaned by deletes and key-changing updates
// drain through a commit-ordered GC queue (see db.runGC).

// rowVersion is one version of one row: 48 bytes, a Go size class. data
// is the row's image (rowimage.go): an immutable string, so a version is
// never written by an update (which pushes a new version with its own
// image), a rollback (which unlinks the version) or GC (which clips the
// chain), and readers rely on it past the statement: a SELECT's result
// holds the images it read, not copies (Rows.refs), and a value read out
// of one is a view of it — both keep the image alive for as long as the
// caller holds them, whatever happens to the version. loc's tombstone bit
// marks a delete tombstone (no data, ever); it is set when the version is
// made and never changes. begin is the creator's commit timestamp (0
// while uncommitted).
//
// Under paged storage a committed version's row bytes live in a page
// record named by loc, and data is empty: the commit path writes the
// record, hands the image to the page's frame (pageRows), ors the record's
// page and slot into loc and clears data before stamping begin, so the
// release/acquire pair on begin orders the loc publication for every
// snapshot reader (a reader only looks into a version it observed
// stamped, or its own — same goroutine). Readers materialize through
// table.resolve. In the default in-memory mode loc holds at most the
// tombstone bit, its page id stays 0 and data is authoritative. After
// publication the only mutable fields are begin, prev (GC may clip it),
// and the commit path's one-time data/loc handoff described above.
type rowVersion struct {
	data  rowImage
	loc   pageLoc
	txn   uint64 // creating transaction (self-visibility before commit)
	begin atomic.Uint64
	prev  atomic.Pointer[rowVersion]
}

// isTomb reports whether the version is a delete tombstone.
func (v *rowVersion) isTomb() bool { return v.loc.tomb() }

// rowSlot is one heap slot: an atomically replaceable version-chain head,
// held inline in its table's slot chunks (slots) and recycled through the
// table free list after GC empties it.
type rowSlot struct {
	head atomic.Pointer[rowVersion]
}

// visibleVersion returns the version visible to a snapshot taken at ts,
// or nil when none is (never inserted, or inserted later). The returned
// version may be a tombstone — the row was deleted at or before ts.
// Versions are stamped before the commit clock advances, so any version
// with begin == 0 was committed — if at all — after every snapshot that
// could be probing this chain.
func (s *rowSlot) visibleVersion(ts uint64) *rowVersion {
	for v := s.head.Load(); v != nil; v = v.prev.Load() {
		if b := v.begin.Load(); b != 0 && b <= ts {
			return v
		}
	}
	return nil
}

// currentVersion returns the version a 2PL transaction reads: its own
// uncommitted version if it has one, else the newest committed one. The
// returned version may be a tombstone.
func (s *rowSlot) currentVersion(txn uint64) *rowVersion {
	for v := s.head.Load(); v != nil; v = v.prev.Load() {
		if v.begin.Load() != 0 || v.txn == txn {
			return v
		}
	}
	return nil
}

// pruneBelow clips the chain right after the newest committed version
// stamped at or below the watermark: every older version is shadowed by
// it for all current and future snapshots. Safe under the shared latch —
// prev is atomic and concurrent readers that already walked past the clip
// point keep their references alive through ordinary GC. Under paged
// storage the unlinked versions' page records are dead too (no version
// references them, and the surviving newer record — on disk or covered
// by the WAL tail — shadows them at recovery); their locations are
// appended to freed and returned for the caller to erase (table.prune).
func (s *rowSlot) pruneBelow(watermark uint64, freed []pageLoc) (uint64, []pageLoc) {
	var pruned uint64
	for v := s.head.Load(); v != nil; v = v.prev.Load() {
		if b := v.begin.Load(); b != 0 && b <= watermark {
			for old := v.prev.Load(); old != nil; old = old.prev.Load() {
				pruned++
				if old.loc.pid() != 0 {
					freed = append(freed, old.loc)
				}
			}
			if pruned > 0 {
				v.prev.Store(nil)
			}
			return pruned, freed
		}
	}
	return 0, freed
}

// gcEntry names one index entry (full entry key, rid tiebreaker
// included) that became garbage when its version was superseded. index is
// the index's number in its table (index.num).
type gcEntry struct {
	index uint32
	key   string
}

// gcRecord is one unit of deferred reclamation: the index entries
// orphaned by a committed delete or key-changing update of one row, plus
// — for deletes — the heap slot itself. ts is the superseding commit
// timestamp; the record is processed once the oldest active snapshot
// reaches it. Entry removal is claim-checked against the live chain, so
// records may be processed in any order and entries re-claimed by later
// writes (a key changed away and back) are never dropped.
type gcRecord struct {
	tableID   uint32
	tombstone bool
	rid       int64
	ts        uint64
	entries   []gcEntry
}

// VersionStats is a snapshot of the MVCC machinery's counters.
type VersionStats struct {
	// CommitTS is the current value of the global commit clock.
	CommitTS uint64
	// OldestSnapshot is the GC watermark: the oldest snapshot any active
	// read-only transaction holds (== CommitTS when none are active).
	OldestSnapshot uint64
	// ActiveSnapshots is the number of live read-only transactions.
	ActiveSnapshots int64
	// SnapshotReads counts SELECT statements served from a snapshot —
	// statements that touched the lock manager zero times.
	SnapshotReads uint64
	// VersionsCreated counts row versions stamped by committed writers.
	VersionsCreated uint64
	// VersionsPruned counts shadowed versions unlinked from chains.
	VersionsPruned uint64
	// SlotsReclaimed counts tombstoned heap slots returned to free lists.
	SlotsReclaimed uint64
	// EntriesRemoved counts garbage index entries deleted by GC.
	EntriesRemoved uint64
	// PendingGC is the current depth of the deferred-reclamation queue.
	PendingGC int64
}
