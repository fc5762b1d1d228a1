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
//
// A paged table's slot also has a base: the page record of the row every
// present and future snapshot sees, so the version that wrote it is no
// longer needed. The chain sits above the base and holds only what some
// snapshot may not see yet, or what a prune has not reached: a version
// becomes the base when it is committed at or below the watermark, is not
// a tombstone and names a page record. That happens in two places. At its
// commit (DB.absorb), a version that is its row's whole chain over no
// base becomes the base when the watermark has reached its stamp; one
// stamped while an older snapshot was live is queued for GC to absorb
// once the snapshot is gone. And every prune (rowSlot.pruneBelow) makes
// the newest committed version at or below the watermark the base and
// frees everything below it, the old base included. A commit absorbs only
// a version whose absorption frees nothing, so a record is erased at the
// same moment with bases as it would be without — by a prune, never by a
// commit — and an updated row keeps its newest version until its next
// write or GC. A row recovered from the
// pages is a base alone (table.pagedPlace), with no version object.
// Either way the base is stored before the version is unlinked, and a
// reader that walks off the chain's end loads the base after the link
// that ended it: it finds the version or its base, never neither.

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
// and the commit path's one-time data/loc handoff described above. A
// version absorbed into its slot's base is unlinked whole; its loc is the
// base from then on, so a reader still holding the version reads the same
// record.
type rowVersion struct {
	data  rowImage
	loc   pageLoc
	txn   uint64 // creating transaction (self-visibility before commit)
	begin atomic.Uint64
	prev  atomic.Pointer[rowVersion]
}

// isTomb reports whether the version is a delete tombstone.
func (v *rowVersion) isTomb() bool { return v.loc.tomb() }

// chainHead is a heap slot's version chain as its table's slot chunks hold
// it, inline: an atomically replaceable head, 8 bytes. The slot is
// recycled through the table free list after GC empties it.
type chainHead struct {
	head atomic.Pointer[rowVersion]
}

// baseLoc is a paged heap slot's base, inline in its table's base chunks:
// the location of the page record below the chain (pageLoc; 0 for none,
// never a tombstone). Only a table with pages has base chunks, so a slot
// of one without costs its chain head alone.
type baseLoc struct {
	w atomic.Uint64
}

// rowSlot is one row's heap slot: its chain head and, in a paged table,
// its base (nil in a table without pages, which reads as no base). Both
// live in chunks that never move, so a rowSlot stays valid past the latch
// it was found under.
type rowSlot struct {
	*chainHead
	base *baseLoc
}

// loadBase is the slot's base, 0 for none.
func (s rowSlot) loadBase() pageLoc {
	if s.base == nil {
		return 0
	}
	return pageLoc(s.base.w.Load())
}

// storeBase makes loc the slot's base (0: none). Only a paged table's slot
// has a base to store.
func (s rowSlot) storeBase(loc pageLoc) { s.base.w.Store(uint64(loc)) }

// visibleVersion returns what a snapshot taken at ts sees: the version
// visible to it, or — when the walk leaves the chain without one — nil and
// the slot's base, which every snapshot sees (0: never inserted, or
// inserted later). The returned version may be a tombstone — the row was
// deleted at or before ts. Versions are stamped before the commit clock
// advances, so any version with begin == 0 was committed — if at all —
// after every snapshot that could be probing this chain.
func (s rowSlot) visibleVersion(ts uint64) (*rowVersion, pageLoc) {
	for v := s.head.Load(); v != nil; v = v.prev.Load() {
		if b := v.begin.Load(); b != 0 && b <= ts {
			return v, 0
		}
	}
	return nil, s.loadBase()
}

// currentVersion returns what a 2PL transaction reads: its own
// uncommitted version if it has one, else the newest committed one, else
// (nil and) the slot's base. The returned version may be a tombstone.
func (s rowSlot) currentVersion(txn uint64) (*rowVersion, pageLoc) {
	for v := s.head.Load(); v != nil; v = v.prev.Load() {
		if v.begin.Load() != 0 || v.txn == txn {
			return v, 0
		}
	}
	return nil, s.loadBase()
}

// newest returns the slot's newest row, committed or not: its head
// version, or with an empty chain its base.
func (s rowSlot) newest() (*rowVersion, pageLoc) {
	if v := s.head.Load(); v != nil {
		return v, 0
	}
	return nil, s.loadBase()
}

// holdsRow reports whether what a read of a slot found — a version, or nil
// and the base — is a row.
func holdsRow(v *rowVersion, base pageLoc) bool {
	if v != nil {
		return !v.isTomb()
	}
	return base != 0
}

// absorbable reports whether v may become its slot's base: it is
// committed at or below the watermark, not a tombstone, and names a page
// record (a version whose write-through failed, or whose table was dropped
// mid-commit, names none).
func (s rowSlot) absorbable(v *rowVersion, watermark uint64) bool {
	b := v.begin.Load()
	return s.base != nil && b != 0 && b <= watermark && !v.isTomb() && v.loc.pid() != 0
}

// sole reports whether v is the slot's whole chain, over no base.
func (s rowSlot) sole(v *rowVersion) bool {
	return s.head.Load() == v && v.prev.Load() == nil && s.loadBase() == 0
}

// absorbSole makes v the slot's base when v is the slot's whole chain,
// over no base, and absorbable: the one absorption that frees nothing.
// It reports whether it did. The caller excludes every other writer of
// the slot (the row's X lock under the shared latch, or the exclusive
// latch).
func (s rowSlot) absorbSole(v *rowVersion, watermark uint64) bool {
	if !s.sole(v) || !s.absorbable(v, watermark) {
		return false
	}
	s.storeBase(v.loc)
	s.head.Store(nil)
	return true
}

// pruneBelow clips the chain right after the newest committed version
// stamped at or below the watermark: every older version, and the base,
// is shadowed by it for all current and future snapshots. That version
// becomes the base itself when it is absorbable, unlinked from the chain
// after the base is stored; otherwise (a tombstone, or a version with no
// page record) it stays, with no base below it. Safe under the shared
// latch — links are atomic and concurrent readers that already walked
// past the clip point keep their references alive through ordinary GC.
// Under paged storage the unlinked versions' page records, and the old
// base's, are dead too (nothing references them, and the surviving newer
// record shadows them at recovery once its page is on disk: an update
// logs a delta, so a crash image with the erasure and without the
// survivor has lost the row, and Open refuses it with ErrLostRow); their
// locations are appended to freed and returned for the caller to erase
// (table.prune). pruned counts them, the base as one
// version.
func (s rowSlot) pruneBelow(watermark uint64, freed []pageLoc) (uint64, []pageLoc) {
	link := &s.head
	for v := link.Load(); v != nil; link, v = &v.prev, v.prev.Load() {
		if b := v.begin.Load(); b == 0 || b > watermark {
			continue
		}
		var pruned uint64
		for old := v.prev.Load(); old != nil; old = old.prev.Load() {
			pruned++
			if old.loc.pid() != 0 {
				freed = append(freed, old.loc)
			}
		}
		base := s.loadBase()
		if base != 0 {
			pruned++
			freed = append(freed, base)
		}
		if s.absorbable(v, watermark) {
			s.storeBase(v.loc)
			link.Store(nil)
			return pruned, freed
		}
		if base != 0 {
			s.storeBase(0)
		}
		if v.prev.Load() != nil {
			v.prev.Store(nil)
		}
		return pruned, freed
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
// writes (a key changed away and back) are never dropped. A record with
// neither entries nor a tombstone names a paged row's version committed
// while an older snapshot was live (DB.absorb): processing it absorbs the
// version into its slot's base if it is still the row's whole chain.
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
