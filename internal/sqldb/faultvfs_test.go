package sqldb

import (
	"errors"
	"testing"
	"time"
)

// faultKind is one file kind opened through a FaultVFS: write appends to
// the log file, or writes the page file where the last write ended, and
// contents reads what reached the inner file system.
type faultKind struct {
	name     string
	write    func(p []byte) (int, error)
	sync     func() error
	contents func() string
}

func faultKinds(t *testing.T, v *FaultVFS) []faultKind {
	t.Helper()
	log, err := v.Create("log")
	if err != nil {
		t.Fatal(err)
	}
	page, err := v.OpenRandom("pages")
	if err != nil {
		t.Fatal(err)
	}
	var pageEnd int64
	read := func(name string) func() string {
		return func() string {
			data, err := v.Inner.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}
	}
	return []faultKind{
		{name: "append", write: log.Write, sync: log.Sync, contents: read("log")},
		{name: "page write", write: func(p []byte) (int, error) {
			n, err := page.WriteAt(p, pageEnd)
			pageEnd += int64(n)
			return n, err
		}, sync: page.Sync, contents: read("pages")},
	}
}

// TestFaultVFSZeroValuePassesThrough: a FaultVFS with nothing armed —
// its write budget unset, not zero — passes every byte of both file kinds
// through unchanged and fails no Sync, and its SyncDelay is slept in the
// Sync of each.
func TestFaultVFSZeroValuePassesThrough(t *testing.T) {
	const delay = 20 * time.Millisecond
	v := &FaultVFS{Inner: NewMemVFS(), SyncDelay: delay}
	for _, k := range faultKinds(t, v) {
		for _, p := range []string{"a row", " and another"} {
			if n, err := k.write([]byte(p)); n != len(p) || err != nil {
				t.Fatalf("%s of %q: %d, %v", k.name, p, n, err)
			}
		}
		if got := k.contents(); got != "a row and another" {
			t.Fatalf("%s: the file holds %q", k.name, got)
		}
		start := time.Now()
		if err := k.sync(); err != nil {
			t.Fatalf("%s: Sync: %v", k.name, err)
		}
		if took := time.Since(start); took < delay {
			t.Fatalf("%s: Sync took %v, SyncDelay is %v", k.name, took, delay)
		}
	}
	want := FaultVFSStats{Syncs: 2, Writes: 4, PageWrites: 2}
	if got := v.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestFaultVFSTearsBothFileKindsAlike: an armed write budget tears an
// append and a page write the same way — the prefix that fits lands, the
// rest is lost to ENOSPC, and every later write fails whole until the
// budget is disarmed — and an armed sync failure fails the next Sync of
// either kind once.
func TestFaultVFSTearsBothFileKindsAlike(t *testing.T) {
	v := &FaultVFS{Inner: NewMemVFS()}
	for _, k := range faultKinds(t, v) {
		v.SetWriteBudget(7)
		if n, err := k.write([]byte("fits")); n != 4 || err != nil {
			t.Fatalf("%s within the budget: %d, %v", k.name, n, err)
		}
		if n, err := k.write([]byte("torn write")); n != 3 || !errors.Is(err, ErrNoSpace) {
			t.Fatalf("%s across the budget: %d, %v; want 3 bytes and ErrNoSpace", k.name, n, err)
		}
		if n, err := k.write([]byte("more")); n != 0 || !errors.Is(err, ErrNoSpace) {
			t.Fatalf("%s past the budget: %d, %v; want nothing and ErrNoSpace", k.name, n, err)
		}
		if got := k.contents(); got != "fitstor" {
			t.Fatalf("%s: the file holds %q, want the torn prefix", k.name, got)
		}
		v.SetWriteBudget(-1)
		if n, err := k.write([]byte("n")); n != 1 || err != nil {
			t.Fatalf("%s after disarming: %d, %v", k.name, n, err)
		}

		v.FailNextSyncs(1)
		if err := k.sync(); !errors.Is(err, ErrSyncFailed) {
			t.Fatalf("%s: armed Sync returned %v", k.name, err)
		}
		if err := k.sync(); err != nil {
			t.Fatalf("%s: the Sync after the armed one returned %v", k.name, err)
		}
	}
	want := FaultVFSStats{Syncs: 4, SyncFails: 2, Writes: 8, WriteFails: 4, TornWrites: 2, PageWrites: 4}
	if got := v.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}
