package sqldb

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// flatFile is the reference model of one in-memory file: a flat slice.
type flatFile struct{ data []byte }

// memVFSOps decodes an operation stream from its bytes, with zeros once
// they run out.
type memVFSOps struct{ b []byte }

func (r *memVFSOps) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *memVFSOps) u16() int { return int(r.byte())<<8 | int(r.byte()) }

// name is one of four file names, so operations meet on the same files.
func (r *memVFSOps) name() string { return string(rune('a' + r.byte()%4)) }

// off is an offset within half a kilobyte of an extent boundary, in the
// first four extents.
func (r *memVFSOps) off() int64 {
	return max(0, int64(r.byte()%4)*memExtent+int64(r.u16()%1024)-512)
}

// n is a length: short, or longer than an extent.
func (r *memVFSOps) n() int {
	if r.byte()%4 == 0 {
		return memExtent + r.u16()%1024
	}
	return r.u16() % 600
}

// memVFSCoverage counts the cases streams reached.
type memVFSCoverage struct {
	straddles, holes, shortReads, renamesOver, removedWrites int
}

// runMemVFSOps runs the stream ops encodes against a MemVFS and against
// flat slices by name, failing t at the first difference: Create, Open,
// OpenRandom, Write, WriteAt, ReadAt, ReadFile, Rename and Remove. An
// appending handle names its file and a random-access one holds it, as
// MemVFS's handles do.
func runMemVFSOps(t testing.TB, ops []byte, cov *memVFSCoverage) {
	t.Helper()
	vfs := NewMemVFS()
	ref := map[string]*flatFile{}
	type appender struct {
		f    File
		name string
	}
	type random struct {
		f   RandomFile
		ref *flatFile
	}
	var (
		apps  []appender
		rands []random
		seq   byte
	)
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seq + byte(i*7) | 1 // never zero, so a hole shows
		}
		seq++
		return p
	}
	straddles := func(off int64, n int) bool {
		return n > 0 && off/memExtent != (off+int64(n)-1)/memExtent
	}
	r := &memVFSOps{b: ops}
	for step := 0; len(r.b) > 0; step++ {
		switch op := r.byte() % 9; op {
		case 0, 1:
			name := r.name()
			var f File
			var err error
			if op == 0 {
				f, err = vfs.Create(name)
				ref[name] = &flatFile{}
			} else {
				f, err = vfs.Open(name)
				if ref[name] == nil {
					ref[name] = &flatFile{}
				}
			}
			if err != nil {
				t.Fatalf("step %d: open %s: %v", step, name, err)
			}
			apps = append(apps, appender{f, name})
		case 2:
			name := r.name()
			f, err := vfs.OpenRandom(name)
			if err != nil {
				t.Fatalf("step %d: OpenRandom %s: %v", step, name, err)
			}
			if ref[name] == nil {
				ref[name] = &flatFile{}
			}
			rands = append(rands, random{f, ref[name]})
		case 3:
			if len(apps) == 0 {
				continue
			}
			a := apps[int(r.byte())%len(apps)]
			p := payload(r.n())
			n, err := a.f.Write(p)
			ff := ref[a.name]
			if ff == nil {
				if err == nil {
					t.Fatalf("step %d: Write to removed %s succeeded", step, a.name)
				}
				cov.removedWrites++
				continue
			}
			if err != nil || n != len(p) {
				t.Fatalf("step %d: Write %d bytes to %s = %d, %v", step, len(p), a.name, n, err)
			}
			if straddles(int64(len(ff.data)), len(p)) {
				cov.straddles++
			}
			ff.data = append(ff.data, p...)
		case 4:
			if len(rands) == 0 {
				continue
			}
			h := rands[int(r.byte())%len(rands)]
			off, p := r.off(), payload(r.n())
			if n, err := h.f.WriteAt(p, off); err != nil || n != len(p) {
				t.Fatalf("step %d: WriteAt %d bytes at %d = %d, %v", step, len(p), off, n, err)
			}
			if straddles(off, len(p)) {
				cov.straddles++
			}
			if end := off + int64(len(p)); end > int64(len(h.ref.data)) {
				if off > int64(len(h.ref.data)) {
					cov.holes++
				}
				h.ref.data = append(h.ref.data, make([]byte, end-int64(len(h.ref.data)))...)
			}
			copy(h.ref.data[off:], p)
		case 5:
			if len(rands) == 0 {
				continue
			}
			h := rands[int(r.byte())%len(rands)]
			off, got := r.off(), make([]byte, r.n())
			n, err := h.f.ReadAt(got, off)
			want, wantErr := 0, io.EOF
			if off < int64(len(h.ref.data)) {
				want = min(len(got), len(h.ref.data)-int(off))
				if want == len(got) {
					wantErr = nil
				}
			}
			if n != want || err != wantErr {
				t.Fatalf("step %d: ReadAt %d bytes at %d of %d = %d, %v; want %d, %v", step, len(got), off, len(h.ref.data), n, err, want, wantErr)
			}
			if n > 0 && !bytes.Equal(got[:n], h.ref.data[off:off+int64(n)]) {
				t.Fatalf("step %d: ReadAt %d bytes at %d read other bytes than were written", step, len(got), off)
			}
			if err == io.EOF && n > 0 {
				cov.shortReads++
			}
			if straddles(off, n) {
				cov.straddles++
			}
		case 6:
			name := r.name()
			checkReadFile(t, vfs, ref, name, fmt.Sprintf("step %d", step))
		case 7:
			from, to := r.name(), r.name()
			err := vfs.Rename(from, to)
			if ref[from] == nil {
				if err == nil {
					t.Fatalf("step %d: Rename of missing %s succeeded", step, from)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: Rename %s to %s: %v", step, from, to, err)
			}
			if from != to {
				if ref[to] != nil {
					cov.renamesOver++
				}
				ref[to] = ref[from]
				delete(ref, from)
			}
		case 8:
			name := r.name()
			if err := vfs.Remove(name); err != nil {
				t.Fatalf("step %d: Remove %s: %v", step, name, err)
			}
			delete(ref, name)
		}
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		checkReadFile(t, vfs, ref, name, "at the end")
	}
}

// checkReadFile compares ReadFile of name with the model, and checks the
// copy is the caller's own.
func checkReadFile(t testing.TB, vfs *MemVFS, ref map[string]*flatFile, name, at string) {
	t.Helper()
	got, err := vfs.ReadFile(name)
	if err != nil {
		t.Fatalf("%s: ReadFile %s: %v", at, name, err)
	}
	var want []byte
	if ff := ref[name]; ff != nil {
		want = ff.data
	}
	if !bytes.Equal(got, want) || (len(want) == 0) != (got == nil) {
		t.Fatalf("%s: ReadFile %s gives %d bytes, want %d", at, name, len(got), len(want))
	}
	if len(got) > 0 {
		got[0] ^= 0xff
		if again, _ := vfs.ReadFile(name); !bytes.Equal(again, want) {
			t.Fatalf("%s: a write to ReadFile's copy of %s reached the file", at, name)
		}
	}
}

// TestMemVFSMatchesFlatFiles runs seeded random operation streams
// against MemVFS and a flat slice per name. Writes and reads straddle
// extent boundaries, writes past the end leave holes that must read as
// zeros, reads run past the end, names are renamed over each other and
// removed, and an append to a removed name must fail; the test checks
// the streams reached every one of those cases.
func TestMemVFSMatchesFlatFiles(t *testing.T) {
	var total memVFSCoverage
	for seed := int64(1); seed <= 60; seed++ {
		ops := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(ops)
		runMemVFSOps(t, ops, &total)
	}
	t.Logf("%+v", total)
	if total.straddles == 0 || total.holes == 0 || total.shortReads == 0 || total.renamesOver == 0 || total.removedWrites == 0 {
		t.Errorf("the streams missed a case: %+v", total)
	}
}

// FuzzMemVFS drives the operation stream of TestMemVFSMatchesFlatFiles
// from the fuzzer's bytes.
func FuzzMemVFS(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096] // each op may write an extent: bound the memory
		}
		runMemVFSOps(t, ops, &memVFSCoverage{})
	})
}

// TestMemVFSFilesDoNotSerialize runs two writers on two files and a
// reader on a third while a fourth file's lock is held, as a long append
// to it would hold it: none of them waits on it, and under -race none
// races another.
func TestMemVFSFilesDoNotSerialize(t *testing.T) {
	vfs := NewMemVFS()
	const rounds, page = 200, 512
	reads, _ := vfs.OpenRandom("read")
	img := bytes.Repeat([]byte{9}, 4*memExtent)
	reads.WriteAt(img, 0)
	held := vfs.blob("log")
	held.mu.Lock()

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		f, _ := vfs.Create("append")
		for i := 0; i < rounds; i++ {
			if _, err := f.Write(bytes.Repeat([]byte{byte(i)}, page)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		f, _ := vfs.OpenRandom("pages")
		for i := rounds - 1; i >= 0; i-- {
			f.WriteAt(bytes.Repeat([]byte{byte(i)}, page), int64(i*page))
		}
	}()
	go func() {
		defer wg.Done()
		got := make([]byte, page)
		for i := 0; i < rounds; i++ {
			off := int64(i*page*3) % int64(len(img)-page)
			if _, err := reads.ReadAt(got, off); err != nil || !bytes.Equal(got, img[:page]) {
				t.Errorf("ReadAt %d = %v, or other bytes than were written", off, err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("a file's I/O waited on another file's lock")
	}
	held.mu.Unlock()

	for _, name := range []string{"append", "pages"} {
		data, _ := vfs.ReadFile(name)
		if len(data) != rounds*page {
			t.Fatalf("%s holds %d bytes, want %d", name, len(data), rounds*page)
		}
		for i := 0; i < rounds; i++ {
			if !bytes.Equal(data[i*page:(i+1)*page], bytes.Repeat([]byte{byte(i)}, page)) {
				t.Fatalf("%s: page %d holds other bytes than were written", name, i)
			}
		}
	}
}
