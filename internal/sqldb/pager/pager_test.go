package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// memFile is a minimal in-memory random-access file for tests.
type memFile struct {
	mu  sync.Mutex
	buf []byte
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.buf)) {
		return 0, errors.New("EOF")
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, errors.New("EOF")
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := off + int64(len(p))
	if int64(len(m.buf)) < end {
		m.buf = append(m.buf, make([]byte, end-int64(len(m.buf)))...)
	}
	copy(m.buf[off:end], p)
	return len(p), nil
}

func (m *memFile) Sync() error  { return nil }
func (m *memFile) Close() error { return nil }

func newTestPager(t *testing.T, pageSize int) (*Pager, *memFile, *memFile) {
	t.Helper()
	main, dwb := &memFile{}, &memFile{}
	p, err := New(main, dwb, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return p, main, dwb
}

func fillPage(p *Pager, tag byte) []byte {
	buf := make([]byte, p.PageSize())
	for i := CheckHeader; i < len(buf); i++ {
		buf[i] = tag
	}
	return buf
}

func TestPagerRoundTrip(t *testing.T) {
	p, _, _ := newTestPager(t, 1024)
	a, b := p.Allocate(), p.Allocate()
	if a != 1 || b != 2 {
		t.Fatalf("allocate: got %d, %d", a, b)
	}
	if err := p.WriteBatch([]BatchPage{{a, fillPage(p, 0xAA)}, {b, fillPage(p, 0xBB)}}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	empty, err := p.ReadPage(a, buf)
	if err != nil || empty {
		t.Fatalf("read a: empty=%v err=%v", empty, err)
	}
	if buf[CheckHeader] != 0xAA || buf[1023] != 0xAA {
		t.Fatalf("page a content wrong: % x", buf[:8])
	}
	if empty, err := p.ReadPage(b, buf); err != nil || empty {
		t.Fatalf("read b: empty=%v err=%v", empty, err)
	}
	// An allocated-but-never-written page reads back empty.
	c := p.Allocate()
	if empty, err := p.ReadPage(c, buf); err != nil || !empty {
		t.Fatalf("read unwritten: empty=%v err=%v", empty, err)
	}
}

func TestPagerChecksumDetectsCorruption(t *testing.T) {
	p, main, _ := newTestPager(t, 512)
	pid := p.Allocate()
	if err := p.WriteBatch([]BatchPage{{pid, fillPage(p, 0x11)}}); err != nil {
		t.Fatal(err)
	}
	main.mu.Lock()
	main.buf[100] ^= 0xFF
	main.mu.Unlock()
	buf := make([]byte, 512)
	if _, err := p.ReadPage(pid, buf); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("want ErrCorruptPage, got %v", err)
	}
}

func TestPagerFreeReuse(t *testing.T) {
	p, _, _ := newTestPager(t, 512)
	a := p.Allocate()
	_ = p.Allocate()
	p.Free(a)
	if got := p.Allocate(); got != a {
		t.Fatalf("freed page not reused: got %d want %d", got, a)
	}
	next, free := p.AllocState()
	if next != 3 || len(free) != 0 {
		t.Fatalf("alloc state: next=%d free=%v", next, free)
	}
}

func TestPagerTornWriteRepair(t *testing.T) {
	// Simulate every prefix length of a torn in-place page write: the
	// double-write buffer is complete (it was synced first), the main
	// page is cut mid-write. RecoverTorn must restore the full image.
	pageSize := 512
	for cut := 0; cut <= pageSize; cut += 64 {
		p, main, dwb := newTestPager(t, pageSize)
		pid := p.Allocate()
		if err := p.WriteBatch([]BatchPage{{pid, fillPage(p, 0x55)}}); err != nil {
			t.Fatal(err)
		}
		good := append([]byte(nil), main.buf...)
		newImg := fillPage(p, 0x77)
		if err := p.WriteBatch([]BatchPage{{pid, newImg}}); err != nil {
			t.Fatal(err)
		}
		// Tear the in-place write: first `cut` bytes of the new image
		// landed, the rest still holds the old image.
		main.mu.Lock()
		torn := append([]byte(nil), good...)
		copy(torn[:cut], main.buf[:cut])
		main.buf = torn
		main.mu.Unlock()

		reopened, err := New(main, dwb, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reopened.RecoverTorn(); err != nil {
			t.Fatalf("cut=%d: RecoverTorn: %v", cut, err)
		}
		buf := make([]byte, pageSize)
		if empty, err := reopened.ReadPage(pid, buf); err != nil || empty {
			t.Fatalf("cut=%d: after repair: empty=%v err=%v", cut, empty, err)
		}
		// The contract is "some complete image": an untorn old image
		// (cut=0) stays, anything actually torn repairs to the new one.
		if got := buf[CheckHeader]; got != 0x77 && !(cut == 0 && got == 0x55) {
			t.Fatalf("cut=%d: repaired to wrong image: %x", cut, got)
		}
	}
}

func TestPagerTornToZerosRepair(t *testing.T) {
	p, main, dwb := newTestPager(t, 512)
	pid := p.Allocate()
	if err := p.WriteBatch([]BatchPage{{pid, fillPage(p, 0x42)}}); err != nil {
		t.Fatal(err)
	}
	main.mu.Lock()
	for i := range main.buf {
		main.buf[i] = 0
	}
	main.mu.Unlock()
	reopened, _ := New(main, dwb, 512)
	n, err := reopened.RecoverTorn()
	if err != nil || n != 1 {
		t.Fatalf("repaired=%d err=%v", n, err)
	}
	buf := make([]byte, 512)
	if empty, err := reopened.ReadPage(pid, buf); err != nil || empty || buf[CheckHeader] != 0x42 {
		t.Fatalf("after repair: empty=%v err=%v byte=%x", empty, err, buf[CheckHeader])
	}
}

func TestPagerRecoverTornIgnoresGarbageDWB(t *testing.T) {
	p, _, dwb := newTestPager(t, 512)
	pid := p.Allocate()
	if err := p.WriteBatch([]BatchPage{{pid, fillPage(p, 0x10)}}); err != nil {
		t.Fatal(err)
	}
	// Scribble a bogus entry count; recovery must not touch good pages.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 0xFFFFFFFF)
	dwb.WriteAt(hdr[:], 0)
	if n, err := p.RecoverTorn(); err != nil || n != 0 {
		t.Fatalf("repaired=%d err=%v", n, err)
	}
}

func TestPoolFetchHitMissEvict(t *testing.T) {
	p, _, _ := newTestPager(t, 512)
	bp := NewPool(p, 4)
	var pids []PageID
	for i := 0; i < 8; i++ {
		pid, f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Lock()
		copy(f.Data()[CheckHeader:], fmt.Sprintf("page-%d", i))
		f.Unlock()
		bp.Unpin(f, true)
		pids = append(pids, pid)
	}
	// All 8 pages must read back correctly through a 4-frame pool.
	for i, pid := range pids {
		f, err := bp.Fetch(pid)
		if err != nil {
			t.Fatalf("fetch %d: %v", pid, err)
		}
		f.RLock()
		got := string(f.Data()[CheckHeader : CheckHeader+7])
		f.RUnlock()
		bp.Unpin(f, false)
		want := fmt.Sprintf("page-%d", i)
		if got[:len(want)] != want {
			t.Fatalf("page %d: got %q want %q", pid, got, want)
		}
	}
	st := bp.Stats()
	if st.Evictions == 0 || st.DirtyWrites == 0 {
		t.Fatalf("expected evictions and dirty writes, got %+v", st)
	}
	if st.Resident > 4 {
		t.Fatalf("resident %d exceeds pool size 4", st.Resident)
	}
}

func TestPoolPinnedNeverEvicted(t *testing.T) {
	p, _, _ := newTestPager(t, 512)
	bp := NewPool(p, 3)
	var pinned []*Frame
	var pids []PageID
	for i := 0; i < 3; i++ {
		pid, f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
		pids = append(pids, pid)
	}
	// Every frame is pinned: a new page must fail, not evict.
	if _, _, err := bp.NewPage(); err == nil {
		t.Fatal("NewPage succeeded with every frame pinned")
	}
	// The pinned frames must still hold their pages.
	for i, f := range pinned {
		if f.PID() != pids[i] {
			t.Fatalf("pinned frame %d was reused: pid %d want %d", i, f.PID(), pids[i])
		}
	}
	bp.Unpin(pinned[0], true)
	if _, _, err := bp.NewPage(); err != nil {
		t.Fatalf("NewPage after one unpin: %v", err)
	}
}

func TestPoolScanResistance(t *testing.T) {
	// A re-referenced page must survive a sweep of once-touched pages
	// larger than the pool: cold insertion means scan pages evict each
	// other while the hot page's ref bit protects it.
	p, _, _ := newTestPager(t, 512)
	bp := NewPool(p, 4)
	hot, f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true)
	for i := 0; i < 20; i++ {
		pid, nf, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(nf, true)
		if nf, err = bp.Fetch(pid); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(nf, false)
		// Keep the hot page referenced.
		hf, err := bp.Fetch(hot)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(hf, false)
	}
	before := bp.Stats().Hits
	hf, err := bp.Fetch(hot)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(hf, false)
	if bp.Stats().Hits != before+1 {
		t.Fatal("hot page was evicted by the scan")
	}
}

func TestPoolConcurrentHammer(t *testing.T) {
	p, _, _ := newTestPager(t, 512)
	bp := NewPool(p, 8)
	const pages = 32
	var pids [pages]PageID
	for i := 0; i < pages; i++ {
		pid, f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(f.Data()[CheckHeader:], uint64(i))
		bp.Unpin(f, true)
		pids[i] = pid
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (seed*7 + i*13) % pages
				f, err := bp.Fetch(pids[k])
				if err != nil {
					errCh <- err
					return
				}
				f.RLock()
				got := binary.LittleEndian.Uint64(f.Data()[CheckHeader:])
				f.RUnlock()
				if got != uint64(k) {
					errCh <- fmt.Errorf("page %d read %d", k, got)
					bp.Unpin(f, false)
					return
				}
				if i%5 == 0 {
					f.Lock()
					binary.LittleEndian.PutUint64(f.Data()[CheckHeader:], uint64(k))
					f.Unlock()
					bp.Unpin(f, true)
				} else {
					bp.Unpin(f, false)
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if st := bp.Stats(); st.Pinned != 0 {
		t.Fatalf("leaked pins: %+v", st)
	}
}

func TestPoolFlushPersists(t *testing.T) {
	main, dwb := &memFile{}, &memFile{}
	p, _ := New(main, dwb, 512)
	bp := NewPool(p, 8)
	pid, f, _ := bp.NewPage()
	copy(f.Data()[CheckHeader:], "durable")
	bp.Unpin(f, true)
	if n, err := bp.FlushAll(); err != nil || n != 1 {
		t.Fatalf("flush: n=%d err=%v", n, err)
	}
	// Reopen over the same files: the image must be there.
	p2, _ := New(main, dwb, 512)
	p2.SetAllocState(2, nil)
	buf := make([]byte, 512)
	if empty, err := p2.ReadPage(pid, buf); err != nil || empty {
		t.Fatalf("reread: empty=%v err=%v", empty, err)
	}
	if !bytes.HasPrefix(buf[CheckHeader:], []byte("durable")) {
		t.Fatalf("content lost: %q", buf[CheckHeader:CheckHeader+8])
	}
}

// gatedFile is a memFile whose writes each wait for a token from the
// test, and fail once the test says so: a slow or broken device under the
// double-write buffer.
type gatedFile struct {
	memFile
	tokens  chan struct{}
	entered chan struct{}
	failing atomic.Bool
}

func (g *gatedFile) WriteAt(p []byte, off int64) (int, error) {
	g.entered <- struct{}{}
	<-g.tokens
	if g.failing.Load() {
		return 0, errors.New("gatedFile: device failed")
	}
	return g.memFile.WriteAt(p, off)
}

// sameBuffer reports whether two page buffers are one piece of memory.
func sameBuffer(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// checkImageOwners holds the pool to its hand-over rule at a quiet moment:
// every page buffer has exactly one owner — a frame, the spare list, or a
// parked image somewhere in a write-back chain — and the spare list is
// within its cap.
func checkImageOwners(t *testing.T, bp *Pool, tracked ...*writeBack) {
	t.Helper()
	bp.mu.Lock()
	defer bp.mu.Unlock()
	type owner struct {
		what string
		img  []byte
	}
	var owners []owner
	for i, f := range bp.frames {
		if f != nil { // a frame never made holds no buffer
			owners = append(owners, owner{fmt.Sprintf("frame %d", i), f.data})
		}
	}
	for i, img := range bp.spare {
		owners = append(owners, owner{fmt.Sprintf("spare %d", i), img})
	}
	seen := map[*writeBack]bool{}
	addChain := func(what string, wb *writeBack) {
		for ; wb != nil && !seen[wb]; wb = wb.prev {
			seen[wb] = true
			if (wb.holders > 0) != (wb.img != nil) {
				t.Errorf("%s: %d holders but image %v", what, wb.holders, wb.img != nil)
			}
			if wb.img != nil {
				owners = append(owners, owner{what, wb.img})
			}
		}
	}
	for pid, wb := range bp.writing {
		addChain(fmt.Sprintf("write-back chain of page %d", pid), wb)
	}
	for i, wb := range tracked {
		addChain(fmt.Sprintf("tracked write-back %d", i), wb)
	}
	for i := range owners {
		for j := i + 1; j < len(owners); j++ {
			if sameBuffer(owners[i].img, owners[j].img) {
				t.Errorf("one page buffer has two owners: %s and %s", owners[i].what, owners[j].what)
			}
		}
	}
	if len(bp.spare) > spareImages {
		t.Errorf("spare list holds %d images, cap %d", len(bp.spare), spareImages)
	}
}

// TestPoolRefetchAdoptsParkedImage races a reader against the eviction of
// the page it wants, on a device slow enough to stop the clock at each
// step — and, the second time round, one that fails the write. The parked
// image must outlive its writer for as long as the reader holds it (the
// writer retiring it does not recycle it), the reader must get the page's
// newest bytes from it without going to disk, and every buffer must end
// with one owner.
func TestPoolRefetchAdoptsParkedImage(t *testing.T) {
	for _, failWrite := range []bool{false, true} {
		t.Run(fmt.Sprintf("failWrite=%v", failWrite), func(t *testing.T) {
			main := &memFile{}
			dwb := &gatedFile{tokens: make(chan struct{}), entered: make(chan struct{}, 8)}
			p, err := New(main, dwb, 512)
			if err != nil {
				t.Fatal(err)
			}
			bp := NewPool(p, 2)
			write := func(f *Frame, s string) {
				f.Lock()
				copy(f.Data()[CheckHeader:], s)
				f.Unlock()
				bp.Unpin(f, true)
			}
			// Two dirty pages fill the pool; A sits under the clock hand.
			a, fa, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			write(fa, "page A, newest bytes")
			_, fb, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			write(fb, "page B")
			reads := p.pageReads.Load()

			// The evictor: a new page claims A's frame and parks A's image
			// behind a write that does not return yet.
			evicted := make(chan error, 1)
			go func() {
				_, f, err := bp.NewPage()
				if err == nil {
					bp.Unpin(f, true)
				}
				evicted <- err
			}()
			<-dwb.entered
			bp.mu.Lock()
			wbA := bp.writing[a]
			bp.mu.Unlock()
			if wbA == nil {
				t.Fatal("no write-back parked for the evicted page")
			}

			// The reader: re-fetches A while that write is in flight. It
			// claims B's frame, finds A's parked image and holds it.
			type fetched struct {
				got string
				err error
			}
			refetched := make(chan fetched, 1)
			go func() {
				f, err := bp.Fetch(a)
				if err != nil {
					refetched <- fetched{err: err}
					return
				}
				f.RLock()
				got := string(f.Data()[CheckHeader : CheckHeader+20])
				f.RUnlock()
				bp.Unpin(f, false)
				refetched <- fetched{got: got}
			}()
			for {
				bp.mu.Lock()
				held := wbA.holders
				bp.mu.Unlock()
				if held == 2 {
					break
				}
				runtime.Gosched()
			}

			// Let the evictor's write through (or fail it). The evictor
			// retires the write-back; the reader still holds the image.
			dwb.failing.Store(failWrite)
			dwb.tokens <- struct{}{}
			if err := <-evicted; (err != nil) != failWrite {
				t.Fatalf("evictor: err = %v, device failing = %v", err, failWrite)
			}
			bp.mu.Lock()
			if wbA.holders != 1 || wbA.img == nil {
				t.Errorf("after the writer retired: %d holders, image kept = %v; the reader still needs it", wbA.holders, wbA.img != nil)
			}
			for _, img := range bp.spare {
				if sameBuffer(img, wbA.img) {
					t.Error("the parked image is on the spare list while the reader holds it")
				}
			}
			if wbA.img != nil && string(wbA.img[CheckHeader:CheckHeader+20]) != "page A, newest bytes" {
				t.Errorf("parked image reads %q", wbA.img[CheckHeader:CheckHeader+20])
			}
			bp.mu.Unlock()
			checkImageOwners(t, bp, wbA)

			// Let the reader's own eviction write (of B) through; it then
			// adopts A's parked image — authoritative even when the write
			// of it failed.
			dwb.failing.Store(false)
			<-dwb.entered
			dwb.tokens <- struct{}{}
			r := <-refetched
			if r.err != nil {
				t.Fatalf("re-fetch: %v", r.err)
			}
			if r.got != "page A, newest bytes" {
				t.Errorf("re-fetched page reads %q", r.got)
			}
			if n := p.pageReads.Load() - reads; n != 0 {
				t.Errorf("%d page reads: the re-fetch went to disk instead of adopting the parked image", n)
			}
			bp.mu.Lock()
			if wbA.holders != 0 || wbA.img != nil || len(bp.writing) != 0 {
				t.Errorf("at rest: %d holders, image kept = %v, %d pages still writing", wbA.holders, wbA.img != nil, len(bp.writing))
			}
			if len(bp.spare) != 2 {
				t.Errorf("spare list holds %d images, want the two evicted frames' buffers", len(bp.spare))
			}
			for _, img := range bp.spare {
				if raceEnabled && !bytes.Equal(img, bytes.Repeat([]byte{0xDB}, len(img))) {
					t.Error("a released image was not poisoned")
				}
			}
			bp.mu.Unlock()
			checkImageOwners(t, bp, wbA)
		})
	}
}

// TestPoolCheckpointCopiesIntoSpares runs checkpoint flushes and evictions
// over the same pages from several goroutines and holds the pool to the
// hand-over rule at the end: no buffer with two owners, no hold left, and
// the pages read back as last written.
func TestPoolCheckpointCopiesIntoSpares(t *testing.T) {
	p, _, _ := newTestPager(t, 512)
	bp := NewPool(p, 4)
	const pages = 12
	var pids [pages]PageID
	for i := range pids {
		pid, f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(f.Data()[CheckHeader:], uint64(i)<<32)
		bp.Unpin(f, true)
		pids[i] = pid
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	var last [pages]uint64 // per page: the counter its one writer wrote last
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := g + 3*(i%(pages/3)) // each goroutine owns a third of the pages
				f, err := bp.Fetch(pids[k])
				if err != nil {
					errCh <- err
					return
				}
				f.Lock()
				v := binary.LittleEndian.Uint64(f.Data()[CheckHeader:])
				if v>>32 != uint64(k) || v&0xFFFFFFFF != last[k] {
					errCh <- fmt.Errorf("page %d reads %#x, last wrote counter %d", k, v, last[k])
					f.Unlock()
					bp.Unpin(f, false)
					return
				}
				last[k]++
				binary.LittleEndian.PutUint64(f.Data()[CheckHeader:], uint64(k)<<32|last[k])
				f.Unlock()
				bp.Unpin(f, true)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := bp.FlushPages(bp.DirtyPages(), 3); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if _, err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	checkImageOwners(t, bp)
	bp.mu.Lock()
	writing := len(bp.writing)
	bp.mu.Unlock()
	if writing != 0 {
		t.Fatalf("%d write-backs still registered at rest", writing)
	}
	buf := make([]byte, 512)
	for k, pid := range pids {
		if _, err := p.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint64(buf[CheckHeader:]); v != uint64(k)<<32|last[k] {
			t.Errorf("page %d on disk reads %#x, want counter %d", k, v, last[k])
		}
	}
}

// resettable is an Attachment that counts its resets.
type resettable struct{ resets int }

func (r *resettable) Reset() { r.resets++ }

// TestPoolResetsAttachment: what rides a frame is emptied whenever the
// frame stops holding the page it was derived from — eviction, Forget,
// NewPage — and at no other time.
func TestPoolResetsAttachment(t *testing.T) {
	p, _, _ := newTestPager(t, 512)
	bp := NewPool(p, 2)
	a, fa, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	att := &resettable{}
	fa.Lock()
	fa.Attach(att)
	fa.Unlock()
	bp.Unpin(fa, true)
	for i := 0; i < 3; i++ { // hits leave it alone
		f, err := bp.Fetch(a)
		if err != nil {
			t.Fatal(err)
		}
		if f.Attachment() != Attachment(att) {
			t.Fatal("attachment lost on a hit")
		}
		bp.Unpin(f, false)
	}
	if _, err := bp.FlushAll(); err != nil { // so does a checkpoint
		t.Fatal(err)
	}
	if att.resets != 0 {
		t.Fatalf("%d resets while the frame kept its page", att.resets)
	}
	bp.Forget([]PageID{a})
	if att.resets != 1 {
		t.Fatalf("Forget: %d resets, want 1", att.resets)
	}
	// The frame is reused for other pages: each claim resets it again, and
	// it stays attached.
	for i := 0; i < 4; i++ {
		_, f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, true)
	}
	if att.resets < 2 {
		t.Fatalf("frame reclaimed for new pages: %d resets", att.resets)
	}
	if fa.Attachment() != Attachment(att) {
		t.Fatal("the pool removed the attachment instead of resetting it")
	}
}
