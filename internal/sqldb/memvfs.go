package sqldb

import (
	"fmt"
	"io"
	"sync"
)

// memExtent is the size of every extent of an in-memory file but its
// first, which grows to it.
const memExtent = 64 << 10

// MemVFS is an in-memory VFS for tests, simulations and the benchmark's
// device. A file is a list of fixed-size extents plus a length, so an
// append or a write past the end adds extents and never moves the bytes
// already stored; the first extent grows to the extent size before the
// second is added, so a small file (checkpoint meta, a .tmp, the
// double-write buffer) pins no whole extent. Each file has its own lock:
// MemVFS.mu guards the names alone, so a page read or write-back never
// waits behind an append to another file.
type MemVFS struct {
	mu    sync.Mutex
	files map[string]*memBlob
}

// memBlob is one in-memory file's contents, shared by every open handle.
// Extent 0 is head, whose length is min(size, memExtent); extent i ≥ 1 is
// tail[i-1], always whole. No byte past size was ever written, so a write
// past the end leaves a hole that reads as zeros.
type memBlob struct {
	mu   sync.Mutex
	head []byte
	tail []*[memExtent]byte
	size int64
}

// NewMemVFS creates an empty in-memory file system.
func NewMemVFS() *MemVFS { return &MemVFS{files: make(map[string]*memBlob)} }

// at returns the stored bytes of the extent holding offset off, from off
// on.
func (b *memBlob) at(off int64) []byte {
	i, o := off/memExtent, off%memExtent
	if i == 0 {
		return b.head[o:]
	}
	return b.tail[i-1][o:]
}

// grow extends the file to end bytes, zero-filled. The head grows by four
// times at a step, capped at memExtent, so a file of a page or two stays
// that small while one that keeps growing reaches a whole extent after a
// few copies of the head alone.
func (b *memBlob) grow(end int64) {
	if end <= b.size {
		return
	}
	if h := int(min(end, memExtent)); h > len(b.head) {
		if h > cap(b.head) {
			head := make([]byte, h, min(max(h, 4*cap(b.head)), memExtent))
			copy(head, b.head)
			b.head = head
		}
		b.head = b.head[:h]
	}
	for int64(len(b.tail)+1)*memExtent < end {
		b.tail = append(b.tail, new([memExtent]byte))
	}
	b.size = end
}

// put copies p into the file at off, growing it as needed. b.mu is held.
func (b *memBlob) put(p []byte, off int64) {
	b.grow(off + int64(len(p)))
	for len(p) > 0 {
		n := copy(b.at(off), p)
		p, off = p[n:], off+int64(n)
	}
}

// get copies the file's bytes from off on into all of p. b.mu is held,
// and off+len(p) is at most size.
func (b *memBlob) get(p []byte, off int64) {
	for len(p) > 0 {
		n := copy(p, b.at(off))
		p, off = p[n:], off+int64(n)
	}
}

// readAt fills p from the file at off, as io.ReaderAt does.
func (b *memBlob) readAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off >= b.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), b.size-off))
	b.get(p[:n], off)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// bytes returns a copy of the whole file, nil when it is empty.
func (b *memBlob) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.size == 0 {
		return nil
	}
	out := make([]byte, b.size)
	b.get(out, 0)
	return out
}

// memFile is an appending handle. It names its file rather than holding
// it, so a write after the name is removed or renamed away fails.
type memFile struct {
	vfs  *MemVFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.vfs.mu.Lock()
	blob, ok := f.vfs.files[f.name]
	f.vfs.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("sqldb: write to removed file %s", f.name)
	}
	blob.mu.Lock()
	blob.put(p, blob.size)
	blob.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// memRandomFile is a random-access handle onto a MemVFS blob: it keeps
// the blob it opened across a rename or a remove.
type memRandomFile struct{ blob *memBlob }

func (f *memRandomFile) ReadAt(p []byte, off int64) (int, error) { return f.blob.readAt(p, off) }

func (f *memRandomFile) WriteAt(p []byte, off int64) (int, error) {
	f.blob.mu.Lock()
	f.blob.put(p, off)
	f.blob.mu.Unlock()
	return len(p), nil
}

func (f *memRandomFile) Sync() error  { return nil }
func (f *memRandomFile) Close() error { return nil }

// blob returns the file named name, creating it empty if absent.
func (m *MemVFS) blob(name string) *memBlob {
	m.mu.Lock()
	defer m.mu.Unlock()
	blob, ok := m.files[name]
	if !ok {
		blob = &memBlob{}
		m.files[name] = blob
	}
	return blob
}

// Create implements VFS.
func (m *MemVFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memBlob{}
	return &memFile{vfs: m, name: name}, nil
}

// Open implements VFS.
func (m *MemVFS) Open(name string) (File, error) {
	m.blob(name)
	return &memFile{vfs: m, name: name}, nil
}

// OpenRandom implements VFS: a read-write random-access handle, creating
// the file if absent.
func (m *MemVFS) OpenRandom(name string) (RandomFile, error) {
	return &memRandomFile{blob: m.blob(name)}, nil
}

// ReadFile implements VFS: the caller owns the copy it returns.
func (m *MemVFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	blob, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, nil
	}
	return blob.bytes(), nil
}

// Rename implements VFS.
func (m *MemVFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	blob, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("sqldb: rename: no file %s", oldname)
	}
	if oldname == newname {
		return nil
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
