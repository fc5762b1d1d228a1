package sqldb

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// A stored row is its record bytes: a rowImage, one immutable string per
// row version, and one per resident page slot (pageRows). The cells are
// exactly what the log and the pages write for a row — appendValue's bytes,
// in column order — behind a header that finds any one of them without
// reading the others:
//
//	[w][off_0 … off_n-1][cell_0 … cell_n-1]
//
// w is the width of an offset: 2, or 4 for an image longer than 0xFFFF
// bytes. off_i (w bytes, little-endian) is where cell i starts in the
// image; cell i ends where cell i+1 starts, the last at the image's end.
// off_0 is the header's own length, 1 + n·w, so the image says how many
// columns it holds. A cell is a type byte and then: nothing for NULL; the
// uvarint of the 64 bits for INTEGER, BOOLEAN and TIMESTAMP; the IEEE 754
// bits, 8 bytes little-endian, for FLOAT; the uvarint length and the bytes
// for TEXT.
//
// col decodes one cell and allocates nothing: a TEXT value is a substring
// of the image, which no one writes, so a value read out of a row stays
// valid however long it is held — and keeps the row's bytes alive with it.
// The empty image is "no row" (a tombstone, nothing visible, a LEFT JOIN's
// padded side); a row of no columns is the one byte w.
type rowImage string

// Offset widths.
const (
	imgNarrow = 2
	imgWide   = 4
)

// noRow is the image of no row.
const noRow rowImage = ""

// imageWidth is the offset width of an image of n columns whose cells take
// size bytes.
func imageWidth(n, size int) int {
	if 1+imgNarrow*n+size <= math.MaxUint16 {
		return imgNarrow
	}
	return imgWide
}

// off reads the offset at header position h (a byte index).
func (r rowImage) off(h int) int {
	if r[0] == imgNarrow {
		return int(r[h]) | int(r[h+1])<<8
	}
	return int(r[h]) | int(r[h+1])<<8 | int(r[h+2])<<16 | int(r[h+3])<<24
}

// width is the number of columns the image holds.
func (r rowImage) width() int {
	if len(r) <= 1 {
		return 0
	}
	return (r.off(1) - 1) / int(r[0])
}

// cell is column i's cell bytes.
func (r rowImage) cell(i int) string {
	w := int(r[0])
	h := 1 + i*w
	if h+w < r.off(1) {
		return string(r[r.off(h):r.off(h+w)])
	}
	return string(r[r.off(h):])
}

// col is column i's value.
func (r rowImage) col(i int) Value { return cellValue(r.cell(i)) }

// isNull reports whether column i is NULL, decoding nothing.
func (r rowImage) isNull(i int) bool { return r[r.off(1+i*int(r[0]))] == byte(Null) }

// cells is the image's cells without the header: what the log and a page
// record write after the column count.
func (r rowImage) cells() string {
	if len(r) <= 1 {
		return ""
	}
	return string(r[r.off(1):])
}

// cellValue decodes one cell. The cell is an image's, checked when the
// image was built, so nothing here is checked again; a TEXT value is the
// cell's bytes after its length.
func cellValue(c string) Value {
	switch t := Type(c[0]); t {
	case Int, Bool, Time:
		u, _ := uvarintString(c, 1)
		return Value{typ: t, i: int64(u)}
	case Float:
		_ = c[8]
		u := uint64(c[1]) | uint64(c[2])<<8 | uint64(c[3])<<16 | uint64(c[4])<<24 |
			uint64(c[5])<<32 | uint64(c[6])<<40 | uint64(c[7])<<48 | uint64(c[8])<<56
		return Value{typ: Float, i: int64(u)} // IEEE 754 bits
	case Text:
		k := 2
		for c[k-1] >= 0x80 {
			k++
		}
		return Value{typ: Text, s: c[k:]}
	}
	return Value{}
}

// uvarintString decodes the uvarint at s[off:], reporting its value and
// length. s holds a well-formed one there.
func uvarintString(s string, off int) (uint64, int) {
	var u uint64
	for k := 0; ; k++ {
		b := s[off+k]
		u |= uint64(b&0x7f) << (7 * k)
		if b < 0x80 {
			return u, k + 1
		}
	}
}

// cellSize is the length of the well-formed cell s starts with.
func cellSize(s string) int {
	switch Type(s[0]) {
	case Int, Bool, Time:
		_, k := uvarintString(s, 1)
		return 1 + k
	case Float:
		return 9
	case Text:
		n, k := uvarintString(s, 1)
		return 1 + k + int(n)
	}
	return 1
}

// appendValue appends v's cell to b: the one value encoding the log, the
// pages and the row images share.
func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.typ))
	switch v.typ {
	case Int, Bool, Time:
		b = binary.AppendUvarint(b, uint64(v.i))
	case Float:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.i)) // IEEE 754 bits
	case Text:
		b = append(binary.AppendUvarint(b, uint64(len(v.s))), v.s...)
	}
	return b
}

// cellBuf is the stack room an image's cells are gathered in before they
// are laid out: a CAS row fits, and a longer one grows onto the heap.
type cellBuf [256]byte

// imageOf lays vals out as an image.
func imageOf(vals []Value) rowImage {
	var buf cellBuf
	cells := buf[:0]
	for _, v := range vals {
		cells = appendValue(cells, v)
	}
	return imageFromCells(len(vals), cells)
}

// splice is old with every column the bitmap marks (bit i%8 of byte i/8
// for column i) replaced by the next of cells, well-formed cells in
// column order: an update of old, copying the cells it leaves alone.
func splice(old rowImage, bitmap, cells []byte) rowImage {
	n := old.width()
	var buf cellBuf
	out := buf[:0]
	cs := view(cells)
	for i := 0; i < n; i++ {
		if bitSet(bitmap, i) {
			k := cellSize(cs)
			out, cs = append(out, cs[:k]...), cs[k:]
		} else {
			out = append(out, old.cell(i)...)
		}
	}
	return imageFromCells(n, out)
}

// imageFromCells lays out the image of the n well-formed cells in cells —
// a row as the log or a page record holds it after its column count, or
// as imageOf and splice gather it. It is the one place an image is made:
// one allocation, the header's offsets, the cells copied behind them.
func imageFromCells(n int, cells []byte) rowImage {
	w := imageWidth(n, len(cells))
	hdr := 1 + n*w
	b := make([]byte, hdr, hdr+len(cells))
	b[0] = byte(w)
	cs := view(cells)
	for i, at := 0, 0; i < n; i++ {
		o, h := hdr+at, 1+i*w
		b[h], b[h+1] = byte(o), byte(o>>8)
		if w == imgWide {
			b[h+2], b[h+3] = byte(o>>16), byte(o>>24)
		}
		at += cellSize(cs[at:])
	}
	b = append(b, cells...)
	// b is never written again: the image is its bytes, not a copy.
	return rowImage(unsafe.String(unsafe.SliceData(b), len(b)))
}

// bitSet reports whether column i's bit is set in bitmap.
func bitSet(bitmap []byte, i int) bool { return bitmap[i/8]&(1<<(i%8)) != 0 }
