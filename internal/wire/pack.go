package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
)

// The packed form: the one encoding of a message value, whether it rides
// a frame as its payload, waits in the reply store to be replayed, or
// carries a replication run. Every message type is compiled once into a
// codec that packs a value straight into a caller-supplied buffer and
// unpacks it in one pass. Its exported fields come in declaration order:
//
//	string            uvarint length, then the bytes
//	[]byte            uvarint length, then the bytes
//	bool              one byte, 0 or 1
//	signed integer    zigzag varint
//	unsigned integer  uvarint
//	float             IEEE 754 bits, little-endian, 4 or 8 bytes
//	struct            its fields
//	slice             uvarint count, then the items
//
// There is exactly one byte form per value, and Unpack accepts nothing
// else: varints are minimal, a bool is 0 or 1, every number fits its
// field, a length or count cannot promise more than the bytes left, and
// no byte follows the value. So Pack(Unpack(b)) == b for every b Unpack
// accepts, and a stored reply replays as the bytes it was first sent as.
//
// A field of another type — a pointer, a map, an interface, an array, a
// slice of slices other than [][]byte — and an embedded, unexported or
// recursive field fail to compile, which Typed reports when the handler
// is registered: the packed form carries every field or refuses the type.

// A codec packs and unpacks one struct type.
type codec struct {
	fields    []field // in declaration order
	minPacked int     // the fewest bytes a packed value takes
}

// A field is one field of a codec's struct.
type field struct {
	index int
	slice bool         // []T: a count, then the items
	kind  reflect.Kind // of T: String, Bool, Int64, Uint64, Float64, Struct, or Slice for []byte
	bits  int          // size of a numeric T
	elem  *codec       // codec of a struct T
}

var codecs sync.Map // reflect.Type → *codec

// codecFor returns t's codec, compiling it on first use.
func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	c, err := compile(t, nil)
	if err != nil {
		return nil, err
	}
	actual, _ := codecs.LoadOrStore(t, c)
	return actual.(*codec), nil
}

// mustCodec compiles t's codec, panicking when t is outside the packed
// form — a programming error that should stop the process at start-up,
// not surface per request.
func mustCodec(t reflect.Type) *codec {
	c, err := codecFor(t)
	if err != nil {
		panic(err)
	}
	return c
}

// compile builds the codec of struct type t; outer lists the struct
// types being compiled around it.
func compile(t reflect.Type, outer []reflect.Type) (*codec, error) {
	bad := func(format string, args ...any) (*codec, error) {
		return nil, fmt.Errorf("wire: codec for %s: %s", t, fmt.Sprintf(format, args...))
	}
	if t.Kind() != reflect.Struct {
		return bad("not a struct")
	}
	if slices.Contains(outer, t) {
		return bad("recursive type")
	}
	c := &codec{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		switch {
		case sf.Anonymous:
			return bad("embedded field %s", sf.Name)
		case !sf.IsExported():
			return bad("unexported field %s", sf.Name)
		}
		f := field{index: i}
		ft := sf.Type
		if ft.Kind() == reflect.Slice && ft.Elem().Kind() != reflect.Uint8 {
			f.slice, ft = true, ft.Elem()
		}
		switch ft.Kind() {
		case reflect.String, reflect.Bool:
			f.kind = ft.Kind()
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.kind, f.bits = reflect.Int64, ft.Bits()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			f.kind, f.bits = reflect.Uint64, ft.Bits()
		case reflect.Float32, reflect.Float64:
			f.kind, f.bits = reflect.Float64, ft.Bits()
		case reflect.Slice:
			if ft.Elem().Kind() != reflect.Uint8 {
				return bad("field %s: unsupported type %s", sf.Name, sf.Type)
			}
			f.kind = reflect.Slice
		case reflect.Struct:
			elem, err := compile(ft, append(outer, t))
			if err != nil {
				return nil, err
			}
			f.kind, f.elem = reflect.Struct, elem
		default:
			return bad("field %s: unsupported type %s", sf.Name, sf.Type)
		}
		c.fields = append(c.fields, f)
		c.minPacked += f.minPacked()
	}
	return c, nil
}

// minPacked is the fewest bytes f's value packs into.
func (f *field) minPacked() int {
	if f.slice {
		return 1
	}
	return f.minItem()
}

// minItem is the fewest bytes one item of f packs into.
func (f *field) minItem() int {
	switch f.kind {
	case reflect.Struct:
		return f.elem.minPacked
	case reflect.Float64:
		return f.bits / 8
	}
	return 1
}

// ---- packing ----

// Pack appends v's packed form to dst; v is a message struct or a
// pointer to one.
func Pack(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		rv = rv.Elem() // of a nil pointer: no value
	}
	if !rv.IsValid() {
		return dst, fmt.Errorf("wire: pack: no value in %T", v)
	}
	c, err := codecFor(rv.Type())
	if err != nil {
		return dst, err
	}
	return c.pack(dst, rv), nil
}

// appendPayload appends payload packed, as a frame carries it: a message
// struct or a pointer to one, where nil, typed or not, is no payload.
func appendPayload(dst []byte, payload any) ([]byte, error) {
	if rv := reflect.ValueOf(payload); !rv.IsValid() || rv.Kind() == reflect.Pointer && rv.IsNil() {
		return dst, nil
	}
	return Pack(dst, payload)
}

func (c *codec) pack(dst []byte, v reflect.Value) []byte {
	for i := range c.fields {
		f := &c.fields[i]
		fv := v.Field(f.index)
		if !f.slice {
			dst = f.packItem(dst, fv)
			continue
		}
		n := fv.Len()
		dst = binary.AppendUvarint(dst, uint64(n))
		for j := 0; j < n; j++ {
			dst = f.packItem(dst, fv.Index(j))
		}
	}
	return dst
}

func (f *field) packItem(dst []byte, v reflect.Value) []byte {
	switch f.kind {
	case reflect.Struct:
		return f.elem.pack(dst, v)
	case reflect.String:
		s := v.String()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case reflect.Slice:
		b := v.Bytes()
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		return append(dst, b...)
	case reflect.Bool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case reflect.Int64:
		return binary.AppendVarint(dst, v.Int())
	case reflect.Uint64:
		return binary.AppendUvarint(dst, v.Uint())
	default:
		if f.bits == 32 {
			return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v.Float())))
		}
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	}
}

// ---- unpacking ----

// Unpack decodes data, one value as Pack writes it, into the struct out
// points to, replacing every field; on an error, out holds part of the
// value. It fills out in place: a list whose capacity holds its count
// keeps its backing array, and one that does not is allocated once, at
// exactly the count; a []byte likewise. A count or length the bytes left
// cannot hold refuses data before anything is allocated for it, so what
// unpacking costs is bounded by the input. Nothing in out refers to data
// afterwards.
func Unpack(data []byte, out any) error {
	v := reflect.ValueOf(out)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("wire: cannot unpack into %T (want a pointer to a struct)", out)
	}
	c, err := codecFor(v.Type().Elem())
	if err != nil {
		return err
	}
	v = v.Elem()
	u := unpacker{in: data}
	if err := u.unpack(c, v); err != nil {
		return fmt.Errorf("wire: unpack %s: %w at offset %d", v.Type(), err, len(data)-len(u.in))
	}
	if len(u.in) > 0 {
		return fmt.Errorf("wire: unpack %s: %d bytes after the value", v.Type(), len(u.in))
	}
	return nil
}

var (
	errPackedShort   = errors.New("value cut short")
	errPackedVarint  = errors.New("varint not in its shortest form")
	errPackedBool    = errors.New("bool byte neither 0 nor 1")
	errPackedRange   = errors.New("number does not fit its field")
	errPackedFloat   = errors.New("float32 bits not as packed")
	errPackedTooMany = errors.New("count exceeds the bytes left")
)

// An unpacker consumes in from the front.
type unpacker struct{ in []byte }

func (u *unpacker) unpack(c *codec, v reflect.Value) error {
	for i := range c.fields {
		f := &c.fields[i]
		fv := v.Field(f.index)
		if !f.slice {
			if err := u.item(f, fv); err != nil {
				return err
			}
			continue
		}
		n64, err := u.uvarint()
		if err != nil {
			return err
		}
		if n64 > uint64(len(u.in)/max(f.minItem(), 1)) {
			return errPackedTooMany
		}
		n := int(n64)
		if fv.Cap() < n {
			// Grow allocates into the field itself, where MakeSlice would
			// add a slice header; from nil it allocates the count alone,
			// and SetCap trims its size-class slack.
			fv.SetZero()
			fv.Grow(n)
			fv.SetCap(n)
		}
		for j := n; j < fv.Len(); j++ {
			fv.Index(j).SetZero() // items past the count pin nothing
		}
		fv.SetLen(n)
		for j := 0; j < n; j++ {
			if err := u.item(f, fv.Index(j)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (u *unpacker) item(f *field, v reflect.Value) error {
	switch f.kind {
	case reflect.Struct:
		return u.unpack(f.elem, v)
	case reflect.String:
		s, err := u.bytes()
		if err != nil {
			return err
		}
		v.SetString(string(s))
	case reflect.Slice:
		s, err := u.bytes()
		if err != nil {
			return err
		}
		b := v.Bytes()
		if cap(b) < len(s) {
			b = make([]byte, 0, len(s))
		}
		v.SetBytes(append(b[:0], s...))
	case reflect.Bool:
		if len(u.in) == 0 {
			return errPackedShort
		}
		if u.in[0] > 1 {
			return errPackedBool
		}
		v.SetBool(u.in[0] == 1)
		u.in = u.in[1:]
	case reflect.Int64:
		ux, err := u.uvarint()
		if err != nil {
			return err
		}
		x := int64(ux >> 1) // zigzag, as binary.AppendVarint writes it
		if ux&1 != 0 {
			x = ^x
		}
		if v.OverflowInt(x) {
			return errPackedRange
		}
		v.SetInt(x)
	case reflect.Uint64:
		x, err := u.uvarint()
		if err != nil {
			return err
		}
		if v.OverflowUint(x) {
			return errPackedRange
		}
		v.SetUint(x)
	default:
		size := f.bits / 8
		if len(u.in) < size {
			return errPackedShort
		}
		if size == 4 {
			bits := binary.LittleEndian.Uint32(u.in)
			v.SetFloat(float64(math.Float32frombits(bits)))
			// Widening quiets a signalling NaN, which Pack then writes
			// quiet: those bits have no value to stand for.
			if math.Float32bits(float32(v.Float())) != bits {
				return errPackedFloat
			}
		} else {
			v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(u.in)))
		}
		u.in = u.in[size:]
	}
	return nil
}

// bytes reads a uvarint length and that many bytes, which alias the input.
func (u *unpacker) bytes() ([]byte, error) {
	n, err := u.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(u.in)) {
		return nil, errPackedShort
	}
	b := u.in[:n]
	u.in = u.in[n:]
	return b, nil
}

// uvarint reads a uvarint written in its shortest form.
func (u *unpacker) uvarint() (uint64, error) {
	x, n := binary.Uvarint(u.in)
	switch {
	case n == 0:
		return 0, errPackedShort
	case n < 0:
		return 0, errPackedRange
	case n > 1 && u.in[n-1] == 0:
		return 0, errPackedVarint
	}
	u.in = u.in[n:]
	return x, nil
}
