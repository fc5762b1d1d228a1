package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// The packed form: a message value as compact bytes, for keeping a value
// rather than sending it — the reply store keeps each keyed reply packed
// and encodes it as XML again when it replays it. It is laid out by the
// same compiled codec as the XML, so a type either has both forms or
// neither. Fields come in declaration order:
//
//	string            uvarint length, then the bytes
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
// accepts, and a value's XML after the trip is the XML it had before.

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

func (c *codec) pack(dst []byte, v reflect.Value) []byte {
	for i := range c.elems {
		f := &c.elems[i]
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

// Unpack decodes data, one value as Pack writes it, into the struct out
// points to, replacing all of it. Nothing in out refers to data
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
	v.SetZero()
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
	for i := range c.elems {
		f := &c.elems[i]
		fv := v.Field(f.index)
		if !f.slice {
			if err := u.item(f, fv); err != nil {
				return err
			}
			continue
		}
		n, err := u.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(u.in)/max(f.minItem(), 1)) {
			return errPackedTooMany
		}
		if n == 0 {
			continue // nil, as a value with no items decodes from XML
		}
		fv.Set(reflect.MakeSlice(fv.Type(), int(n), int(n)))
		for j := 0; j < int(n); j++ {
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
