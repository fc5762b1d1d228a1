package wire

import (
	"math"
	"reflect"
	"sync"
)

// Recycled messages. Typed keeps a pool of each of its two message types:
// a request is decoded into a value the pool lends and given back when
// the handler returns; a reply is filled in a lent value and given back
// once its bytes are in the outgoing frame. A value the pool lends has
// every field zero and every list empty, its backing array kept, so a
// steady exchange decodes and fills without allocating its lists again.
// Under the race detector a value given back is poisoned instead of
// emptied: a holder past the exchange reads poison, not the next
// exchange's values and not zeros.

// maxPooledMessage bounds the bytes of list items a value given back may
// keep: a listing far larger than the usual reply is left to the garbage
// collector rather than parked behind every pooled value (heap_live_mb is
// a gated cost).
const maxPooledMessage = 64 << 10

// A messagePool lends values of the message type T.
type messagePool[T any] struct {
	c    *codec
	pool sync.Pool
}

// newMessagePool compiles T's codec, panicking when T is outside the
// packed form, and returns an empty pool.
func newMessagePool[T any]() *messagePool[T] {
	return &messagePool[T]{c: mustCodec(reflect.TypeFor[T]()), pool: sync.Pool{New: func() any { return new(T) }}}
}

// get lends a value with every field zero and every list empty.
func (p *messagePool[T]) get() *T {
	v := p.pool.Get().(*T)
	if raceEnabled {
		p.c.reset(reflect.ValueOf(v).Elem()) // put poisoned it
	}
	return v
}

// put takes v back: emptied, or under the race detector poisoned. A value
// whose lists grew past maxPooledMessage is dropped.
func (p *messagePool[T]) put(v *T) {
	rv := reflect.ValueOf(v).Elem()
	if p.c.listBytes(rv) > maxPooledMessage {
		return
	}
	if raceEnabled {
		p.c.poison(rv)
	} else {
		p.c.reset(rv)
	}
	p.pool.Put(v)
}

// reset zeroes v, a value of c's struct, but keeps each list's backing
// array, emptied and cleared to its capacity so that it pins nothing, and
// each []byte's, emptied.
func (c *codec) reset(v reflect.Value) {
	for i := range c.fields {
		f := &c.fields[i]
		fv := v.Field(f.index)
		switch {
		case f.slice:
			fv.SetLen(fv.Cap())
			fv.Clear()
			fv.SetLen(0)
		case f.kind == reflect.Struct:
			f.elem.reset(fv)
		case f.kind == reflect.Slice:
			fv.SetLen(0)
		default:
			fv.SetZero()
		}
	}
}

// listBytes is the size of the backing arrays of v's lists and []bytes.
func (c *codec) listBytes(v reflect.Value) int {
	n := 0
	for i := range c.fields {
		f := &c.fields[i]
		fv := v.Field(f.index)
		switch {
		case f.slice:
			n += fv.Cap() * int(fv.Type().Elem().Size())
		case f.kind == reflect.Struct:
			n += f.elem.listBytes(fv)
		case f.kind == reflect.Slice:
			n += fv.Cap()
		}
	}
	return n
}

// poisonText is what every string of a poisoned value reads. Its numbers
// read the least value of their type (the greatest when unsigned), its
// bools true, its floats NaN, each []byte runs to its capacity, filled
// with poisonText over and over, and each list runs to its capacity,
// every item poisoned.
const poisonText = "wire: recycled message"

// poison overwrites v, a value of c's struct, with poison.
func (c *codec) poison(v reflect.Value) {
	for i := range c.fields {
		f := &c.fields[i]
		fv := v.Field(f.index)
		if !f.slice {
			f.poison(fv)
			continue
		}
		fv.SetLen(fv.Cap())
		for j := 0; j < fv.Len(); j++ {
			f.poison(fv.Index(j))
		}
	}
}

// poison overwrites v, one item of f, with poison.
func (f *field) poison(v reflect.Value) {
	switch f.kind {
	case reflect.Struct:
		f.elem.poison(v)
	case reflect.String:
		v.SetString(poisonText)
	case reflect.Slice:
		v.SetLen(v.Cap())
		for b, i := v.Bytes(), 0; i < len(b); i += copy(b[i:], poisonText) {
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int64:
		v.SetInt(math.MinInt64 >> (64 - f.bits))
	case reflect.Uint64:
		v.SetUint(math.MaxUint64 >> (64 - f.bits))
	default:
		v.SetFloat(math.NaN())
	}
}
