package wire

import (
	"bytes"
	"reflect"
)

// Encode encodes an action and payload as a frame's envelope, with no
// key, send stamp or budget.
func Encode(action string, payload any) ([]byte, error) {
	b := newBuffer()
	defer b.release()
	if err := b.encode(Envelope{Action: action}, payload); err != nil {
		return nil, err
	}
	return bytes.Clone(b.b), nil
}

// DecodeEnvelope decodes envelope bytes as the Mux decodes a frame's,
// naming the action by a string of its own. The envelope's Payload
// aliases data.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	env := new(Envelope)
	action, err := decodeHeader(data, env)
	if err != nil {
		return nil, err
	}
	env.Action = string(action)
	return env, nil
}

// AppendHeader is appendHeader, for the tests outside the package.
func AppendHeader(dst []byte, env *Envelope) []byte { return appendHeader(dst, env) }

// RaceEnabled reports a build under the race detector, where a recycled
// message is poisoned instead of emptied.
const RaceEnabled = raceEnabled

// PoisonText is what every string of a poisoned message reads.
const PoisonText = poisonText

// ResetMessage empties *v, a message struct, as its pool does before
// lending it again: every field zero, every list empty with its backing
// array kept.
func ResetMessage(v any) {
	rv := reflect.ValueOf(v).Elem()
	mustCodec(rv.Type()).reset(rv)
}

// ListBytesPerByte bounds the bytes of list items unpacking one byte of
// a t payload can allocate: for each list, reachable through struct
// fields, its Go item size over the fewest bytes one item packs into
// (minItem), summed.
func ListBytesPerByte(t reflect.Type) float64 {
	return mustCodec(t).listBytesPerByte(t)
}

func (c *codec) listBytesPerByte(t reflect.Type) float64 {
	r := 0.0
	for i := range c.fields {
		f := &c.fields[i]
		ft := t.Field(f.index).Type
		if f.slice {
			ft = ft.Elem()
			r += float64(ft.Size()) / float64(max(f.minItem(), 1))
		}
		if f.kind == reflect.Struct {
			r += f.elem.listBytesPerByte(ft)
		}
	}
	return r
}
