package wire

import "bytes"

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

// DecodeEnvelope decodes envelope bytes as the Mux decodes a frame's. The
// envelope's Payload aliases data.
func DecodeEnvelope(data []byte) (*Envelope, error) { return (&buffer{b: data}).decode() }

// AppendHeader is appendHeader, for the tests outside the package.
func AppendHeader(dst []byte, env *Envelope) []byte { return appendHeader(dst, env) }
