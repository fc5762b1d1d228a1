package wire

// DecodeEnvelope decodes envelope bytes as the Mux decodes a frame's: for
// the tests that hold the decoder to encoding/xml from outside the
// package. The envelope's Payload aliases data.
func DecodeEnvelope(data []byte) (*Envelope, error) { return (&buffer{b: data}).decode() }
