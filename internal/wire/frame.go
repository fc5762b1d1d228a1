package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"time"
	"unicode/utf8"
)

// Framed connections. A Client's first POST to a Mux carries no body and
// asks to upgrade (Connection: Upgrade, Upgrade: frameProto); the Mux
// hijacks the connection and answers 101. From then on both directions
// carry frames, uvarint(len) ‖ header ‖ payload, one call in flight per
// connection, so replies come back in order and need no request id.
//
// The header holds all of the envelope but its payload: the action and
// the idempotency key, each uvarint(len) ‖ bytes, then Sent and Budget as
// uvarints. The payload is the rest of the frame: the message packed
// (pack.go), or nothing. Both have one byte form and their decoders
// accept nothing else — varints minimal, lengths within the frame, a
// non-empty action, the header's strings UTF-8, its numbers within int64
// — so an accepted envelope encodes again to the same bytes. The key,
// send stamp and budget ride every frame, so dedup, admission and
// deadlines work on it as they do on Local's.

// frameProto is the Upgrade token that asks for frames. Its version names
// the frame's layout — /2 carried an XML payload, /3 a packed one — and a
// peer that asks for another is refused at the upgrade, with 426 naming
// this one.
const frameProto = "condorj2-frames/3"

// switchedToFrames is the Mux's answer to an upgrade.
var switchedToFrames = []byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + frameProto + "\r\n\r\n")

// frameHeader is the room startFrame keeps ahead of an envelope: the
// longest uvarint.
const frameHeader = binary.MaxVarintLen64

// startFrame empties the buffer and keeps room for a frame header ahead
// of the envelope encoded into it next.
func (b *buffer) startFrame() {
	b.b = slices.Grow(b.b[:0], frameHeader)[:frameHeader]
}

// frame returns the envelope encoded since startFrame behind its length:
// one frame, ready for one Write.
func (b *buffer) frame() []byte {
	var hdr [frameHeader]byte
	n := binary.PutUvarint(hdr[:], uint64(len(b.b)-frameHeader))
	start := frameHeader - n
	copy(b.b[start:], hdr[:n])
	return b.b[start:]
}

// appendHeader appends env's header. A negative Sent or Budget is written
// as 0: none.
func appendHeader(dst []byte, env *Envelope) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(env.Action)))
	dst = append(dst, env.Action...)
	dst = binary.AppendUvarint(dst, uint64(len(env.Key)))
	dst = append(dst, env.Key...)
	dst = binary.AppendUvarint(dst, uint64(max(env.Sent, 0)))
	return binary.AppendUvarint(dst, uint64(max(env.Budget, 0)))
}

// decodeHeader decodes the envelope in data, a frame's bytes after its
// length, into env, all but its Action: it returns the action's bytes,
// which alias data, for the caller to name (a Mux by its route, a client
// by the reply it expects). env's Payload aliases data.
func decodeHeader(data []byte, env *Envelope) (action []byte, err error) {
	u := unpacker{in: data}
	action, err = u.bytes()
	var key []byte
	var sent, budget uint64
	if err == nil {
		key, err = u.bytes()
	}
	if err == nil {
		sent, err = u.uvarint()
	}
	if err == nil {
		budget, err = u.uvarint()
	}
	switch {
	case err != nil:
	case len(action) == 0:
		err = errors.New("no action")
	case !utf8.Valid(action) || !utf8.Valid(key):
		err = errors.New("action or key not UTF-8")
	case sent > math.MaxInt64 || budget > math.MaxInt64:
		err = errPackedRange
	}
	if err != nil {
		return nil, fmt.Errorf("header: %w at offset %d", err, len(data)-len(u.in))
	}
	*env = Envelope{Key: string(key), Sent: int64(sent), Budget: int64(budget), Payload: u.in[:len(u.in):len(u.in)]}
	return action, nil
}

// frameReader is what reads frames: the length byte by byte, the
// envelope in bulk.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// readFrame replaces the buffer's contents with the next frame's
// envelope. A declared length over maxBody is refused with
// errBodyTooLarge before any of the envelope is read.
func (b *buffer) readFrame(r frameReader) error {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	if n > maxBody {
		return errBodyTooLarge
	}
	return b.read(r, int(n))
}

// A framedConn is one connection a Mux serves frames on. cancel ends the
// context its envelopes run under. busy is set from the moment a whole
// frame has arrived until its reply is written; draining asks the
// connection to close at its next frame boundary. The Mux's connMu
// guards both.
type framedConn struct {
	net.Conn
	cancel         context.CancelFunc
	busy, draining bool
}

// serveFrames upgrades the request's connection and dispatches the frames
// it carries until the caller closes it, a frame is malformed or over
// maxBody, or the Mux drains or closes it. Each envelope runs under the
// request's context (narrowed by its budget in dispatch), which Close
// also cancels.
func (m *Mux) serveFrames(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "wire: this server cannot upgrade a connection", http.StatusNotImplemented)
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	c := &framedConn{Conn: conn, cancel: cancel}
	if !m.track(c) {
		conn.Close()
		return
	}
	defer m.untrack(c)
	defer conn.Close()
	if _, err := conn.Write(switchedToFrames); err != nil {
		return
	}
	for m.serveFrame(ctx, c, rw.Reader) {
	}
}

// serveFrame reads one frame from c, dispatches its envelope under ctx and
// writes the reply; false when c is to close instead.
func (m *Mux) serveFrame(ctx context.Context, c *framedConn, br *bufio.Reader) bool {
	in, out := newBuffer(), newBuffer()
	defer in.release()
	defer out.release()
	if in.readFrame(br) != nil || !m.setBusy(c, true) {
		return false
	}
	out.startFrame()
	m.dispatch(ctx, in, out)
	_, err := c.Write(out.frame())
	return err == nil && m.setBusy(c, false)
}

// track adds c to the Mux's framed connections; false once Close ran.
func (m *Mux) track(c *framedConn) bool {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	if m.closed {
		return false
	}
	if m.conns == nil {
		m.conns = make(map[*framedConn]struct{})
	}
	m.conns[c] = struct{}{}
	m.served.Add(1)
	return true
}

func (m *Mux) untrack(c *framedConn) {
	m.connMu.Lock()
	delete(m.conns, c)
	m.connMu.Unlock()
	m.served.Done()
}

// setBusy marks c busy or idle; false when c is to close instead.
func (m *Mux) setBusy(c *framedConn, busy bool) bool {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	c.busy = busy
	return !c.draining
}

// Shutdown drains the Mux's framed connections: an idle one closes now,
// a busy one once the reply to the envelope in hand is written. It
// returns once none is left, or with ctx's error when ctx ends first. An
// http.Server's Shutdown does not reach connections it has handed over,
// so a daemon registers this beside it (RegisterOnShutdown); Close
// severs whatever a drain leaves.
func (m *Mux) Shutdown(ctx context.Context) error {
	for wait := time.Millisecond; ; wait = min(2*wait, 100*time.Millisecond) {
		m.connMu.Lock()
		for c := range m.conns {
			c.draining = true
			if !c.busy {
				c.Close()
			}
		}
		left := len(m.conns)
		m.connMu.Unlock()
		if left == 0 {
			return nil
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Close severs every framed connection, busy or not, cancelling the
// envelopes in hand, refuses new upgrades, and returns once no goroutine
// serves a framed connection: the Mux's owner is going away.
func (m *Mux) Close() {
	m.connMu.Lock()
	m.closed = true
	for c := range m.conns {
		c.draining = true
		c.cancel()
		c.Close()
	}
	m.connMu.Unlock()
	m.served.Wait()
}
