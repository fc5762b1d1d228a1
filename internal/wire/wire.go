// Package wire implements the SOAP-style messaging layer between execute
// nodes and the CondorJ2 Application Server — the role gSOAP played in the
// paper's prototype ("the Condor 6.7.x startd and starter modified to
// communicate with the CAS using the gSOAP library").
//
// Requests and responses are envelopes: a header naming the action, then
// a typed payload in its packed form (frame.go, pack.go). Two transports
// share the same envelope encoding:
//
//   - Client/Mux for live deployments: a caller's first POST asks to
//     upgrade its HTTP connection, and from then on both directions carry
//     uvarint(len) ‖ header ‖ payload frames on it, one call in flight per
//     connection (frame.go). A POST that does not ask is refused.
//   - Local, an in-process transport for discrete-event simulations that
//     still encodes every envelope as a frame carries it, so byte counts
//     and code paths match the real thing.
//
// An exchange owns its messages. On the server the request envelope lives
// in a pooled buffer, its typed request in a value Typed lends, and the
// reply is filled in a value Typed lends: a request lives until its
// handler returns; a reply until it is encoded; copy what you keep. Under
// the race detector a message taken back is poisoned (recycle.go).
package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"time"
	"unicode"
)

// Envelope is one request or reply: an action name plus the packed
// payload. Key, when present, is the caller's idempotency key:
// retries of one logical mutating exchange reuse the key, and a server
// with a reply store answers a repeated key by replaying the original
// response instead of re-executing the action. Sent is the client's send
// timestamp (Unix milliseconds); admission control uses it to shed
// requests that aged out in flight rather than queue them. Budget, when
// positive, is the time in milliseconds the caller had left when it sent
// the envelope: dispatch narrows the handler's context to it, so the
// statement work stops when the caller stops waiting, whatever carried
// the envelope.
//
// All but the payload travel in the frame's header (frame.go). A decoded
// Envelope's Payload aliases the bytes it was decoded from. On the server
// those are a pooled request buffer: the envelope and its payload are
// valid until the handler returns, and a handler that keeps either copies
// it.
type Envelope struct {
	Action  string
	Key     string
	Sent    int64
	Budget  int64
	Payload []byte
}

// Fault is the error payload carried by failed calls. RetryAfterMs,
// when positive, is the server's backoff hint: the client should not
// retry sooner (admission control sets it on Overloaded faults so
// backoff is server-coordinated rather than guessed client-side).
// Leader, on NotLeader faults, is the address of the node the caller
// should redirect writes to (empty when the rejecting follower does not
// currently know a leader).
type Fault struct {
	Code         string
	Message      string
	RetryAfterMs int64
	Leader       string
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("wire: fault %s: %s", f.Code, f.Message)
}

// AsFault unwraps a typed *Fault from an error chain — the branch point
// for callers reacting to specific fault codes (NotLeader redirects,
// StaleTerm fencing, Overloaded backoff).
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// maxBody bounds an envelope in either direction. A larger one is refused
// whole (a request before it is sent, a frame closed unread) rather than
// cut short and mis-decoded.
const maxBody = 16 << 20

// A buffer is a pooled byte buffer that envelopes are encoded into and
// frames read into. Whoever takes one releases it once no decoded
// Envelope can still be looking at its bytes.
type buffer struct {
	b     []byte
	env   Envelope // the envelope decoded last, so decoding allocates none
	reply Reply    // the handler's way into b, when the Mux encodes a reply into it
}

var buffers = sync.Pool{New: func() any { return new(buffer) }}

// maxPooledBuffer keeps the odd huge envelope from pinning its buffer.
const maxPooledBuffer = 1 << 20

func newBuffer() *buffer { return buffers.Get().(*buffer) }

func (b *buffer) release() {
	if cap(b.b) <= maxPooledBuffer {
		b.b, b.env, b.reply = b.b[:0], Envelope{}, Reply{}
		buffers.Put(b)
	}
}

// encode appends an envelope: hdr's header, then payload packed.
func (b *buffer) encode(hdr Envelope, payload any) error {
	b.b = appendHeader(b.b, &hdr)
	var err error
	if b.b, err = appendPayload(b.b, payload); err != nil {
		return fmt.Errorf("wire: encode %s: %w", hdr.Action, err)
	}
	return nil
}

// encodeFault appends a Fault envelope.
func (b *buffer) encodeFault(f *Fault) {
	_ = b.encode(Envelope{Action: "Fault"}, f) // cannot fail: Fault's codec compiled when the package loaded
}

// read replaces the buffer's contents with exactly n bytes from r. The
// buffer grows as bytes arrive, to exactly twice what it holds (512 bytes
// at first) or n if that is less, so a peer that declares a length and
// sends less costs what it sent, not what it declared: an append would
// round the capacity up past twice the bytes.
func (b *buffer) read(r io.Reader, n int) error {
	b.b = b.b[:0]
	for len(b.b) != n {
		if len(b.b) == cap(b.b) {
			b.b = append(make([]byte, 0, min(n, len(b.b)+max(len(b.b), 512))), b.b...)
		}
		m, err := r.Read(b.b[len(b.b):min(cap(b.b), n)])
		b.b = b.b[:len(b.b)+m]
		switch {
		case len(b.b) == n:
			return nil
		case err == io.EOF:
			return io.ErrUnexpectedEOF
		case err != nil:
			return err
		}
	}
	return nil
}

var _ = mustCodec(reflect.TypeFor[Fault]())

// DecodePayload unpacks an envelope's payload into out, a pointer to a
// message struct, in place (Unpack). Nothing in out refers to the
// envelope afterwards.
func DecodePayload(env *Envelope, out any) error {
	if err := Unpack(env.Payload, out); err != nil {
		return fmt.Errorf("wire: bad %s payload: %w", env.Action, err)
	}
	return nil
}

// Handler processes one decoded request envelope under the exchange's
// context. It answers with reply.Encode, or returns an error, which the
// mux answers with a Fault instead (whether or not the reply was encoded).
// A handler that returns nil without encoding answers with no payload.
//
// A request lives until its handler returns; a reply until it is encoded;
// copy what you keep. The envelope, its payload and the reply are the
// exchange's: none of them may be used once the handler has returned.
type Handler func(ctx context.Context, env *Envelope, reply *Reply) error

// A Reply is the reply half of one exchange: the outgoing frame the
// handler's answer is encoded into, under the reply action ("heartbeat"
// is answered with "heartbeatResponse").
type Reply struct {
	out    *buffer
	action string
	done   bool
	err    error // Encode's failure: the mux answers EncodeError
}

var errEncodedTwice = errors.New("wire: reply encoded twice")

// Encode encodes payload, a message struct or a pointer to one (nil: no
// payload), as the exchange's reply. Once it returns, the reply's bytes
// are in the outgoing frame and payload is the handler's again. A reply
// is encoded once; a second Encode fails.
func (r *Reply) Encode(payload any) error {
	if r.done {
		return errEncodedTwice
	}
	r.done = true
	mark := len(r.out.b)
	if r.err = r.out.encode(Envelope{Action: r.action}, payload); r.err != nil {
		r.out.b = r.out.b[:mark]
	}
	return r.err
}

// EncodePacked answers with payload, a reply already in its packed form
// (Pack), as it lies: a stored reply replayed as the bytes it was first
// sent as. Like Encode, it answers once.
func (r *Reply) EncodePacked(payload []byte) error {
	if r.done {
		return errEncodedTwice
	}
	r.done = true
	r.out.b = appendHeader(r.out.b, &Envelope{Action: r.action})
	r.out.b = append(r.out.b, payload...)
	return nil
}

// Mux routes actions to handlers. It implements http.Handler and is also
// the dispatch target of the Local transport. An optional admission gate
// (SetAdmission) bounds concurrent dispatches and sheds stale, sheddable
// requests instead of queueing them. The connections it serves framed are
// its own to drain (Shutdown) and sever (Close): an http.Server lets go
// of a connection once it is upgraded.
type Mux struct {
	mu     sync.RWMutex
	routes map[string]route
	gate   *gate

	connMu sync.Mutex
	conns  map[*framedConn]struct{}
	closed bool           // Close ran: upgrades are refused
	served sync.WaitGroup // one per tracked connection
}

// A route is one registered action: its handler, and the action names a
// request and its reply carry, built once so that dispatch allocates
// neither.
type route struct {
	action, reply string
	h             Handler
}

// NewMux creates an empty mux.
func NewMux() *Mux { return &Mux{routes: make(map[string]route)} }

// Handle registers a handler for an action name.
func (m *Mux) Handle(action string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routes[action] = route{action: action, reply: action + "Response", h: h}
}

// Actions lists registered action names (unsorted).
func (m *Mux) Actions() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.routes))
	for a := range m.routes {
		out = append(out, a)
	}
	return out
}

// dispatch decodes the envelope in in, runs its handler and appends the
// response envelope to out (the route's reply action, or "Fault" on
// error). The header's action is looked up in the route table as it lies
// in in, and the envelope is named by the route's own string.
// Cancellation and deadline faults carry their own codes so clients can
// tell a timed-out call from a failed one. The request envelope lives in
// in, which must stay untouched until dispatch returns. The handler runs
// under ctx narrowed to the envelope's budget, when that is the nearer
// deadline.
func (m *Mux) dispatch(ctx context.Context, in, out *buffer) {
	if ctx == nil {
		ctx = context.Background()
	}
	env := &in.env
	action, err := decodeHeader(in.b, env)
	if err != nil {
		out.encodeFault(&Fault{Code: "BadEnvelope", Message: fmt.Sprintf("wire: bad envelope: %v", err)})
		return
	}
	m.mu.RLock()
	rt, ok := m.routes[string(action)]
	g := m.gate
	m.mu.RUnlock()
	if !ok {
		out.encodeFault(&Fault{Code: "UnknownAction", Message: fmt.Sprintf("wire: no handler for action %q", action)})
		return
	}
	env.Action = rt.action
	if env.Budget > 0 {
		dl := time.Now().Add(time.Duration(env.Budget) * time.Millisecond)
		if cur, has := ctx.Deadline(); !has || cur.After(dl) {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, dl)
			defer cancel()
		}
	}
	if g != nil {
		if fault := g.enter(ctx, env); fault != nil {
			out.encodeFault(fault)
			return
		}
		defer g.leave()
	}
	mark := len(out.b)
	reply := &out.reply
	*reply = Reply{out: out, action: rt.reply}
	err = rt.h(ctx, env, reply)
	switch {
	case reply.err != nil:
		err = &Fault{Code: "EncodeError", Message: reply.err.Error()}
	case err == nil && !reply.done:
		err = reply.Encode(nil)
	}
	if err == nil {
		return
	}
	out.b = out.b[:mark]
	var f *Fault
	if !errors.As(err, &f) {
		f = &Fault{Code: faultCode(err), Message: err.Error()}
	}
	out.encodeFault(f)
}

// faultCode classifies a handler error for the fault envelope.
func faultCode(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "DeadlineExceeded"
	case errors.Is(err, context.Canceled):
		return "Canceled"
	}
	return "ServiceError"
}

// ServeHTTP implements http.Handler. A POST asking to upgrade to frames
// becomes a framed connection (serveFrames); any other POST is refused
// with 426, naming the protocol to ask for, and any other method with 405.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "wire endpoint accepts POST only", http.StatusMethodNotAllowed)
		return
	}
	if r.Header.Get("Upgrade") != frameProto {
		w.Header().Set("Upgrade", frameProto)
		http.Error(w, "wire endpoint carries frames only: upgrade to "+frameProto, http.StatusUpgradeRequired)
		return
	}
	m.serveFrames(w, r)
}

var errBodyTooLarge = fmt.Errorf("wire: body exceeds %d bytes", maxBody)

// Typed adapts a handler function of the fill form to a Handler: fn
// reads the request and fills the reply it is given. Both are values
// Typed lends from its own pools (recycle.go): the request is decoded
// into a value whose fields are zero and whose lists are empty, and goes
// back when the handler returns; the reply starts out the same way and
// goes back once it is encoded. So fn keeps neither: a request lives until
// fn returns, a reply until it is encoded, and fn copies what it keeps.
// The exchange context flows through to the service method, which threads
// it into its container transaction. Both message types are compiled
// here, so one with a field the packed form does not carry panics when
// the handler is registered, not when the first request arrives.
func Typed[Req any, Resp any](fn func(context.Context, *Req, *Resp) error) Handler {
	reqs, resps := newMessagePool[Req](), newMessagePool[Resp]()
	return func(ctx context.Context, env *Envelope, reply *Reply) error {
		req := reqs.get()
		defer reqs.put(req)
		if err := DecodePayload(env, req); err != nil {
			return err
		}
		resp := resps.get()
		defer resps.put(resp)
		if err := fn(ctx, req, resp); err != nil {
			return err
		}
		return reply.Encode(resp)
	}
}

// Caller issues a request/response exchange with a service endpoint. Both
// the HTTP client and the in-process Local transport satisfy it.
type Caller interface {
	// Call sends action+req under ctx and decodes the response payload
	// into resp (ignored when resp is nil). Service faults come back as
	// *Fault. Cancelling ctx abandons the exchange; its deadline rides
	// the envelope as its budget, so both sides stop at the same instant.
	Call(ctx context.Context, action string, req, resp any) error
}

// decodeResponse handles the shared fault/response branching on in's
// envelope, whose action is compared as it lies in in: a reply names one
// of two actions, so naming it allocates nothing. Nothing it returns or
// fills in refers to in afterwards.
func decodeResponse(action string, in *buffer, resp any) error {
	env := &in.env
	name, err := decodeHeader(in.b, env)
	if err != nil {
		return fmt.Errorf("wire: bad envelope: %w", err)
	}
	if string(name) == "Fault" {
		var f Fault
		if err := Unpack(env.Payload, &f); err != nil {
			return fmt.Errorf("wire: bad Fault payload: %w", err)
		}
		return &f
	}
	if len(name) != len(action)+len("Response") || string(name[:len(action)]) != action || string(name[len(action):]) != "Response" {
		return fmt.Errorf("wire: expected %sResponse, got %s", action, name)
	}
	if resp == nil {
		return nil
	}
	if err := Unpack(env.Payload, resp); err != nil {
		return fmt.Errorf("wire: bad %sResponse payload: %w", action, err)
	}
	return nil
}

// request is the envelope header a call under ctx sends: the action, the
// idempotency key, the send time and the budget, rounded up to whole
// milliseconds.
func request(ctx context.Context, action string) Envelope {
	now := time.Now()
	hdr := Envelope{Action: action, Key: IdempotencyKeyFromContext(ctx), Sent: now.UnixMilli()}
	if dl, has := ctx.Deadline(); has && dl.After(now) {
		hdr.Budget = int64((dl.Sub(now) + time.Millisecond - 1) / time.Millisecond)
	}
	return hdr
}

// Client is the HTTP Caller: it carries its calls as frames on upgraded
// connections to URL, one call in flight per connection, and keeps a few
// idle ones between calls. A call's context is its only deadline, and the
// deadline rides the envelope as its budget. A connection that fails, or
// whose call's context ends, is closed, never reused: the call fails with
// a transport error, which Retryable counts retryable, and the caller's
// retry (a Retryer, or the node agent's own chain) re-sends it under the
// same key on a fresh connection.
type Client struct {
	// URL is the service endpoint (e.g. http://cas:8080/services).
	URL string
	// HTTP opens the connections: a POST whose 101 answer hands the
	// connection over. nil means http.DefaultClient. It must not set a
	// Timeout, which would make the upgraded connection unwritable; a
	// call's context bounds the call.
	HTTP *http.Client

	mu   sync.Mutex
	idle []*clientConn
}

// maxIdleConns bounds the connections a Client keeps between calls.
const maxIdleConns = 4

// A clientConn is one upgraded connection of a Client.
type clientConn struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
}

// Call implements Caller. A status other than 101 to the upgrade, or a
// request over maxBody, surfaces as a typed *Fault (code "HTTP<status>";
// "HTTP413" for the oversize request, refused before it is sent), so
// callers branch on it exactly like a service fault; so does a reply
// over maxBody ("ReplyTooLarge"), which is not retried.
func (c *Client) Call(ctx context.Context, action string, req, resp any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("wire: %s: %w", c.URL, err)
	}
	out := newBuffer()
	defer out.release()
	out.startFrame()
	if err := out.encode(request(ctx, action), req); err != nil {
		return err
	}
	if len(out.b)-frameHeader > maxBody {
		return &Fault{Code: "HTTP413", Message: fmt.Sprintf("%s: request: %v", c.URL, errBodyTooLarge)}
	}
	cc, err := c.take(ctx)
	if err != nil {
		return err
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { cc.rwc.Close() })
	}
	in := newBuffer()
	defer in.release()
	_, err = cc.rwc.Write(out.frame())
	if err == nil {
		err = in.readFrame(cc.br)
	}
	cut := stop != nil && !stop() // ctx ended: the connection is closed
	switch {
	case err != nil && cut:
		return fmt.Errorf("wire: %s: %w", c.URL, ctx.Err())
	case err != nil:
		cc.rwc.Close()
		if errors.Is(err, errBodyTooLarge) {
			return &Fault{Code: "ReplyTooLarge", Message: fmt.Sprintf("%s: reply: %v", c.URL, err)}
		}
		return fmt.Errorf("wire: %s: %w", c.URL, err)
	case !cut:
		c.put(cc)
	}
	return decodeResponse(action, in, resp)
}

// take returns an idle connection, or upgrades a new one under ctx.
func (c *Client) take(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL, nil)
	if err != nil {
		return nil, fmt.Errorf("wire: POST %s: %w", c.URL, err)
	}
	hreq.Header.Set("Connection", "Upgrade")
	hreq.Header.Set("Upgrade", frameProto)
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("wire: POST %s: %w", c.URL, err)
	}
	if hresp.StatusCode != http.StatusSwitchingProtocols {
		defer hresp.Body.Close()
		// Best effort: whatever arrived words the fault, without the
		// trailing newline http.Error ends a body with, so a log line that
		// quotes the fault stays one line.
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return nil, &Fault{
			Code:    fmt.Sprintf("HTTP%d", hresp.StatusCode),
			Message: fmt.Sprintf("POST %s: %s: %s", c.URL, hresp.Status, bytes.TrimRightFunc(msg, unicode.IsSpace)),
		}
	}
	rwc, ok := hresp.Body.(io.ReadWriteCloser)
	if !ok {
		hresp.Body.Close()
		return nil, fmt.Errorf("wire: POST %s: the upgraded connection is not writable", c.URL)
	}
	return &clientConn{rwc: rwc, br: bufio.NewReader(rwc)}, nil
}

// put keeps cc for the next call, or closes it when enough are idle.
func (c *Client) put(cc *clientConn) {
	c.mu.Lock()
	keep := len(c.idle) < maxIdleConns
	if keep {
		c.idle = append(c.idle, cc)
	}
	c.mu.Unlock()
	if !keep {
		cc.rwc.Close()
	}
}

// Local is an in-process Caller that still round-trips every message
// through the envelope encoding a frame carries — the header, then the
// packed payload — so simulations exercise the same serialization path and
// can meter realistic message sizes (OnCall's byte counts are those of
// the frames' envelopes, without the length prefix). The call
// context reaches the handler directly — cancellation and deadlines act
// as over HTTP, to the instant rather than to the budget's millisecond.
type Local struct {
	// Mux is the dispatch target.
	Mux *Mux
	// OnCall, when set, observes every exchange (for CPU cost accounting
	// in simulations).
	OnCall func(action string, reqBytes, respBytes int)
}

// Call implements Caller.
func (l *Local) Call(ctx context.Context, action string, req, resp any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	out := newBuffer()
	defer out.release()
	if err := out.encode(request(ctx, action), req); err != nil {
		return err
	}
	in := newBuffer()
	defer in.release()
	l.Mux.dispatch(ctx, out, in)
	if l.OnCall != nil {
		l.OnCall(action, len(out.b), len(in.b))
	}
	return decodeResponse(action, in, resp)
}
