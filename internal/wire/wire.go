// Package wire implements the SOAP-style messaging layer between execute
// nodes and the CondorJ2 Application Server — the role gSOAP played in the
// paper's prototype ("the Condor 6.7.x startd and starter modified to
// communicate with the CAS using the gSOAP library").
//
// Requests and responses are XML envelopes carrying a named action and a
// typed payload. Two transports share the same envelope encoding:
//
//   - Client/Mux over net/http for live deployments, and
//   - Local, an in-process transport for discrete-event simulations that
//     still marshals every message through XML so byte counts and code
//     paths match the real thing.
package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Envelope is the on-the-wire frame: an action name plus the payload
// element's raw XML. Key, when present, is the caller's idempotency key:
// retries of one logical mutating exchange reuse the key, and a server
// with a reply store answers a repeated key by replaying the original
// response instead of re-executing the action. Sent is the client's send
// timestamp (Unix milliseconds); admission control uses it to shed
// requests that aged out in flight rather than queue them.
//
// A decoded Envelope's Payload aliases the bytes it was decoded from. On
// the server those are a pooled request buffer: the envelope and its
// payload are valid until the handler returns, and a handler that keeps
// either copies it.
type Envelope struct {
	XMLName struct{} `xml:"Envelope"`
	Action  string   `xml:"action,attr"`
	Key     string   `xml:"idem,attr,omitempty"`
	Sent    int64    `xml:"sent,attr,omitempty"`
	Payload []byte   `xml:",innerxml"`
}

// Fault is the error payload carried by failed calls. RetryAfterMs,
// when positive, is the server's backoff hint: the client should not
// retry sooner (admission control sets it on Overloaded faults so
// backoff is server-coordinated rather than guessed client-side).
// Leader, on NotLeader faults, is the address of the node the caller
// should redirect writes to (empty when the rejecting follower does not
// currently know a leader).
type Fault struct {
	XMLName      struct{} `xml:"Fault"`
	Code         string   `xml:"Code"`
	Message      string   `xml:"Message"`
	RetryAfterMs int64    `xml:"RetryAfterMs,omitempty"`
	Leader       string   `xml:"Leader,omitempty"`
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

// maxBody bounds an envelope in either direction. A larger body is
// refused whole (HTTP 413) rather than cut short and mis-decoded.
const maxBody = 16 << 20

// A buffer is a pooled byte buffer that envelopes are encoded into and
// bodies read into. Whoever takes one releases it once nothing — no
// decoded Envelope, no HTTP transport — can still be looking at its bytes.
type buffer struct {
	b    []byte
	env  Envelope     // frame header scratch, so encoding one allocates nothing
	refs atomic.Int32 // holders; the last release pools the buffer
}

var buffers = sync.Pool{New: func() any { return new(buffer) }}

// maxPooledBuffer keeps the odd huge envelope from pinning its buffer.
const maxPooledBuffer = 1 << 20

func newBuffer() *buffer {
	b := buffers.Get().(*buffer)
	b.refs.Store(1)
	return b
}

func (b *buffer) release() {
	if b.refs.Add(-1) == 0 && cap(b.b) <= maxPooledBuffer {
		b.b = b.b[:0]
		buffers.Put(b)
	}
}

// encode appends the envelope framing payload.
func (b *buffer) encode(action, key string, sent int64, payload any) error {
	b.env = Envelope{Action: action, Key: key, Sent: sent}
	b.b = envelopeCodec.appendStart(b.b, envelopeCodec.name, reflect.ValueOf(&b.env).Elem())
	b.env = Envelope{}
	var err error
	if b.b, err = appendPayload(b.b, payload); err != nil {
		return fmt.Errorf("wire: encode %s: %w", action, err)
	}
	b.b = appendTag(b.b, "</", envelopeCodec.name)
	return nil
}

// encodeFault appends a Fault envelope.
func (b *buffer) encodeFault(f *Fault) {
	_ = b.encode("Fault", "", 0, f) // cannot fail: Fault's codec compiled when the package loaded
}

// read replaces the buffer's contents with r's: exactly n bytes when the
// length is known, everything up to EOF when n is negative.
func (b *buffer) read(r io.Reader, n int64) error {
	if n >= 0 {
		b.b = slices.Grow(b.b[:0], int(n))[:n]
		_, err := io.ReadFull(r, b.b)
		return err
	}
	b.b = b.b[:0]
	for {
		b.b = slices.Grow(b.b, 512)
		m, err := r.Read(b.b[len(b.b):cap(b.b)])
		b.b = b.b[:len(b.b)+m]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// body returns an HTTP request body reading the buffer, and holding it
// until closed: net/http promises only that the transport closes a
// request body when it is done with it, which can be after Do returns.
func (b *buffer) body() io.ReadCloser {
	b.refs.Add(1)
	rb := &requestBody{buf: b}
	rb.Reset(b.b)
	return rb
}

type requestBody struct {
	bytes.Reader
	buf    *buffer
	closed atomic.Bool
}

func (r *requestBody) Close() error {
	if !r.closed.Swap(true) {
		r.buf.release()
	}
	return nil
}

var (
	envelopeCodec = mustCodec(reflect.TypeFor[Envelope]())
	_             = mustCodec(reflect.TypeFor[Fault]())
)

// mustCodec compiles t's codec, panicking when its tags are outside the
// codec's vocabulary — a programming error that should stop the process
// at start-up, not surface per request.
func mustCodec(t reflect.Type) *codec {
	c, err := codecFor(t)
	if err != nil {
		panic(err)
	}
	return c
}

// Encode marshals an action and payload into envelope bytes.
func Encode(action string, payload any) ([]byte, error) {
	b := newBuffer()
	defer b.release()
	if err := b.encode(action, "", 0, payload); err != nil {
		return nil, err
	}
	return bytes.Clone(b.b), nil
}

// Decode unmarshals envelope bytes. The envelope's Payload aliases data.
func Decode(data []byte) (*Envelope, error) {
	var env Envelope
	if err := decodeElement(data, &env); err != nil {
		return nil, fmt.Errorf("wire: bad envelope: %w", err)
	}
	if env.Action == "" {
		return nil, fmt.Errorf("wire: envelope missing action")
	}
	return &env, nil
}

// DecodePayload unmarshals an envelope's payload into out, a pointer to
// a message struct. Decoded strings are copies; nothing in out refers to
// the envelope afterwards.
func DecodePayload(env *Envelope, out any) error {
	if err := decodeElement(env.Payload, out); err != nil {
		return fmt.Errorf("wire: bad %s payload: %w", env.Action, err)
	}
	return nil
}

// DeadlineHeader carries the caller's remaining time budget, in
// milliseconds, on HTTP exchanges. The server re-arms the same deadline
// on the handler's context, so a client-side timeout bounds the
// server-side statement work too — cancellation propagates from wire to
// engine instead of leaving the server grinding on an answer nobody is
// waiting for.
const DeadlineHeader = "X-Wire-Deadline-Ms"

// Handler processes one decoded request envelope under the exchange's
// context and returns the response payload (marshalled by the mux) or an
// error (returned as a Fault).
type Handler func(ctx context.Context, env *Envelope) (any, error)

// Mux routes actions to handlers. It implements http.Handler and is also
// the dispatch target of the Local transport. An optional admission gate
// (SetAdmission) bounds concurrent dispatches and sheds stale, sheddable
// requests instead of queueing them.
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	gate     *gate
}

// NewMux creates an empty mux.
func NewMux() *Mux { return &Mux{handlers: make(map[string]Handler)} }

// Handle registers a handler for an action name.
func (m *Mux) Handle(action string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[action] = h
}

// Actions lists registered action names (unsorted).
func (m *Mux) Actions() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.handlers))
	for a := range m.handlers {
		out = append(out, a)
	}
	return out
}

// Dispatch decodes raw envelope bytes, runs the handler under ctx, and
// encodes the response envelope (action suffixed "Response", or "Fault"
// on error). Cancellation and deadline faults carry their own codes so
// clients can tell a timed-out call from a failed one.
func (m *Mux) Dispatch(ctx context.Context, data []byte) []byte {
	out := newBuffer()
	defer out.release()
	m.dispatch(ctx, data, out)
	return bytes.Clone(out.b)
}

// dispatch is Dispatch with the response envelope appended to out. The
// request envelope aliases data, which must stay untouched until
// dispatch returns.
func (m *Mux) dispatch(ctx context.Context, data []byte, out *buffer) {
	if ctx == nil {
		ctx = context.Background()
	}
	env, err := Decode(data)
	if err != nil {
		out.encodeFault(&Fault{Code: "BadEnvelope", Message: err.Error()})
		return
	}
	m.mu.RLock()
	h, ok := m.handlers[env.Action]
	g := m.gate
	m.mu.RUnlock()
	if !ok {
		out.encodeFault(&Fault{Code: "UnknownAction", Message: fmt.Sprintf("wire: no handler for action %q", env.Action)})
		return
	}
	if g != nil {
		release, fault := g.enter(ctx, env)
		if fault != nil {
			out.encodeFault(fault)
			return
		}
		defer release()
	}
	resp, err := h(ctx, env)
	if err == nil {
		mark := len(out.b)
		if err = out.encode(env.Action+"Response", "", 0, resp); err == nil {
			return
		}
		out.b = out.b[:mark]
		out.encodeFault(&Fault{Code: "EncodeError", Message: err.Error()})
		return
	}
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

// ServeHTTP implements http.Handler: POST an envelope, receive an
// envelope. The handler context is the request's, narrowed by the
// caller's deadline header when present — the server honors whichever
// budget the client declared, so in-flight statements are cancelled the
// moment the caller stops waiting. A body over maxBody is refused with
// 413 before it is read.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "wire endpoint accepts POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx := r.Context()
	if hdr := r.Header.Get(DeadlineHeader); hdr != "" {
		if ms, err := strconv.ParseInt(hdr, 10, 64); err == nil && ms > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}
	}
	if r.ContentLength > maxBody {
		http.Error(w, errBodyTooLarge.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	req := newBuffer()
	defer req.release()
	body := io.Reader(r.Body)
	if r.ContentLength < 0 { // chunked: the length shows only as it arrives
		body = http.MaxBytesReader(w, r.Body, maxBody)
	}
	if err := req.read(body, r.ContentLength); err != nil {
		status := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	resp := newBuffer()
	defer resp.release()
	m.dispatch(ctx, req.b, resp)
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.b)))
	w.Write(resp.b)
}

var errBodyTooLarge = fmt.Errorf("wire: body exceeds %d bytes", maxBody)

// Typed adapts a strongly typed handler function to a Handler. Req is
// decoded from the payload; the response is marshalled by the mux. The
// exchange context flows through to the service method, which threads it
// into its container transaction. Both message types are compiled here,
// so one with a tag the codec does not support panics when the handler
// is registered, not when the first request arrives.
func Typed[Req any, Resp any](fn func(context.Context, *Req) (*Resp, error)) Handler {
	mustCodec(reflect.TypeFor[Req]())
	mustCodec(reflect.TypeFor[Resp]())
	return func(ctx context.Context, env *Envelope) (any, error) {
		req := new(Req)
		if err := DecodePayload(env, req); err != nil {
			return nil, err
		}
		return fn(ctx, req)
	}
}

// Caller issues a request/response exchange with a service endpoint. Both
// the HTTP client and the in-process Local transport satisfy it.
type Caller interface {
	// Call sends action+req under ctx and decodes the response payload
	// into resp (ignored when resp is nil). Service faults come back as
	// *Fault. Cancelling ctx abandons the exchange; its deadline is
	// forwarded to the server so both sides stop at the same instant.
	Call(ctx context.Context, action string, req, resp any) error
}

// decodeResponse handles the shared fault/response branching. Nothing it
// returns or fills in refers to data afterwards.
func decodeResponse(action string, data []byte, resp any) error {
	env, err := Decode(data)
	if err != nil {
		return err
	}
	if env.Action == "Fault" {
		var f Fault
		if err := DecodePayload(env, &f); err != nil {
			return err
		}
		return &f
	}
	if env.Action != action+"Response" {
		return fmt.Errorf("wire: expected %sResponse, got %s", action, env.Action)
	}
	if resp == nil {
		return nil
	}
	return DecodePayload(env, resp)
}

// pooledClient is the shared HTTP client behind every wire.Client that
// does not bring its own: keep-alive connection pooling sized for a
// daemon fleet hammering one CAS endpoint, instead of
// http.DefaultClient's general-purpose defaults. Request lifetimes are
// governed per call by ctx (plus Client.Timeout), never by a global
// client timeout that would cap long administrative calls.
var pooledClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	},
}

// Client is an HTTP Caller.
type Client struct {
	// URL is the service endpoint (e.g. http://cas:8080/services).
	URL string
	// HTTP is the underlying client; nil means the package's pooled
	// keep-alive client.
	HTTP *http.Client
	// Timeout is the default per-request budget applied when the call
	// context carries no deadline of its own (0 = none). The effective
	// deadline — from ctx or from here — is forwarded to the server in
	// the deadline header.
	Timeout time.Duration
}

// Call implements Caller over HTTP POST. Non-2xx statuses surface as
// typed *Fault values (code "HTTP<status>") rather than opaque errors,
// so callers branch on them exactly like service faults; so does a reply
// over maxBody ("ReplyTooLarge"), which is not retried.
func (c *Client) Call(ctx context.Context, action string, req, resp any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	out := newBuffer()
	defer out.release()
	if err := out.encode(action, IdempotencyKeyFromContext(ctx), time.Now().UnixMilli(), req); err != nil {
		return err
	}
	if _, has := ctx.Deadline(); !has && c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL, nil)
	if err != nil {
		return fmt.Errorf("wire: POST %s: %w", c.URL, err)
	}
	httpReq.Body = out.body()
	httpReq.GetBody = func() (io.ReadCloser, error) { return out.body(), nil }
	httpReq.ContentLength = int64(len(out.b))
	httpReq.Header.Set("Content-Type", "text/xml; charset=utf-8")
	if dl, has := ctx.Deadline(); has {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			httpReq.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	hc := c.HTTP
	if hc == nil {
		hc = pooledClient
	}
	httpResp, err := hc.Do(httpReq)
	if err != nil {
		return fmt.Errorf("wire: POST %s: %w", c.URL, err)
	}
	defer httpResp.Body.Close()
	in := newBuffer()
	defer in.release()
	if httpResp.StatusCode < 200 || httpResp.StatusCode > 299 {
		in.read(io.LimitReader(httpResp.Body, 512), -1) // best effort: whatever arrived words the fault
		return &Fault{
			Code:    fmt.Sprintf("HTTP%d", httpResp.StatusCode),
			Message: fmt.Sprintf("POST %s: %s: %s", c.URL, httpResp.Status, in.b),
		}
	}
	n := httpResp.ContentLength
	tooLarge := n > maxBody
	if !tooLarge {
		body := io.Reader(httpResp.Body)
		if n < 0 { // chunked: one byte past the bound tells too large from just fits
			body = io.LimitReader(body, maxBody+1)
		}
		if err := in.read(body, n); err != nil {
			return fmt.Errorf("wire: POST %s: reading reply: %w", c.URL, err)
		}
		tooLarge = len(in.b) > maxBody
	}
	if tooLarge {
		return &Fault{Code: "ReplyTooLarge", Message: fmt.Sprintf("POST %s: reply: %v", c.URL, errBodyTooLarge)}
	}
	return decodeResponse(action, in.b, resp)
}

// Local is an in-process Caller that still round-trips every message
// through the XML envelope encoding, so simulations exercise the same
// serialization path and can meter realistic message sizes. The call
// context reaches the handler directly — cancellation semantics are
// identical to the HTTP transport, minus the millisecond re-encoding.
type Local struct {
	// Mux is the dispatch target.
	Mux *Mux
	// OnCall, when set, observes every exchange (for CPU cost accounting
	// in simulations).
	OnCall func(action string, reqBytes, respBytes int)
}

// Call implements Caller.
func (l *Local) Call(ctx context.Context, action string, req, resp any) error {
	out := newBuffer()
	defer out.release()
	if err := out.encode(action, IdempotencyKeyFromContext(ctx), time.Now().UnixMilli(), req); err != nil {
		return err
	}
	in := newBuffer()
	defer in.release()
	l.Mux.dispatch(ctx, out.b, in)
	if l.OnCall != nil {
		l.OnCall(action, len(out.b), len(in.b))
	}
	return decodeResponse(action, in.b, resp)
}
