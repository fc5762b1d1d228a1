package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one client
// request share Req; Parent is the span that caused this one (0 = root).
// Device spans carry neither: a sync serves a whole commit group, so they
// are attributed to requests by overlap in time, not by id.
type span struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent,omitempty"`
	Req     uint32 `json:"req,omitempty"`
}

// tracer collects spans in memory; they are written out only at exit.
// Every method is safe on a nil tracer and cheap while tracing is off, so
// call sites need not branch.
type tracer struct {
	on   atomic.Bool
	t0   time.Time
	next atomic.Uint32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span's handle; the zero value is "not tracing".
type openSpan struct {
	name   string
	start  time.Time
	id     uint32
	parent uint32
	req    uint32
}

// active reports whether spans are being recorded, for call sites that
// would otherwise build a span name for nothing.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) begin(name string, parent, req uint32) openSpan {
	if !t.active() {
		return openSpan{}
	}
	return openSpan{name: name, start: time.Now(), id: t.next.Add(1), parent: parent, req: req}
}

func (t *tracer) end(s openSpan) {
	if s.id == 0 {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name:    s.name,
		StartUs: s.start.Sub(t.t0).Microseconds(),
		EndUs:   end.Sub(t.t0).Microseconds(),
		ID:      s.id, Parent: s.parent, Req: s.req,
	})
	t.mu.Unlock()
}

// spanSummary is the per-name roll-up written to the layers file: how
// many spans, their total time, and their self time (total minus the part
// covered by child spans).
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) summary() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint32]int64) // parent id → µs covered by children
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndUs - s.StartUs
		}
	}
	out := make(map[string]spanSummary)
	for _, s := range t.spans {
		d := s.EndUs - s.StartUs
		sum := out[s.Name]
		sum.Count++
		sum.TotalMs += float64(d) / 1e3
		sum.SelfMs += float64(d-children[s.ID]) / 1e3
		out[s.Name] = sum
	}
	return out
}

// writeFile dumps every span as one JSON object per line, ordered by
// start time.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].StartUs < t.spans[j].StartUs })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request ids cross the HTTP hop in headers set by a harness RoundTripper
// and read by a harness wrapper around the CAS handler; the program under
// test sees neither.
const (
	reqIDHeader  = "X-Bench-Req"
	spanIDHeader = "X-Bench-Span"
)

type traceCtxKey struct{}

type traceRef struct{ span, req uint32 }

func withTraceRef(ctx context.Context, s openSpan) context.Context {
	if s.id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, traceRef{span: s.id, req: s.req})
}

// tracingTransport carries the calling span across HTTP and meters the
// bytes each exchange moves.
type tracingTransport struct {
	inner               http.RoundTripper
	tr                  *tracer
	reqBytes, respBytes *atomic.Int64
}

func (t *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(traceCtxKey{}).(traceRef); ok {
		r.Header.Set(reqIDHeader, strconv.FormatUint(uint64(ref.req), 10))
		r.Header.Set(spanIDHeader, strconv.FormatUint(uint64(ref.span), 10))
	}
	t.reqBytes.Add(r.ContentLength)
	resp, err := t.inner.RoundTrip(r)
	if err == nil && resp.ContentLength > 0 {
		t.respBytes.Add(resp.ContentLength)
	}
	return resp, err
}

// tracingHandler records the server side of an HTTP exchange as a child
// of the client span named in the request headers.
func tracingHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 32)
		parent, _ := strconv.ParseUint(r.Header.Get(spanIDHeader), 10, 32)
		sp := tr.begin("http.handler", uint32(parent), uint32(req))
		next.ServeHTTP(w, r)
		tr.end(sp)
	})
}
