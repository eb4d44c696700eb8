package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Trace is one request's worth of spans. The middleware creates it, hangs it
// on the request context, and hands the finished trace to a Recorder; code
// on the request path opens spans through StartSpan (directly, via the
// traced governor, or via the core probe). All methods are safe on a nil
// receiver — a handler invoked without the tracing middleware (unit tests,
// embedded use) records nothing and pays a nil check.
type Trace struct {
	mu    sync.Mutex
	id    string
	start time.Time // monotonic anchor; span offsets are Since(start)

	// Endpoint and Status are stamped by the middleware when the handler
	// returns, before the trace reaches the Recorder.
	endpoint string
	status   int
	spans    []spanRecord

	// doneNS is the offset at which the Recorder sealed the trace, or -1
	// while it is live. A sealed trace takes no new spans, ends no open
	// ones and renders open spans up to doneNS, so its view never changes.
	doneNS int64
}

// spanRecord is one completed (or still-open) section of a trace.
type spanRecord struct {
	name    string
	startNS int64
	endNS   int64 // -1 while open
	attrs   []Attr
}

// NewTrace starts a trace with the given request id.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now(), doneNS: -1}
}

// NewID returns a fresh 16-hex-character request id.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero id beats a
		// panic on a diagnostics path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// SetResult stamps the matched endpoint pattern and HTTP status.
func (t *Trace) SetResult(endpoint string, status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.endpoint, t.status = endpoint, status
	t.mu.Unlock()
}

// Span is a handle on one open span; End closes it. The zero Span (from a
// nil trace) is a no-op.
type Span struct {
	tr  *Trace
	idx int
}

// StartSpan opens a named span at the current time.
func (t *Trace) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.doneNS >= 0 {
		return Span{}
	}
	idx := len(t.spans)
	t.spans = append(t.spans, spanRecord{name: name, startNS: now, endNS: -1})
	return Span{tr: t, idx: idx}
}

// End closes the span, attaching the given attributes. Attributes pass
// through the closed scalar Attr vocabulary — that, not this method, is the
// redaction boundary.
func (s Span) End(attrs ...Attr) {
	if s.tr == nil {
		return
	}
	now := time.Since(s.tr.start).Nanoseconds()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.tr.doneNS >= 0 {
		return
	}
	rec := &s.tr.spans[s.idx]
	if rec.endNS < 0 {
		rec.endNS = now
	}
	if len(attrs) > 0 {
		rec.attrs = append(rec.attrs, attrs...)
	}
}

// seal freezes the trace at the current offset; see doneNS. Sealing twice
// keeps the first seal.
func (t *Trace) seal() {
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	if t.doneNS < 0 {
		t.doneNS = now
	}
	t.mu.Unlock()
}

// SpanView is the externally visible form of a span, used by the debug
// endpoint and by tests.
type SpanView struct {
	Name       string         `json:"name"`
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// TraceView is the externally visible form of a trace.
type TraceView struct {
	ID         string     `json:"id"`
	Endpoint   string     `json:"endpoint,omitempty"`
	Status     int        `json:"status,omitempty"`
	Start      time.Time  `json:"start"`
	DurationMS float64    `json:"duration_ms"`
	Spans      []SpanView `json:"spans"`
}

// View snapshots the trace. Open spans report the duration so far, or up
// to the seal once the trace is recorded.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.doneNS >= 0 {
		now = t.doneNS
	}
	v := TraceView{
		ID:       t.id,
		Endpoint: t.endpoint,
		Status:   t.status,
		Start:    t.start,
		Spans:    make([]SpanView, 0, len(t.spans)),
	}
	var last int64
	for _, sp := range t.spans {
		end := sp.endNS
		if end < 0 {
			end = now
		}
		if end > last {
			last = end
		}
		sv := SpanView{
			Name:       sp.name,
			StartMS:    float64(sp.startNS) / 1e6,
			DurationMS: float64(end-sp.startNS) / 1e6,
		}
		if len(sp.attrs) > 0 {
			sv.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				sv.Attrs[a.Key] = a.Value()
			}
		}
		v.Spans = append(v.Spans, sv)
	}
	v.DurationMS = float64(last) / 1e6
	return v
}

// SpanDuration returns the summed duration of all closed spans with the
// given name, for tests and derived metrics.
func (t *Trace) SpanDuration(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, sp := range t.spans {
		if sp.name == name && sp.endNS >= 0 {
			total += sp.endNS - sp.startNS
		}
	}
	return time.Duration(total)
}

type traceKey struct{}

// WithTrace hangs the trace on a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil — and every Trace method is
// nil-safe, so callers never need to branch.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// TraceProbe adapts a Trace to the mechanism core's Probe interface
// (structurally — obs stays dependency-free): each phase becomes a span.
// core never sees a clock; the time.Now calls live here.
type TraceProbe struct{ T *Trace }

// Phase opens a span named after the mechanism phase and returns the func
// that closes it.
func (p TraceProbe) Phase(name string) func() {
	sp := p.T.StartSpan(name)
	return func() { sp.End() }
}

// PhaseTier implements the core's TierProbe extension: the span closes
// carrying a `tier` attribute naming the compute tier the phase ran on
// (vector | generic for the kernel span). The tier name is part of the
// closed scalar telemetry vocabulary — it derives from (d, CPU), never from
// record data.
func (p TraceProbe) PhaseTier(name, tier string) func() {
	sp := p.T.StartSpan(name)
	return func() { sp.End(Str("tier", tier)) }
}
