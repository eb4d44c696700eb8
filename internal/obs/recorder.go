package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
)

// Recorder keeps the last N completed traces in a ring and optionally emits
// each as one structured JSON log line. A nil *Recorder is valid and drops
// everything, so instrumented code never branches on "is tracing on".
//
// The ring holds the sealed traces themselves and renders them only when
// read (Snapshot, GET /v1/debug/traces), so a request nobody inspects pays
// for no rendering.
type Recorder struct {
	mu     sync.Mutex
	ring   []*Trace
	next   int
	filled bool
	logger *slog.Logger
}

// NewRecorder returns a recorder holding the most recent capacity traces
// (minimum 1). logger may be nil to keep the ring without log emission.
func NewRecorder(capacity int, logger *slog.Logger) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{ring: make([]*Trace, capacity), logger: logger}
}

// SetLogger installs (or, with nil, removes) the structured log emitter.
// Call during setup, before traffic; Record reads the field unlocked.
func (r *Recorder) SetLogger(logger *slog.Logger) {
	if r == nil {
		return
	}
	r.logger = logger
}

// Record seals the finished trace — it takes no further spans, so what the
// ring renders later is what was recorded — stores it and, when a logger is
// configured, emits it as a single JSON line. Attributes have already
// passed the closed Attr vocabulary; the log line carries only what the
// spans carry.
func (r *Recorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	t.seal()
	r.mu.Lock()
	r.ring[r.next] = t
	r.next++
	if r.next == len(r.ring) {
		r.next, r.filled = 0, true
	}
	r.mu.Unlock()
	if r.logger != nil {
		v := t.View()
		attrs := make([]slog.Attr, 0, 4+len(v.Spans))
		attrs = append(attrs,
			slog.String("trace_id", v.ID),
			slog.String("endpoint", v.Endpoint),
			slog.Int("status", v.Status),
			slog.Float64("duration_ms", v.DurationMS),
		)
		for _, sp := range v.Spans {
			g := make([]any, 0, 1+len(sp.Attrs))
			g = append(g, slog.Float64("duration_ms", sp.DurationMS))
			for k, val := range sp.Attrs {
				g = append(g, slog.Any(k, val))
			}
			attrs = append(attrs, slog.Group(sp.Name, g...))
		}
		r.logger.LogAttrs(context.Background(), slog.LevelInfo, "trace", attrs...)
	}
}

// Snapshot returns the buffered traces, oldest first.
func (r *Recorder) Snapshot() []TraceView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var held []*Trace
	if r.filled {
		held = append(held, r.ring[r.next:]...)
	}
	held = append(held, r.ring[:r.next]...)
	r.mu.Unlock()
	if held == nil {
		return nil
	}
	out := make([]TraceView, len(held))
	for i, t := range held {
		out[i] = t.View()
	}
	return out
}

// ServeHTTP implements GET /v1/debug/traces: the ring as a JSON array,
// newest last.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	traces := r.Snapshot()
	if traces == nil {
		traces = []TraceView{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"traces": traces})
}
