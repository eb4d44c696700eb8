package serve

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"funcmech/internal/obs"
)

// requestIDHeader carries the client-chosen (or server-generated) trace id.
const requestIDHeader = "X-Request-Id"

// traceRingSize bounds the in-process trace ring behind /v1/debug/traces.
const traceRingSize = 256

// SetTraceLogger makes every completed trace also emit one structured JSON
// log line through logger. Call before serving; nil disables emission (the
// ring keeps filling either way).
func (s *Server) SetTraceLogger(logger *slog.Logger) {
	s.recorder.SetLogger(logger)
}

// statusWriter captures the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// traced wraps the mux with per-request observability: a trace (id from
// X-Request-Id, generated otherwise) hung on the context with one handler
// span covering the whole request, the per-endpoint latency histogram and
// response counter, and the finished trace recorded into the debug ring.
func (s *Server) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = obs.NewID()
		}
		tr := obs.NewTrace(id)
		w.Header().Set(requestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		r = r.WithContext(obs.WithTrace(r.Context(), tr))

		start := time.Now()
		span := tr.StartSpan(obs.SpanHandler)
		next.ServeHTTP(sw, r)
		span.End()
		elapsed := time.Since(start)

		// ServeMux stamps the matched pattern onto the request it was handed,
		// so after the call r.Pattern is the route label — a closed set, safe
		// as a metric label where the raw path (user-chosen names, typo'd
		// routes) would not be.
		endpoint := r.Pattern
		if endpoint == "" {
			endpoint = "unmatched"
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		tr.SetResult(endpoint, status)
		s.metrics.httpSeconds.With(endpoint).Observe(elapsed.Seconds())
		s.metrics.httpResponses.With(endpoint, strconv.Itoa(status)).Inc()
		s.recorder.Record(tr)
	})
}
