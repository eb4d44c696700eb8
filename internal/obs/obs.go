// Package obs is the service's observability layer: per-request traces with
// explicit spans, a hand-rolled Prometheus text-exposition metrics registry,
// and the probe type that carries a span clock into the mechanism core
// without giving privacy-critical packages a wall clock of their own.
//
// The package is deliberately dependency-free (stdlib only) and deliberately
// narrow about what telemetry may carry. Snapshots, accumulators and raw
// rows are un-noised (docs/ARCHITECTURE.md's data-sensitivity table), so the
// privacy guarantee extends to the telemetry plane: a log line or trace
// attribute that echoed a row value would be a release outside the Laplace
// mechanism. The redaction boundary is the Attr type below — a closed enum
// of three scalar kinds, int (dimensions, counts), float (ε) and string
// (stages, operations, sources), with no Any escape hatch, so there is no
// constructor through which a []float64, a dataset, or an un-noised
// coefficient vector can reach a log line. fmlint's cleanlog analyzer
// machine-checks the same property at every slog call site in the serving
// packages.
//
// Three pieces:
//
//   - Tracing (trace.go, recorder.go): a Trace carries a request id and an
//     append-only list of named spans (handler, queue_wait, dataset, kernel,
//     solve, noise, wal_fsync). Completed traces land in a bounded ring
//     (GET /v1/debug/traces) and are optionally emitted as one structured
//     JSON log line each (log/slog).
//   - Metrics (metrics.go): counters, fixed-bucket histograms and
//     collect-at-scrape gauges with Prometheus text exposition, no external
//     client library.
//   - Profiling glue (probe.go): TraceProbe satisfies the mechanism core's
//     Probe interface, so kernel vs solve vs noise time is attributable
//     per request while core itself never reads the wall clock (fmlint's
//     nakedrand invariant).
package obs

import (
	"math"
	"strconv"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(n uint64) float64 { return math.Float64frombits(n) }

// Span names — the closed vocabulary of trace sections. Operators alert and
// dashboard on these, so they are part of the API surface; add here and to
// docs/OBSERVABILITY.md together.
const (
	// SpanHandler covers the whole HTTP handler, queue time included.
	SpanHandler = "handler"
	// SpanQueueWait covers time blocked on admission or on the parallelism
	// governor; the "stage" attribute says which.
	SpanQueueWait = "queue_wait"
	// SpanDataset covers dataset-registry or merged-accumulator access.
	SpanDataset = "dataset"
	// SpanKernel covers the objective accumulation (the O(n·d²) sweep).
	SpanKernel = "kernel"
	// SpanSolve covers minimization: the Cholesky solve and, when it runs,
	// spectral trimming.
	SpanSolve = "solve"
	// SpanNoise covers the Laplace perturbation of the objective.
	SpanNoise = "noise"
	// SpanWALFsync covers the write-ahead-log append (and its fsync) that
	// makes a budget charge durable before noise is drawn.
	SpanWALFsync = "wal_fsync"
)

// attrKind discriminates the closed set of attribute value types.
type attrKind uint8

const (
	kindInt attrKind = iota
	kindFloat
	kindStr
)

// Attr is one span or log attribute: a key and a scalar value. The type is
// the telemetry plane's redaction boundary — the only constructors are the
// scalar ones below, so compound data (rows, coefficient vectors, datasets)
// cannot be attached to a span or a structured log line at all. Keep it that
// way: do not add an Any constructor.
type Attr struct {
	Key  string
	kind attrKind
	num  uint64 // int payload, or float bits
	str  string
}

// Int returns an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, num: uint64(v)} }

// Float returns a float attribute. Only post-release scalars (ε, latencies,
// noise scales) belong here — never un-noised coefficients.
func Float(key string, v float64) Attr {
	return Attr{Key: key, kind: kindFloat, num: floatBits(v)}
}

// Str returns a string attribute (tenant names, stream names, endpoints).
func Str(key, v string) Attr { return Attr{Key: key, kind: kindStr, str: v} }

// Value returns the attribute's payload as an any for JSON encoding:
// integers as int64, floats as float64, strings as string.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt:
		return int64(a.num)
	case kindFloat:
		return floatFrom(a.num)
	default:
		return a.str
	}
}

// String renders the payload for text surfaces.
func (a Attr) String() string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(int64(a.num), 10)
	case kindFloat:
		return strconv.FormatFloat(floatFrom(a.num), 'g', -1, 64)
	default:
		return a.str
	}
}
