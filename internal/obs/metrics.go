package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format (version 0.0.4) — hand-rolled, no client library. Metric
// names and label values pass through the same discipline as trace attrs:
// only scalars and fixed name sets, never data-derived strings beyond tenant,
// stream, and endpoint identifiers.
type Registry struct {
	mu       sync.Mutex
	families []family
}

// family is one named metric family in registration order.
type family struct {
	name    string
	help    string
	typ     string // counter | gauge | histogram
	collect func(w *strings.Builder)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(name, help, typ string, collect func(*strings.Builder)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.name == name {
			panic("obs: duplicate metric family " + name)
		}
	}
	r.families = append(r.families, family{name: name, help: help, typ: typ, collect: collect})
}

// WriteTo renders every family, registration order, with # HELP / # TYPE
// headers.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		f.collect(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// ServeHTTP implements GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WriteTo(w)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// labelString renders {k1="v1",k2="v2"} for parallel key/value slices.
func labelString(keys, vals []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing integer counter.
type Counter struct{ n atomic.Uint64 }

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(b *strings.Builder) {
		fmt.Fprintf(b, "%s %d\n", name, c.Value())
	})
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (callers never pass negatives; counters only go up).
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// CounterVec is a counter family keyed by one or more labels. Label values
// come from closed sets (error reasons, endpoint patterns, status codes), so
// the map stays small.
type CounterVec struct {
	mu     sync.Mutex
	keys   []string
	series map[string]*Counter // joined label values -> counter
	order  []string            // insertion order of joined keys
	labels map[string][]string // joined key -> label values
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelKeys ...string) *CounterVec {
	v := &CounterVec{
		keys:   labelKeys,
		series: make(map[string]*Counter),
		labels: make(map[string][]string),
	}
	r.register(name, help, "counter", func(b *strings.Builder) {
		v.mu.Lock()
		order := make([]string, len(v.order))
		copy(order, v.order)
		v.mu.Unlock()
		for _, k := range order {
			v.mu.Lock()
			c, vals := v.series[k], v.labels[k]
			v.mu.Unlock()
			fmt.Fprintf(b, "%s%s %d\n", name, labelString(v.keys, vals), c.Value())
		}
	})
	return v
}

// With returns (creating on first use) the counter for the given label
// values, which must match the registered keys in count and order.
func (v *CounterVec) With(vals ...string) *Counter {
	if len(vals) != len(v.keys) {
		panic("obs: label cardinality mismatch")
	}
	k := strings.Join(vals, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.series[k]
	if !ok {
		c = &Counter{}
		v.series[k] = c
		v.labels[k] = append([]string(nil), vals...)
		v.order = append(v.order, k)
	}
	return c
}

// DefBuckets are the default latency buckets in seconds, spanning sub-ms
// kernel work to multi-second saturated fits.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket cumulative histogram of seconds. Observations
// are lock-free; bucket counts, sum, and total are atomics, so a scrape may
// see a sum slightly ahead of the counts (standard Prometheus semantics).
type Histogram struct {
	bounds []float64 // upper bounds, ascending, +Inf implicit
	counts []atomic.Uint64
	sum    atomicFloat
	total  atomic.Uint64
}

// atomicFloat is a float64 accumulated via CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// newHistogram returns an unregistered histogram over bounds (nil for
// DefBuckets).
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1), // last = overflow (+Inf)
	}
}

// NewHistogram registers a fresh unlabeled histogram. Pass nil bounds for
// DefBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, "histogram", func(b *strings.Builder) {
		h.write(b, name, "")
	})
	return h
}

// NewCounterFunc registers a counter whose value is collected at scrape time
// from fn — for monotone counts that already live elsewhere (a WAL's append
// count, a sum of per-stream sequences), so scraping never duplicates state.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, "counter", func(b *strings.Builder) {
		fmt.Fprintf(b, "%s %d\n", name, fn())
	})
}

// Observe records one value (seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// BucketCounts returns the per-bucket (non-cumulative) counts, overflow
// bucket last — used by tests asserting buckets sum to the fit counter.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// write renders the family in cumulative le form.
func (h *Histogram) write(b *strings.Builder, name, labels string) {
	inner := labels
	if inner != "" {
		inner = strings.TrimSuffix(strings.TrimPrefix(inner, "{"), "}") + ","
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=\"%s\"} %d\n", name, inner, formatValue(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, inner, cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count())
}

// HistogramVec is a histogram family keyed by labels (endpoint patterns).
type HistogramVec struct {
	mu     sync.Mutex
	keys   []string
	bounds []float64
	series map[string]*Histogram
	order  []string
	labels map[string][]string
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelKeys ...string) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	v := &HistogramVec{
		keys:   labelKeys,
		bounds: bounds,
		series: make(map[string]*Histogram),
		labels: make(map[string][]string),
	}
	r.register(name, help, "histogram", func(b *strings.Builder) {
		v.mu.Lock()
		order := make([]string, len(v.order))
		copy(order, v.order)
		v.mu.Unlock()
		for _, k := range order {
			v.mu.Lock()
			h, vals := v.series[k], v.labels[k]
			v.mu.Unlock()
			h.write(b, name, labelString(v.keys, vals))
		}
	})
	return v
}

// With returns (creating on first use) the histogram for the label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	if len(vals) != len(v.keys) {
		panic("obs: label cardinality mismatch")
	}
	k := strings.Join(vals, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.series[k]
	if !ok {
		h = newHistogram(v.bounds)
		v.series[k] = h
		v.labels[k] = append([]string(nil), vals...)
		v.order = append(v.order, k)
	}
	return h
}

// NewGaugeFunc registers a gauge whose value is collected at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(b *strings.Builder) {
		fmt.Fprintf(b, "%s %s\n", name, formatValue(fn()))
	})
}

// LabeledSample is one collect-time sample of a labeled gauge family.
type LabeledSample struct {
	LabelValues []string
	Value       float64
}

// NewLabeledGaugeFunc registers a gauge family whose full sample set is
// produced at scrape time — used for per-tenant ε and per-stream sizes,
// where the set of series tracks live registries, not metric state.
func (r *Registry) NewLabeledGaugeFunc(name, help string, labelKeys []string, fn func() []LabeledSample) {
	r.register(name, help, "gauge", func(b *strings.Builder) {
		for _, s := range fn() {
			fmt.Fprintf(b, "%s%s %s\n", name, labelString(labelKeys, s.LabelValues), formatValue(s.Value))
		}
	})
}
