package obs

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestAttrRendering(t *testing.T) {
	cases := []struct {
		a    Attr
		want string
		val  any
	}{
		{Int("d", -3), "-3", int64(-3)},
		{Float("eps", 0.5), "0.5", 0.5},
		{Str("tenant", "acme"), "acme", "acme"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("%s: String() = %q, want %q", c.a.Key, got, c.want)
		}
		if got := c.a.Value(); got != c.val {
			t.Errorf("%s: Value() = %v (%T), want %v (%T)", c.a.Key, got, got, c.val, c.val)
		}
	}
}

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan(SpanKernel)
	sp.End(Int("d", 4)) // must not panic
	tr.SetResult("GET /x", 200)
	if tr.SpanDuration(SpanKernel) != 0 {
		t.Fatal("nil trace should report zero values")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom(empty ctx) = %v, want nil", got)
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTrace("abc123")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
	sp := tr.StartSpan(SpanSolve)
	time.Sleep(2 * time.Millisecond)
	sp.End(Int("d", 5), Float("epsilon", 0.5))
	if d := tr.SpanDuration(SpanSolve); d < time.Millisecond {
		t.Fatalf("solve span duration %v, want >= 1ms", d)
	}
	tr.SetResult("POST /v1/fit", 200)
	v := tr.View()
	if v.ID != "abc123" || v.Endpoint != "POST /v1/fit" || v.Status != 200 {
		t.Fatalf("view header mismatch: %+v", v)
	}
	if len(v.Spans) != 1 || v.Spans[0].Name != SpanSolve {
		t.Fatalf("spans = %+v", v.Spans)
	}
	if v.Spans[0].Attrs["d"] != int64(5) {
		t.Fatalf("attr d = %v", v.Spans[0].Attrs["d"])
	}
}

func TestNewIDShape(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("ids %q %q, want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatal("two ids collided")
	}
}

func TestRecorderRingBounds(t *testing.T) {
	r := NewRecorder(3, nil)
	for i := 0; i < 5; i++ {
		tr := NewTrace(string(rune('a' + i)))
		tr.StartSpan(SpanHandler).End()
		r.Record(tr)
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(got))
	}
	// Oldest first: c, d, e survive.
	if got[0].ID != "c" || got[2].ID != "e" {
		t.Fatalf("ring order %q..%q, want c..e", got[0].ID, got[2].ID)
	}
	var nilRec *Recorder
	nilRec.Record(NewTrace("x")) // must not panic
	if nilRec.Snapshot() != nil {
		t.Fatal("nil recorder should snapshot nil")
	}
}

// TestRecordedTraceIsSealed: the ring keeps the trace itself and renders
// it on read, so recording seals it — a span left open, ended late or
// started late changes nothing the ring shows.
func TestRecordedTraceIsSealed(t *testing.T) {
	r := NewRecorder(2, nil)
	tr := NewTrace("sealed")
	tr.StartSpan(SpanHandler).End()
	open := tr.StartSpan(SpanKernel)
	r.Record(tr)
	first := r.Snapshot()
	time.Sleep(2 * time.Millisecond)
	open.End(Str("late", "yes"))
	tr.StartSpan(SpanNoise).End()
	second := r.Snapshot()
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("snapshots hold %d and %d traces, want 1", len(first), len(second))
	}
	a, b := first[0], second[0]
	if len(b.Spans) != 2 || a.DurationMS != b.DurationMS || a.Spans[1].DurationMS != b.Spans[1].DurationMS || b.Spans[1].Attrs != nil {
		t.Fatalf("the recorded trace changed after Record:\nfirst  %+v\nsecond %+v", a, b)
	}
}

func TestCounterAndVecExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("fm_test_total", "Test counter.")
	c.Inc()
	c.Add(2)
	v := reg.NewCounterVec("fm_reasons_total", "By reason.", "reason")
	v.With("budget_exhausted").Add(4)
	v.With("bad_request").Inc()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP fm_test_total Test counter.",
		"# TYPE fm_test_total counter",
		"fm_test_total 3",
		`fm_reasons_total{reason="budget_exhausted"} 4`,
		`fm_reasons_total{reason="bad_request"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("fm_lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // all in (0.01, 0.1]
	}
	h.Observe(5) // one overflow
	var b strings.Builder
	reg.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		`fm_lat_seconds_bucket{le="0.01"} 0`,
		`fm_lat_seconds_bucket{le="0.1"} 100`,
		`fm_lat_seconds_bucket{le="1"} 100`,
		`fm_lat_seconds_bucket{le="+Inf"} 101`,
		"fm_lat_seconds_count 101",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if got := h.Sum(); math.Abs(got-10) > 1e-9 {
		t.Errorf("sum = %v, want 10", got)
	}
	// Bucket counts sum to total.
	var sum uint64
	for _, n := range h.BucketCounts() {
		sum += n
	}
	if sum != h.Count() {
		t.Errorf("bucket sum %d != count %d", sum, h.Count())
	}
}

func TestHistogramVecLabels(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewHistogramVec("fm_http_seconds", "Per endpoint.", []float64{0.1, 1}, "endpoint")
	v.With("POST /v1/fit").Observe(0.05)
	v.With("GET /v1/streams").Observe(0.5)
	var b strings.Builder
	reg.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		`fm_http_seconds_bucket{endpoint="POST /v1/fit",le="0.1"} 1`,
		`fm_http_seconds_bucket{endpoint="GET /v1/streams",le="1"} 1`,
		`fm_http_seconds_count{endpoint="POST /v1/fit"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeFuncs(t *testing.T) {
	reg := NewRegistry()
	val := 7.5
	reg.NewGaugeFunc("fm_up", "Gauge.", func() float64 { return val })
	reg.NewLabeledGaugeFunc("fm_eps_spent", "Per tenant.", []string{"tenant"}, func() []LabeledSample {
		return []LabeledSample{
			{LabelValues: []string{"acme"}, Value: 0.25},
			{LabelValues: []string{`we"ird\`}, Value: 1},
		}
	})
	var b strings.Builder
	reg.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		"fm_up 7.5",
		`fm_eps_spent{tenant="acme"} 0.25`,
		`fm_eps_spent{tenant="we\"ird\\"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("fm_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	reg.NewCounter("fm_x_total", "again")
}

func TestTraceProbePhases(t *testing.T) {
	tr := NewTrace("p1")
	p := TraceProbe{T: tr}
	done := p.Phase(SpanKernel)
	time.Sleep(time.Millisecond)
	done()
	if tr.SpanDuration(SpanKernel) <= 0 {
		t.Fatal("probe phase recorded no duration")
	}
	// Nil-trace probe is a no-op.
	np := TraceProbe{}
	np.Phase(SpanNoise)()
}
