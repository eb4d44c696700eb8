package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"funcmech"
	"funcmech/internal/obs"
	"funcmech/internal/stream"
)

// newObsTestServer returns a server with one generated dataset and one tenant,
// wrapped in the tracing middleware.
func newObsTestServer(t *testing.T, budget float64) (*Server, http.Handler) {
	t.Helper()
	srv := New(Config{WorkerCap: 2})
	ds, err := GenerateCensus("us", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Registry().Register("census", ds); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Tenants().Create("acme", budget); err != nil {
		t.Fatal(err)
	}
	return srv, srv.Handler()
}

// scrapeMetrics renders srv's metrics registry and returns every sample's
// value keyed by its series as exposed, labels included
// (`fm_stream_records{stream="readings"}`).
func scrapeMetrics(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if _, err := srv.metrics.reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces ("POST /v1/fit"); the value is last.
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func doFit(t *testing.T, h http.Handler, id string) *httptest.ResponseRecorder {
	t.Helper()
	body := `{"tenant":"acme","dataset":"census","model":"linear","epsilon":0.5}`
	req := httptest.NewRequest("POST", "/v1/fit", strings.NewReader(body))
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestTracedMiddlewareRequestID(t *testing.T) {
	_, h := newObsTestServer(t, 10)

	// A client-supplied id round-trips.
	rec := doFit(t, h, "deadbeefcafe0123")
	if rec.Code != http.StatusOK {
		t.Fatalf("fit status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(requestIDHeader); got != "deadbeefcafe0123" {
		t.Fatalf("echoed request id %q, want deadbeefcafe0123", got)
	}

	// Without one, the server generates a fresh id.
	rec = doFit(t, h, "")
	if got := rec.Header().Get(requestIDHeader); len(got) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", got)
	}
}

func TestTraceRingCapturesFitSpans(t *testing.T) {
	_, h := newObsTestServer(t, 10)
	if rec := doFit(t, h, "feedface00000001"); rec.Code != http.StatusOK {
		t.Fatalf("fit status %d: %s", rec.Code, rec.Body)
	}

	req := httptest.NewRequest("GET", "/v1/debug/traces", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("traces status %d", rec.Code)
	}
	var payload struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	var fit *obs.TraceView
	for i := range payload.Traces {
		if payload.Traces[i].ID == "feedface00000001" {
			fit = &payload.Traces[i]
		}
	}
	if fit == nil {
		t.Fatalf("fit trace not in ring: %s", rec.Body)
	}
	if fit.Endpoint != "POST /v1/fit" || fit.Status != http.StatusOK {
		t.Fatalf("trace result = %q/%d, want POST /v1/fit / 200", fit.Endpoint, fit.Status)
	}
	seen := map[string]bool{}
	for _, sp := range fit.Spans {
		seen[sp.Name] = true
	}
	for _, want := range []string{
		obs.SpanHandler, obs.SpanDataset, obs.SpanQueueWait,
		obs.SpanKernel, obs.SpanSolve, obs.SpanNoise,
	} {
		if !seen[want] {
			t.Errorf("fit trace missing %q span; have %v", want, seen)
		}
	}
	// Raw data must not ride along: every span attribute is a scalar from
	// the closed vocabulary, none of them named like payload fields.
	for _, sp := range fit.Spans {
		for k, v := range sp.Attrs {
			switch v.(type) {
			case string, bool, float64:
			default:
				t.Errorf("span %s attr %s has non-scalar type %T", sp.Name, k, v)
			}
		}
	}
}

func TestGovernorQueueWaitSpan(t *testing.T) {
	// Hold every governor token, then send a fit through the handler: its
	// admission queue_wait span must cover the blocked interval.
	srv, h := newObsTestServer(t, 10)
	held := admitN(t, srv.Governor(), srv.Governor().Cap())

	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- doFit(t, h, "5e5e5e5e00000001") }()
	waitFor(t, "the fit to queue", func() bool { return srv.Governor().Waiting() == 1 })
	// Hold the tokens long enough that the span duration is unambiguous.
	time.Sleep(20 * time.Millisecond)
	for _, gr := range held {
		gr.Release()
	}
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("queued fit status %d: %s", rec.Code, rec.Body)
	}

	// queueWait returns the one admission span on trace id's fit.
	queueWait := func(id string) obs.SpanView {
		t.Helper()
		var queued []obs.SpanView
		for _, tv := range srv.recorder.Snapshot() {
			if tv.ID != id {
				continue
			}
			for _, sp := range tv.Spans {
				if sp.Name == obs.SpanQueueWait {
					queued = append(queued, sp)
				}
			}
		}
		if len(queued) != 1 || queued[0].Attrs["stage"] != "admission" {
			t.Fatalf("fit trace %s has queue_wait spans %+v, want one with stage=admission", id, queued)
		}
		return queued[0]
	}
	if wait := queueWait("5e5e5e5e00000001").DurationMS; wait < 10 {
		t.Fatalf("saturated queue_wait span = %vms, want ≥ 10ms", wait)
	}
	if got := srv.Governor().Waiting(); got != 0 {
		t.Fatalf("Waiting = %d after the fit, want 0", got)
	}

	// With tokens free, admission is immediate: the span exists but is ~0.
	if rec := doFit(t, h, "5e5e5e5e00000002"); rec.Code != http.StatusOK {
		t.Fatalf("idle fit status %d: %s", rec.Code, rec.Body)
	}
	if wait := queueWait("5e5e5e5e00000002").DurationMS; wait > 5 {
		t.Fatalf("idle queue_wait span = %vms, want ~0", wait)
	}
}

func TestMetricsExpositionTracksFits(t *testing.T) {
	_, h := newObsTestServer(t, 1.2)

	// Two fits at ε=0.5 succeed; the third exhausts the budget → 402.
	for i := 0; i < 2; i++ {
		if rec := doFit(t, h, ""); rec.Code != http.StatusOK {
			t.Fatalf("fit %d status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if rec := doFit(t, h, ""); rec.Code != http.StatusPaymentRequired {
		t.Fatalf("over-budget fit status %d, want 402", rec.Code)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("exposition content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"fm_fits_total 2",
		"fm_fits_refused_budget_total 1",
		"fm_fits_error_total 0",
		`fm_refusals_total{reason="budget_exhausted"} 1`,
		`fm_epsilon_spent{tenant="acme"} 1`,
		`fm_epsilon_total{tenant="acme"} 1.2`,
		`fm_http_responses_total{endpoint="POST /v1/fit",code="200"} 2`,
		`fm_http_responses_total{endpoint="POST /v1/fit",code="402"} 1`,
		"fm_fit_seconds_count 2",
		"fm_fit_seconds_bucket{le=\"+Inf\"} 2",
		"fm_governor_worker_cap 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// doRequest serves one JSON POST through h.
func doRequest(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

func TestStatsHistogramSumsToFitCounter(t *testing.T) {
	// The /metrics invariant: the fm_fit_seconds bucket counts (and its
	// _count) must equal fm_fits_total, because only successful fits are
	// observed and every successful fit is observed exactly once. A refused
	// and a failed fit are counted but never timed.
	srv, h := newObsTestServer(t, 2)
	// Targets in [0, 50] are not 0/1 labels, so a logistic fit on this
	// dataset is charged and then fails.
	ds := funcmech.NewDataset(*testStreamSchema())
	for _, r := range syntheticRows(50, 1) {
		ds.Append(r[:2], r[2])
	}
	if err := srv.Registry().Register("readings", ds); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if rec := doFit(t, h, ""); rec.Code != http.StatusOK {
			t.Fatalf("fit %d status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if rec := doRequest(h, "/v1/fit", `{"tenant":"acme","dataset":"readings","model":"logistic","epsilon":0.1}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("logistic fit on non-binary targets: status %d, want 422: %s", rec.Code, rec.Body)
	}
	if rec := doFit(t, h, ""); rec.Code != http.StatusPaymentRequired {
		t.Fatalf("over-budget fit status %d, want 402", rec.Code)
	}

	got := scrapeMetrics(t, srv)
	for series, want := range map[string]float64{
		"fm_fits_total":                    3,
		"fm_fits_refused_budget_total":     1,
		"fm_fits_error_total":              1,
		"fm_fit_seconds_count":             3,
		`fm_fit_seconds_bucket{le="+Inf"}`: 3,
	} {
		if got[series] != want {
			t.Errorf("%s = %v, want %v", series, got[series], want)
		}
	}
	// BucketCounts are per-bucket (non-cumulative) and include the overflow
	// bucket, so they must sum exactly to the success counter.
	var observed uint64
	for _, c := range srv.metrics.fitSeconds.BucketCounts() {
		observed += c
	}
	if want := srv.metrics.fits.ok.Value(); observed != want {
		t.Fatalf("fm_fit_seconds buckets sum to %d, want fm_fits_total %d", observed, want)
	}
}

func TestStatsRefitOutcomes(t *testing.T) {
	// Refits split like fits: one release, one logistic refit that is
	// charged and then fails on the stream's non-boolean targets, and one
	// refusal.
	srv, h := newObsTestServer(t, 1)
	if _, err := srv.Tenants().Create("beta", 0.3); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Streams().Create("readings", stream.Config{Schema: *testStreamSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestFlat(flatten(syntheticRows(50, 1))); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		model string
		eps   float64
		code  int
	}{
		{"linear", 0.2, http.StatusOK},
		{"logistic", 0.05, http.StatusUnprocessableEntity},
		{"linear", 0.2, http.StatusPaymentRequired},
	} {
		body := fmt.Sprintf(`{"tenant":"beta","model":%q,"epsilon":%v}`, c.model, c.eps)
		if rec := doRequest(h, "/v1/streams/readings/refit", body); rec.Code != c.code {
			t.Fatalf("%s refit at ε=%v: status %d, want %d: %s", c.model, c.eps, rec.Code, c.code, rec.Body)
		}
	}

	got := scrapeMetrics(t, srv)
	for series, want := range map[string]float64{
		"fm_refits_total":                              1,
		"fm_refits_refused_budget_total":               1,
		"fm_refits_error_total":                        1,
		`fm_refusals_total{reason="budget_exhausted"}`: 1,
		// Refits never touch the fit families.
		"fm_fits_total":        0,
		"fm_fit_seconds_count": 0,
	} {
		if got[series] != want {
			t.Errorf("%s = %v, want %v", series, got[series], want)
		}
	}
}

func TestOutcomeFor(t *testing.T) {
	cases := []struct {
		err                 error
		ok, refused, failed uint64
	}{
		{nil, 1, 0, 0},
		{funcmech.ErrBudgetExhausted, 0, 1, 0},
		{fmt.Errorf("tenant: %w", funcmech.ErrBudgetExhausted), 0, 1, 0},
		{errors.New("solver exploded"), 0, 0, 1},
		{fmt.Errorf("%w: disk gone", errWALAppend), 0, 0, 1},
	}
	for _, tc := range cases {
		o := outcomes{ok: &obs.Counter{}, refused: &obs.Counter{}, failed: &obs.Counter{}}
		if got := o.record(tc.err); got != (tc.ok == 1) {
			t.Errorf("record(%v) = %v, want %v", tc.err, got, tc.ok == 1)
		}
		if o.ok.Value() != tc.ok || o.refused.Value() != tc.refused || o.failed.Value() != tc.failed {
			t.Errorf("record(%v) counted ok=%d refused=%d failed=%d, want %d/%d/%d", tc.err,
				o.ok.Value(), o.refused.Value(), o.failed.Value(), tc.ok, tc.refused, tc.failed)
		}
	}
}

func TestMetricsEndpointLabelsUseRoutePatterns(t *testing.T) {
	_, h := newObsTestServer(t, 10)
	// A request to an unknown path must not mint a per-path label series.
	req := httptest.NewRequest("GET", "/no/such/route/with/secret-name", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	req = httptest.NewRequest("GET", "/metrics", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	if strings.Contains(body, "secret-name") {
		t.Fatalf("raw request path leaked into metric labels:\n%s", body)
	}
	if !strings.Contains(body, `endpoint="unmatched"`) {
		t.Fatalf("unmatched requests not folded into the closed label set")
	}
}

func TestStatsConcurrentRecording(t *testing.T) {
	// Fit outcomes and latencies recorded from many goroutines while the
	// registry is scraped: no count may be lost, and under -race no scrape
	// may race a write.
	srv, _ := newObsTestServer(t, 1)
	m := srv.metrics
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if m.fits.record(nil) {
					m.fitSeconds.Observe(0.001)
				}
				if i%50 == 0 {
					if _, err := m.reg.WriteTo(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := m.fits.ok.Value(); got != 4000 {
		t.Fatalf("fm_fits_total = %d, want 4000", got)
	}
	if got := m.fitSeconds.Count(); got != 4000 {
		t.Fatalf("fm_fit_seconds count = %d, want 4000", got)
	}
}

func TestConcurrentFitsKeepMetricsConsistent(t *testing.T) {
	srv, h := newObsTestServer(t, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doFit(t, h, "")
		}()
	}
	wg.Wait()
	if got := srv.metrics.fits.ok.Value(); got != 8 {
		t.Fatalf("fits = %d, want 8", got)
	}
	if got := srv.metrics.fitSeconds.Count(); got != 8 {
		t.Fatalf("latency count = %d, want 8", got)
	}
	if got := srv.governor.InUse(); got != 0 {
		t.Fatalf("workers in use after drain = %d, want 0", got)
	}
}
