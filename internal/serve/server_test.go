package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcmech"
	"funcmech/internal/wal"
)

// newTestServer returns an httptest server over a fresh Server plus the
// Server itself for state inspection.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// registerRowsDataset registers a small synthetic linear dataset under name.
func registerRowsDataset(t *testing.T, base, name string, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	rows := make([][]float64, n)
	for i := range rows {
		x1 := rng.Float64() * 10
		x2 := rng.Float64() * 5
		y := 3*x1 + 2*x2 + rng.NormFloat64()
		if y < 0 {
			y = 0
		}
		if y > 50 {
			y = 50
		}
		rows[i] = []float64{x1, x2, y}
	}
	req := datasetRequest{
		Name: name,
		Schema: &funcmech.Schema{
			Features: []funcmech.Attribute{
				{Name: "x1", Min: 0, Max: 10},
				{Name: "x2", Min: 0, Max: 5},
			},
			Target: funcmech.Attribute{Name: "y", Min: 0, Max: 50},
		},
		Rows: rows,
	}
	resp := postJSON(t, base+"/v1/datasets", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("dataset registration: status %d", resp.StatusCode)
	}
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func createTenant(t *testing.T, base, name string, budget float64) {
	t.Helper()
	resp := postJSON(t, base+"/v1/tenants", tenantRequest{Name: name, Budget: budget})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant creation: status %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	got := decode[map[string]any](t, resp)
	if got["status"] != "ok" {
		t.Fatalf("healthz = %v", got)
	}
}

// TestResponsesAreCompact: JSON bodies, the trace ring's included, are one
// line each — no indentation to build on the hot ingest acknowledgement.
func TestResponsesAreCompact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/v1/debug/traces"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if lines := bytes.Count(body, []byte("\n")); lines != 1 || bytes.HasPrefix(body, []byte("{\n")) {
			t.Errorf("GET %s: body %q is not one compact line", path, body)
		}
	}
}

func TestFitLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerRowsDataset(t, ts.URL, "toy", 200)
	createTenant(t, ts.URL, "acme", 2.0)

	resp := postJSON(t, ts.URL+"/v1/fit", fitRequest{
		Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 0.5,
		Options: fitOptions{Intercept: true, Seed: ptr(int64(7))},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit: status %d", resp.StatusCode)
	}
	fit := decode[releaseResponse](t, resp)
	if len(fit.Weights) != 3 { // 2 features + intercept
		t.Fatalf("weights = %v, want 3 entries", fit.Weights)
	}
	if fit.Report.Epsilon != 0.5 {
		t.Fatalf("epsilon_spent = %v, want 0.5", fit.Report.Epsilon)
	}
	if fit.EpsilonRemaining != 1.5 {
		t.Fatalf("epsilon_remaining = %v, want 1.5", fit.EpsilonRemaining)
	}

	// The tenant endpoint reflects the debit.
	resp2, err := http.Get(ts.URL + "/v1/tenants/acme")
	if err != nil {
		t.Fatal(err)
	}
	info := decode[tenantInfo](t, resp2)
	if info.EpsilonSpent != 0.5 || info.Fits != 1 {
		t.Fatalf("tenant info = %+v", info)
	}

	// Resample costs 2ε on the session.
	resp3 := postJSON(t, ts.URL+"/v1/fit", fitRequest{
		Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 0.25,
		Options: fitOptions{PostProcess: "resample", Seed: ptr(int64(8))},
	})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("resample fit: status %d", resp3.StatusCode)
	}
	fit3 := decode[releaseResponse](t, resp3)
	if fit3.Report.Epsilon != 0.5 {
		t.Fatalf("resample epsilon_spent = %v, want 0.5", fit3.Report.Epsilon)
	}
	if fit3.EpsilonRemaining != 1.0 {
		t.Fatalf("epsilon_remaining = %v, want 1.0", fit3.EpsilonRemaining)
	}
}

func ptr[T any](v T) *T { return &v }

func TestFitModels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerRowsDataset(t, ts.URL, "toy", 200)
	createTenant(t, ts.URL, "acme", 10)

	cases := []fitRequest{
		{Tenant: "acme", Dataset: "toy", Model: "ridge", Epsilon: 0.5,
			Options: fitOptions{RidgeWeight: 0.1, Seed: ptr(int64(1))}},
		{Tenant: "acme", Dataset: "toy", Model: "logistic", Epsilon: 0.5,
			Options: fitOptions{BinarizeThreshold: ptr(25.0), Seed: ptr(int64(2))}},
		{Tenant: "acme", Dataset: "toy", Model: "median", Epsilon: 0.5,
			Options: fitOptions{Seed: ptr(int64(3))}},
		// linear takes an optional ridge weight, as WithRidge does.
		{Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 0.5,
			Options: fitOptions{RidgeWeight: 0.1, Seed: ptr(int64(4))}},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/fit", c)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s fit: status %d", c.Model, resp.StatusCode)
		}
		fit := decode[releaseResponse](t, resp)
		if len(fit.Weights) != 2 {
			t.Fatalf("%s weights = %v", c.Model, fit.Weights)
		}
	}
}

// TestConcurrentFitsNeverOverspend is the acceptance scenario: many
// goroutines racing fits against one tenant; the budget admits exactly
// three, every loser gets the typed 402, and the cumulative spend never
// exceeds the configured total.
func TestConcurrentFitsNeverOverspend(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkerCap: 8})
	registerRowsDataset(t, ts.URL, "toy", 300)
	createTenant(t, ts.URL, "acme", 3.0)

	const goroutines = 8
	codes := make([]int, goroutines)
	bodies := make([]errorResponse, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/fit", fitRequest{
				Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 1.0,
				Options: fitOptions{Seed: ptr(int64(g))},
			})
			codes[g] = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				bodies[g] = decode[errorResponse](t, resp)
			} else {
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()

	ok, refused := 0, 0
	for g, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusPaymentRequired:
			refused++
			if bodies[g].Error.Code != codeBudgetExhausted {
				t.Fatalf("refusal %d carried code %q, want %q", g, bodies[g].Error.Code, codeBudgetExhausted)
			}
		default:
			t.Fatalf("fit %d: unexpected status %d", g, code)
		}
	}
	if ok != 3 || refused != goroutines-3 {
		t.Fatalf("got %d successes and %d refusals, want 3 and %d", ok, refused, goroutines-3)
	}
	tenant, _ := s.Tenants().Lookup("acme")
	if spent := tenant.Session.Spent(); spent > tenant.Session.Total()+1e-9 {
		t.Fatalf("tenant spent %v, exceeding budget %v", spent, tenant.Session.Total())
	}
	if got := tenant.Exhausted(); got != int64(goroutines-3) {
		t.Fatalf("tenant exhausted counter = %d, want %d", got, goroutines-3)
	}
}

// TestUnknownTaskEnumeratesRegistry: the unknown_task error body must list
// every registered task name, so clients can discover the task surface of a
// build from the rejection itself.
func TestUnknownTaskEnumeratesRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerRowsDataset(t, ts.URL, "toy", 20)
	createTenant(t, ts.URL, "acme", 1)

	resp := postJSON(t, ts.URL+"/v1/fit", fitRequest{
		Tenant: "acme", Dataset: "toy", Model: "quantile", Epsilon: 0.1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	body := decode[errorResponse](t, resp)
	if body.Error.Code != codeUnknownTask {
		t.Fatalf("code %q, want %q", body.Error.Code, codeUnknownTask)
	}
	for _, name := range funcmech.TaskNames() {
		if !strings.Contains(body.Error.Message, name) {
			t.Errorf("error message %q does not mention registered task %q", body.Error.Message, name)
		}
	}
}

// TestNewReleaseRefusalsAreTyped: the Release constructors both release
// endpoints run before admission classify an unknown model with the
// errors.Is-able sentinel that writeOptionsError maps to unknown_task, and
// writeOptionsError maps every other refusal (an option the model does not
// take, an ε whose Laplace scale overflows at d, an empty fold) to
// invalid_request.
func TestNewReleaseRefusalsAreTyped(t *testing.T) {
	srv := New(Config{})
	negative, err := fitOptions{Parallelism: -1}.build()
	if err != nil {
		t.Fatal(err)
	}
	ds := funcmech.NewDataset(*testStreamSchema())
	empty, err := funcmech.NewAccumulator(*testStreamSchema())
	if err != nil {
		t.Fatal(err)
	}
	refusal := func(_ *funcmech.Release, err error) error { return err }
	for _, c := range []struct {
		name string
		err  error
		code string
	}{
		{"fit of quantile", refusal(funcmech.NewRelease(ds, "quantile", 0.1)), codeUnknownTask},
		{"refit of quantile", refusal(funcmech.NewReleaseFromAccumulator(empty, "quantile", 0.1)), codeUnknownTask},
		{"median with parallelism -1", refusal(funcmech.NewRelease(ds, "median", 0.1, negative...)), codeInvalidRequest},
		{"linear at ε = 1e-320", refusal(funcmech.NewRelease(ds, "linear", 1e-320)), codeInvalidRequest},
		{"refit of an empty fold", refusal(funcmech.NewReleaseFromAccumulator(empty, "linear", 0.1)), codeInvalidRequest},
	} {
		if c.err == nil {
			t.Fatalf("%s: the constructor accepted the request", c.name)
		}
		if got := errors.Is(c.err, funcmech.ErrUnknownTask); got != (c.code == codeUnknownTask) {
			t.Fatalf("%s: errors.Is(err, ErrUnknownTask) = %v for %v", c.name, got, c.err)
		}
		rec := httptest.NewRecorder()
		srv.writeOptionsError(rec, c.err)
		var body errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusBadRequest || body.Error.Code != c.code {
			t.Fatalf("%s: %d %q, want 400 %q", c.name, rec.Code, body.Error.Code, c.code)
		}
	}
	if _, err := funcmech.NewRelease(ds, "median", 0.1); err != nil {
		t.Fatalf("median is a task but was refused: %v", err)
	}
}

// TestOverflowingEpsilonIsRefusedBeforeAdmission: a fit or refit whose ε
// gives an infinite Laplace scale at the release's d (1e-320 at d = 2) is
// a 400 invalid_request decided before admission. It is answered while
// every governor token is held, and it debits, journals and counts no fit.
func TestOverflowingEpsilonIsRefusedBeforeAdmission(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{WorkerCap: 1})
	s.UseWAL(l)
	registerRowsDataset(t, ts.URL, "toy", 50)
	createTenant(t, ts.URL, "acme", 1)
	createStream(t, ts.URL, streamRequest{Name: "s", Schema: testStreamSchema()})
	resp := postJSON(t, ts.URL+"/v1/streams/s/ingest", ingestRequest{Rows: rowsJSON(t, syntheticRows(40, 9))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed ingest: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	held := admitN(t, s.Governor(), 1)
	defer held[0].Release()

	client := &http.Client{Timeout: 5 * time.Second} // a queued request would wait for a token
	for path, req := range map[string]any{
		"/v1/fit":             fitRequest{Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 1e-320},
		"/v1/streams/s/refit": refitRequest{Tenant: "acme", Model: "linear", Epsilon: 1e-320},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got := decode[errorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest || got.Error.Code != codeInvalidRequest || !strings.Contains(got.Error.Message, "scale") {
			t.Errorf("%s: %d %+v, want 400 %q naming the scale", path, resp.StatusCode, got.Error, codeInvalidRequest)
		}
	}
	tenant, _ := s.Tenants().Lookup("acme")
	if spent := tenant.Session.Spent(); spent != 0 {
		t.Errorf("refused releases charged ε = %v, want 0", spent)
	}
	m := scrapeMetrics(t, s)
	for _, family := range []string{"fm_fits_total", "fm_fits_error_total", "fm_refits_total", "fm_refits_error_total"} {
		if m[family] != 0 {
			t.Errorf("%s = %v after refused releases, want 0", family, m[family])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Replay(dir, func(ev wal.Event) error {
		if ev.Kind == wal.EventCharge {
			t.Errorf("WAL holds a charge for a refused release: %+v", ev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFitErrors(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	registerRowsDataset(t, ts.URL, "toy", 50)
	createTenant(t, ts.URL, "acme", 1)

	cases := []struct {
		name   string
		req    any
		status int
		code   string
	}{
		{"unknown tenant", fitRequest{Tenant: "ghost", Dataset: "toy", Model: "linear", Epsilon: 0.1},
			http.StatusNotFound, codeNotFound},
		{"unknown dataset", fitRequest{Tenant: "acme", Dataset: "ghost", Model: "linear", Epsilon: 0.1},
			http.StatusNotFound, codeNotFound},
		{"unknown model", fitRequest{Tenant: "acme", Dataset: "toy", Model: "quantile", Epsilon: 0.1},
			http.StatusBadRequest, codeUnknownTask},
		{"bad epsilon", fitRequest{Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 0},
			http.StatusBadRequest, codeInvalidRequest},
		{"ridge without weight", fitRequest{Tenant: "acme", Dataset: "toy", Model: "ridge", Epsilon: 0.1},
			http.StatusBadRequest, codeInvalidRequest},
		{"threshold on linear", fitRequest{Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 0.1,
			Options: fitOptions{BinarizeThreshold: ptr(1.0)}},
			http.StatusBadRequest, codeInvalidRequest},
		{"bad post_process", fitRequest{Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 0.1,
			Options: fitOptions{PostProcess: "prayer"}},
			http.StatusBadRequest, codeInvalidRequest},
		{"negative parallelism", fitRequest{Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 0.1,
			Options: fitOptions{Parallelism: -1}},
			http.StatusBadRequest, codeInvalidRequest},
		{"ridge_weight on logistic", fitRequest{Tenant: "acme", Dataset: "toy", Model: "logistic", Epsilon: 0.1,
			Options: fitOptions{RidgeWeight: 0.5, BinarizeThreshold: ptr(25.0)}},
			http.StatusBadRequest, codeInvalidRequest},
		{"threshold on median", fitRequest{Tenant: "acme", Dataset: "toy", Model: "median", Epsilon: 0.1,
			Options: fitOptions{BinarizeThreshold: ptr(25.0)}},
			http.StatusBadRequest, codeInvalidRequest},
		// No option selects a kernel: the retired tier switch is an unknown
		// field to the strict decoder.
		{"retired reproducible option", map[string]any{"tenant": "acme", "dataset": "toy", "model": "linear",
			"epsilon": 0.1, "options": map[string]any{"reproducible": false}},
			http.StatusBadRequest, codeInvalidRequest},
		// Releases use the paper's λ = 4·sd(noise): the retired λ-factor
		// knob is an unknown field too.
		{"retired lambda_factor option", map[string]any{"tenant": "acme", "dataset": "toy", "model": "linear",
			"epsilon": 0.1, "options": map[string]any{"lambda_factor": 2.0}},
			http.StatusBadRequest, codeInvalidRequest},
	}
	acme, _ := srv.Tenants().Lookup("acme")
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/fit", c.req)
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		body := decode[errorResponse](t, resp)
		if body.Error.Code != c.code {
			t.Fatalf("%s: code %q, want %q", c.name, body.Error.Code, c.code)
		}
		// Every rejected request failed before the session debit.
		if spent := acme.Session.Spent(); spent != 0 {
			t.Fatalf("%s: rejected request consumed ε: spent = %v", c.name, spent)
		}
	}
}

func TestRegistryConflictsAndGeneration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerRowsDataset(t, ts.URL, "toy", 50)

	// Duplicate name → 409.
	resp := postJSON(t, ts.URL+"/v1/datasets", datasetRequest{
		Name: "toy",
		Schema: &funcmech.Schema{
			Features: []funcmech.Attribute{{Name: "x", Min: 0, Max: 1}},
			Target:   funcmech.Attribute{Name: "y", Min: 0, Max: 1},
		},
		Rows: [][]float64{{0.5, 1}},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate dataset: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Generate combined with inline rows would silently discard the rows;
	// it must be rejected outright.
	resp = postJSON(t, ts.URL+"/v1/datasets", datasetRequest{
		Name:     "mixed",
		Generate: &generateJSON{Profile: "us", N: 10},
		Rows:     [][]float64{{1, 2}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("generate+rows: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// A schema with no rows is a validation error, not a conflict.
	resp = postJSON(t, ts.URL+"/v1/datasets", datasetRequest{
		Name: "hollow",
		Schema: &funcmech.Schema{
			Features: []funcmech.Attribute{{Name: "x", Min: 0, Max: 1}},
			Target:   funcmech.Attribute{Name: "y", Min: 0, Max: 1},
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty rows: status %d, want 400", resp.StatusCode)
	}
	if body := decode[errorResponse](t, resp); body.Error.Code != codeInvalidRequest {
		t.Fatalf("empty rows: code %q, want %q", body.Error.Code, codeInvalidRequest)
	}

	// Server-side census generation.
	resp = postJSON(t, ts.URL+"/v1/datasets", datasetRequest{
		Name:     "census",
		Generate: &generateJSON{Profile: "us", N: 500, Seed: 3},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("census generation: status %d", resp.StatusCode)
	}
	info := decode[datasetInfo](t, resp)
	if info.Records != 500 || info.Features != 13 {
		t.Fatalf("census dataset = %+v, want 500 records × 13 features", info)
	}

	// Duplicate tenant → 409.
	createTenant(t, ts.URL, "acme", 1)
	resp = postJSON(t, ts.URL+"/v1/tenants", tenantRequest{Name: "acme", Budget: 2})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate tenant: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTenantReadsNeverTorn reads a tenant while charges land: each read must
// come from one accountant state, so remaining = total − spent exactly.
func TestTenantReadsNeverTorn(t *testing.T) {
	srv := New(Config{})
	tenant, err := srv.Tenants().Create("acme", 1e6)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := funcmech.NewRelease(funcmech.NewDataset(*testStreamSchema()), "linear", 0.001)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := tenant.Session.Charge(rel); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() { stop.Store(true); wg.Wait() }()

	h := srv.Handler()
	const reads = 2000
	torn := 0
	for i := 0; i < reads; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tenants/acme", nil))
		var info tenantInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if info.EpsilonRemaining != info.EpsilonTotal-info.EpsilonSpent {
			torn++
		}
	}
	if torn > 0 {
		t.Fatalf("%d of %d reads were torn (epsilon_remaining ≠ epsilon_total − epsilon_spent)", torn, reads)
	}
}

// TestGovernedFitsStayUnderWorkerCap drives concurrent fits on a dataset
// large enough to trigger the parallel accumulator and watches the governor
// gauge: it must never exceed the configured cap.
func TestGovernedFitsStayUnderWorkerCap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-record fit load in -short mode")
	}
	s, ts := newTestServer(t, Config{WorkerCap: 2})
	registerRowsDataset(t, ts.URL, "big", 3*2048)
	createTenant(t, ts.URL, "acme", 100)

	stop := make(chan struct{})
	var peak int
	var peakMu sync.Mutex
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				used := s.Governor().InUse()
				peakMu.Lock()
				if used > peak {
					peak = used
				}
				peakMu.Unlock()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/fit", fitRequest{
				Tenant: "acme", Dataset: "big", Model: "linear", Epsilon: 0.5,
				Options: fitOptions{Parallelism: 3, Seed: ptr(int64(g))},
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("fit %d: status %d", g, resp.StatusCode)
			}
			resp.Body.Close()
		}(g)
	}
	wg.Wait()
	close(stop)

	peakMu.Lock()
	defer peakMu.Unlock()
	if peak > 2 {
		t.Fatalf("governor peak usage %d exceeded the cap 2", peak)
	}
	if s.Governor().InUse() != 0 {
		t.Fatalf("workers still held after drain: %d", s.Governor().InUse())
	}
}

// TestAbandonedQueuedFitIsNotCharged is the admission gate's privacy
// promise: a fit whose client gives up while every governor token is held
// is answered without a charge — no ε spent, nothing journaled, no fit run
// once the token frees.
func TestAbandonedQueuedFitIsNotCharged(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{WorkerCap: 1})
	s.UseWAL(l)
	registerRowsDataset(t, ts.URL, "toy", 300)
	createTenant(t, ts.URL, "acme", 3.0)
	fitsBefore := scrapeMetrics(t, s)["fm_fits_total"]
	held := admitN(t, s.Governor(), 1)

	body, err := json.Marshal(fitRequest{Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 100 * time.Millisecond}
	errc := make(chan error, 1)
	go func() {
		resp, err := client.Post(ts.URL+"/v1/fit", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("answered %d", resp.StatusCode)
		}
		errc <- err
	}()
	waitFor(t, "the fit to queue", func() bool { return s.Governor().Waiting() == 1 })
	var ne net.Error
	if err := <-errc; !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("client saw %v, want its own timeout", err)
	}

	// The server notices the disconnect asynchronously. Free the token only
	// once the queued handler has given up (or after two seconds), so a fit
	// still waiting would run now.
	for deadline := time.Now().Add(2 * time.Second); s.Governor().Waiting() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	held[0].Release()
	ts.Close() // blocks until every handler has returned

	tenant, _ := s.Tenants().Lookup("acme")
	if spent := tenant.Session.Spent(); spent != 0 {
		t.Errorf("abandoned fit charged ε = %v, want 0", spent)
	}
	if n := tenant.Fits(); n != 0 {
		t.Errorf("tenant Fits() = %d after an abandoned fit, want 0", n)
	}
	if got := scrapeMetrics(t, s)["fm_fits_total"]; got != fitsBefore {
		t.Errorf("fm_fits_total = %v, want %v", got, fitsBefore)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Replay(dir, func(ev wal.Event) error {
		if ev.Kind == wal.EventCharge {
			t.Errorf("WAL holds a charge for the abandoned fit: %+v", ev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestJSONBodiesRejectTrailingBytes: every JSON-body route reads exactly one
// JSON value and then nothing but whitespace. A body with anything after
// its value is a 400 invalid_request that changes nothing — in particular
// a fit or refit charges no ε — while the same bodies with only trailing
// whitespace succeed.
func TestJSONBodiesRejectTrailingBytes(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	registerRowsDataset(t, ts.URL, "toy", 50)
	createTenant(t, ts.URL, "acme", 4)
	createStream(t, ts.URL, streamRequest{Name: "s", Schema: testStreamSchema()})
	resp := postJSON(t, ts.URL+"/v1/streams/s/ingest", ingestRequest{Rows: rowsJSON(t, syntheticRows(40, 9))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed ingest: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	st, _ := srv.Streams().Lookup("s")
	acme, _ := srv.Tenants().Lookup("acme")
	records, _ := st.Counts()

	routes := []struct{ name, path, body string }{
		{"tenants", "/v1/tenants", `{"name":"c","budget":1}`},
		{"streams", "/v1/streams", `{"name":"s2","schema":{"features":[{"name":"x","min":0,"max":1}],"target":{"name":"y","min":0,"max":1}}}`},
		{"datasets", "/v1/datasets", `{"name":"d2","generate":{"profile":"us","n":100,"seed":1}}`},
		{"fit", "/v1/fit", `{"tenant":"acme","dataset":"toy","model":"linear","epsilon":0.5}`},
		{"refit", "/v1/streams/s/refit", `{"tenant":"acme","model":"linear","epsilon":0.5}`},
		{"ingest", "/v1/streams/s/ingest", `{"rows":[[0.5,0.5,1]]}`},
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e) // success bodies carry no error code
		return resp.StatusCode, e.Error.Code
	}
	for _, rt := range routes {
		for _, trailer := range []string{"garbage", ` {"rows":[[1,1,1]]}`, `]`, ` "x"`, "\n0"} {
			if status, code := post(rt.path, rt.body+trailer); status != http.StatusBadRequest || code != codeInvalidRequest {
				t.Errorf("%s with trailer %q: %d %q, want 400 %q", rt.name, trailer, status, code, codeInvalidRequest)
			}
		}
	}
	if _, ok := srv.Tenants().Lookup("c"); ok {
		t.Error("a tenant body with trailing bytes created the tenant")
	}
	if _, ok := srv.Streams().Lookup("s2"); ok {
		t.Error("a stream body with trailing bytes created the stream")
	}
	if _, ok := srv.Registry().Lookup("d2"); ok {
		t.Error("a dataset body with trailing bytes registered the dataset")
	}
	if spent := acme.Session.Spent(); spent != 0 {
		t.Errorf("fit and refit bodies with trailing bytes charged ε = %v, want 0", spent)
	}
	if got, _ := st.Counts(); got != records {
		t.Errorf("ingest bodies with trailing bytes folded %d records", got-records)
	}
	for _, rt := range routes {
		if status, _ := post(rt.path, rt.body+" \r\n\t"); status != http.StatusOK && status != http.StatusCreated {
			t.Errorf("%s with trailing whitespace: status %d, want success", rt.name, status)
		}
	}
}
