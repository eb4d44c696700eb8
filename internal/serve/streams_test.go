package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"funcmech"
)

// ingestRequest is the JSON ingest body as clients send it. The server has
// no such type: it scans the body in one pass (ingestdecode.go).
type ingestRequest struct {
	Rows json.RawMessage `json:"rows"`
}

// rowsJSON marshals rows the way clients send them.
func rowsJSON(t *testing.T, rows [][]float64) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testStreamSchema() *funcmech.Schema {
	return &funcmech.Schema{
		Features: []funcmech.Attribute{
			{Name: "x1", Min: 0, Max: 10},
			{Name: "x2", Min: 0, Max: 5},
		},
		Target: funcmech.Attribute{Name: "y", Min: 0, Max: 50},
	}
}

func syntheticRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
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
	return rows
}

func createStream(t *testing.T, base string, req streamRequest) streamInfo {
	t.Helper()
	resp := postJSON(t, base+"/v1/streams", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("stream creation: status %d", resp.StatusCode)
	}
	return decode[streamInfo](t, resp)
}

func TestStreamLifecycleOverHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createStream(t, ts.URL, streamRequest{Name: "readings", Schema: testStreamSchema(), Intercept: true})
	createTenant(t, ts.URL, "acme", 5)

	// Duplicate names conflict.
	resp := postJSON(t, ts.URL+"/v1/streams", streamRequest{Name: "readings", Schema: testStreamSchema()})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate stream: status %d, want 409", resp.StatusCode)
	}

	// The retired "reproducible" tier switch is an unknown field: a typed
	// 400, and no stream is created. The ε check after the refit below
	// shows it charged nothing.
	resp = postJSON(t, ts.URL+"/v1/streams", map[string]any{
		"name": "retired", "schema": testStreamSchema(), "reproducible": false,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("retired reproducible field: status %d, want 400", resp.StatusCode)
	}
	if body := decode[errorResponse](t, resp); body.Error.Code != codeInvalidRequest {
		t.Fatalf("retired reproducible field: code %q, want %q", body.Error.Code, codeInvalidRequest)
	}
	if _, ok := srv.Streams().Lookup("retired"); ok {
		t.Fatal("a rejected stream request created the stream")
	}

	// Ingest two batches.
	rows := syntheticRows(120, 1)
	for _, cut := range [][2]int{{0, 50}, {50, 120}} {
		resp := postJSON(t, ts.URL+"/v1/streams/readings/ingest", ingestRequest{Rows: rowsJSON(t, rows[cut[0]:cut[1]])})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d", resp.StatusCode)
		}
		out := decode[ingestResponse](t, resp)
		if out.Accepted != cut[1]-cut[0] {
			t.Fatalf("accepted %d, want %d", out.Accepted, cut[1]-cut[0])
		}
	}

	// Refit charges the budget and reports coverage.
	resp = postJSON(t, ts.URL+"/v1/streams/readings/refit", refitRequest{
		Tenant: "acme", Model: "linear", Epsilon: 1.0,
		Options: refitOptions{Seed: ptr(int64(3))},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refit: status %d", resp.StatusCode)
	}
	fit := decode[releaseResponse](t, resp)
	if fit.RecordsCovered != 120 || len(fit.Weights) != 3 { // 2 features + intercept
		t.Fatalf("refit covered %d records with %d weights", fit.RecordsCovered, len(fit.Weights))
	}
	if fit.EpsilonRemaining != 4 {
		t.Fatalf("epsilon_remaining = %v, want 4", fit.EpsilonRemaining)
	}

	// Stream metadata reflects the ingest and the refit.
	if got := srv.Streams(); got != nil {
		st, ok := got.Lookup("readings")
		if !ok {
			t.Fatal("stream readings lost")
		}
		if records, batches := st.Counts(); records != 120 || batches != 2 || st.Refits() != 1 {
			t.Fatalf("stream state: records=%d batches=%d refits=%d", records, batches, st.Refits())
		}
		last, ok := st.LastRefit()
		if !ok || last.Model != "linear" || last.Tenant != "acme" || last.Records != 120 {
			t.Fatalf("last refit: %+v ok=%v", last, ok)
		}
	}

	// Service-level ingest counters.
	m := scrapeMetrics(t, srv)
	if m["fm_ingest_records_total"] != 120 || m["fm_ingest_batches_total"] != 2 || m["fm_refits_total"] != 1 {
		t.Fatalf("metrics: records=%v batches=%v refits=%v",
			m["fm_ingest_records_total"], m["fm_ingest_batches_total"], m["fm_refits_total"])
	}
}

// TestRefitBitIdenticalToFitOverHTTP is the acceptance criterion end to end:
// the same records, ingested into a single-shard stream versus registered as
// a dataset, produce bit-identical weights from /v1/streams/{name}/refit and
// /v1/fit at a fixed seed and parallelism 1 — for every normalized-target
// model served through the registry, with no model-specific handling in the
// server (median flows through the same generic path as linear).
func TestRefitBitIdenticalToFitOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTenant(t, ts.URL, "acme", 10)
	rows := syntheticRows(400, 2)

	resp := postJSON(t, ts.URL+"/v1/datasets", datasetRequest{
		Name: "materialized", Schema: testStreamSchema(), Rows: rows,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("dataset: status %d", resp.StatusCode)
	}
	createStream(t, ts.URL, streamRequest{Name: "live", Schema: testStreamSchema(), Intercept: true})
	for _, cut := range [][2]int{{0, 37}, {37, 201}, {201, 400}} {
		resp := postJSON(t, ts.URL+"/v1/streams/live/ingest", ingestRequest{Rows: rowsJSON(t, rows[cut[0]:cut[1]])})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d", resp.StatusCode)
		}
	}

	for i, model := range []string{"linear", "median"} {
		seed := int64(17 + i)
		// Path 1: one-shot fit over the materialized dataset.
		resp = postJSON(t, ts.URL+"/v1/fit", fitRequest{
			Tenant: "acme", Dataset: "materialized", Model: model, Epsilon: 1.0,
			Options: fitOptions{Intercept: true, Parallelism: 1, Seed: &seed},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s fit: status %d", model, resp.StatusCode)
		}
		oneShot := decode[releaseResponse](t, resp)

		// Path 2: refit from the stream's live fold for the same task.
		resp = postJSON(t, ts.URL+"/v1/streams/live/refit", refitRequest{
			Tenant: "acme", Model: model, Epsilon: 1.0,
			Options: refitOptions{Seed: &seed},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s refit: status %d", model, resp.StatusCode)
		}
		refit := decode[releaseResponse](t, resp)

		if len(oneShot.Weights) != len(refit.Weights) {
			t.Fatalf("%s weight counts differ: %d vs %d", model, len(oneShot.Weights), len(refit.Weights))
		}
		for i := range oneShot.Weights {
			if oneShot.Weights[i] != refit.Weights[i] {
				t.Fatalf("%s weight %d: fit %v vs refit %v (want bit-identical)", model, i, oneShot.Weights[i], refit.Weights[i])
			}
		}
		if oneShot.Report.Delta != refit.Report.Delta || oneShot.Report.NoiseScale != refit.Report.NoiseScale {
			t.Fatalf("%s reports diverge: %+v vs %+v", model, oneShot.Report, refit.Report)
		}
	}
}

func TestConcurrentIngestOverHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createStream(t, ts.URL, streamRequest{Name: "burst", Schema: testStreamSchema(), Shards: 4})

	const clients, perBatch = 6, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/streams/burst/ingest",
				ingestRequest{Rows: rowsJSON(t, syntheticRows(perBatch, int64(100+c)))})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()

	st, _ := srv.Streams().Lookup("burst")
	if records, _ := st.Counts(); records != clients*perBatch {
		t.Fatalf("records = %d, want %d", records, clients*perBatch)
	}
	m := scrapeMetrics(t, srv)
	if m["fm_ingest_records_total"] != clients*perBatch || m["fm_ingest_batches_total"] != clients {
		t.Fatalf("metrics records=%v batches=%v", m["fm_ingest_records_total"], m["fm_ingest_batches_total"])
	}
}

func TestRefitBudgetExhaustionTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTenant(t, ts.URL, "small", 1)
	createStream(t, ts.URL, streamRequest{Name: "s", Schema: testStreamSchema()})
	resp := postJSON(t, ts.URL+"/v1/streams/s/ingest", ingestRequest{Rows: rowsJSON(t, syntheticRows(50, 3))})
	resp.Body.Close()

	ok := postJSON(t, ts.URL+"/v1/streams/s/refit", refitRequest{Tenant: "small", Model: "linear", Epsilon: 1})
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("first refit: status %d", ok.StatusCode)
	}
	refused := postJSON(t, ts.URL+"/v1/streams/s/refit", refitRequest{Tenant: "small", Model: "linear", Epsilon: 1})
	if refused.StatusCode != http.StatusPaymentRequired {
		t.Fatalf("second refit: status %d, want 402", refused.StatusCode)
	}
	body := decode[errorResponse](t, refused)
	if body.Error.Code != codeBudgetExhausted {
		t.Fatalf("error code %q, want %q", body.Error.Code, codeBudgetExhausted)
	}
}

func TestRefitRejectsFitTimeFoldOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTenant(t, ts.URL, "acme", 5)
	createStream(t, ts.URL, streamRequest{Name: "s", Schema: testStreamSchema()})
	resp := postJSON(t, ts.URL+"/v1/streams/s/ingest", ingestRequest{Rows: rowsJSON(t, syntheticRows(30, 4))})
	resp.Body.Close()

	// intercept is fixed at stream creation, and the λ-factor knob is
	// retired; the refit options schema rejects both as unknown fields.
	for field, value := range map[string]any{"intercept": true, "lambda_factor": 2.0} {
		raw := map[string]any{
			"tenant": "acme", "model": "linear", "epsilon": 1.0,
			"options": map[string]any{field: value},
		}
		bad := postJSON(t, ts.URL+"/v1/streams/s/refit", raw)
		if bad.StatusCode != http.StatusBadRequest {
			bad.Body.Close()
			t.Fatalf("status %d, want 400 for %s in refit options", bad.StatusCode, field)
		}
		if body := decode[errorResponse](t, bad); body.Error.Code != codeInvalidRequest {
			t.Fatalf("%s in refit options: code %q, want %q", field, body.Error.Code, codeInvalidRequest)
		}
	}

	// An empty stream refuses refits before touching the budget.
	createStream(t, ts.URL, streamRequest{Name: "empty", Schema: testStreamSchema()})
	empty := postJSON(t, ts.URL+"/v1/streams/empty/refit", refitRequest{Tenant: "acme", Model: "linear", Epsilon: 1})
	empty.Body.Close()
	if empty.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for empty-stream refit", empty.StatusCode)
	}
}

// TestRefitRefusalsChargeNothing: every refit the library or the fold
// refuses is a 400 before the charge. "hollow" is a stream whose sequence
// gauge says 100 records while its fold holds none — the state WAL replay
// leaves when the batches journaled after an empty-stream snapshot died
// with the process.
func TestRefitRefusalsChargeNothing(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createTenant(t, ts.URL, "acme", 5)
	createStream(t, ts.URL, streamRequest{Name: "s", Schema: testStreamSchema()})
	resp := postJSON(t, ts.URL+"/v1/streams/s/ingest", ingestRequest{Rows: rowsJSON(t, syntheticRows(30, 6))})
	resp.Body.Close()
	createStream(t, ts.URL, streamRequest{Name: "hollow", Schema: testStreamSchema()})
	hollow, _ := srv.Streams().Lookup("hollow")
	hollow.AdvanceSeq(100, 1)

	cases := []struct {
		name, stream string
		req          refitRequest
		code         string
	}{
		{"unknown model", "s", refitRequest{Tenant: "acme", Model: "quantile", Epsilon: 0.1}, codeUnknownTask},
		{"zero epsilon", "s", refitRequest{Tenant: "acme", Model: "linear"}, codeInvalidRequest},
		{"negative epsilon", "s", refitRequest{Tenant: "acme", Model: "linear", Epsilon: -1}, codeInvalidRequest},
		{"bad post_process", "s", refitRequest{Tenant: "acme", Model: "linear", Epsilon: 0.1,
			Options: refitOptions{PostProcess: "prayer"}}, codeInvalidRequest},
		{"ridge_weight on logistic", "s", refitRequest{Tenant: "acme", Model: "logistic", Epsilon: 0.1,
			Options: refitOptions{RidgeWeight: 0.5}}, codeInvalidRequest},
		{"empty fold", "hollow", refitRequest{Tenant: "acme", Model: "linear", Epsilon: 0.1}, codeInvalidRequest},
	}
	acme, _ := srv.Tenants().Lookup("acme")
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/streams/"+c.stream+"/refit", c.req)
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Fatalf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if body := decode[errorResponse](t, resp); body.Error.Code != c.code {
			t.Fatalf("%s: code %q, want %q", c.name, body.Error.Code, c.code)
		}
		if spent := acme.Session.Spent(); spent != 0 {
			t.Fatalf("%s: refused refit consumed ε: spent = %v", c.name, spent)
		}
	}
}

func TestIngestValidationOverHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createStream(t, ts.URL, streamRequest{Name: "v", Schema: testStreamSchema()})

	for name, rows := range map[string][][]float64{
		"empty":  {},
		"ragged": {{1, 2, 3}, {1, 2}},
	} {
		resp := postJSON(t, ts.URL+"/v1/streams/v/ingest", ingestRequest{Rows: rowsJSON(t, rows)})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	missing := postJSON(t, ts.URL+"/v1/streams/nope/ingest", ingestRequest{Rows: rowsJSON(t, syntheticRows(5, 5))})
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream: status %d, want 404", missing.StatusCode)
	}
	if got := scrapeMetrics(t, srv)["fm_ingest_records_total"]; got != 0 {
		t.Fatalf("rejected batches counted: %v", got)
	}
}
