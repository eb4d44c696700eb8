package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"funcmech/internal/fmbin"
)

// flatten converts per-record rows into the row-major layout fmbin frames
// carry.
func flatten(rows [][]float64) []float64 {
	flat := make([]float64, 0, len(rows)*len(rows[0]))
	for _, row := range rows {
		flat = append(flat, row...)
	}
	return flat
}

// postFrame sends one fmbin frame under the negotiated media type.
func postFrame(t *testing.T, url string, frame []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, fmbin.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func encodeFrame(t *testing.T, rows [][]float64, compress bool) []byte {
	t.Helper()
	frame, err := fmbin.Encode(nil, flatten(rows), len(rows[0]), compress)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestBinaryIngestMatchesJSON is the negotiation acceptance criterion:
// the same records ingested as JSON and as a compressed fmbin frame must
// leave the two streams bit-identical, so refits at the same seed return
// the same weights.
func TestBinaryIngestMatchesJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTenant(t, ts.URL, "acme", 4)
	rows := syntheticRows(150, 7)
	for _, name := range []string{"js", "bin"} {
		createStream(t, ts.URL, streamRequest{Name: name, Schema: testStreamSchema(), Intercept: true})
	}

	resp := postJSON(t, ts.URL+"/v1/streams/js/ingest", ingestRequest{Rows: rowsJSON(t, rows)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json ingest: status %d", resp.StatusCode)
	}
	jsIn := decode[ingestResponse](t, resp)

	resp = postFrame(t, ts.URL+"/v1/streams/bin/ingest", encodeFrame(t, rows, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary ingest: status %d", resp.StatusCode)
	}
	binIn := decode[ingestResponse](t, resp)
	if binIn.Accepted != jsIn.Accepted || binIn.Accepted != 150 {
		t.Fatalf("accepted json=%d binary=%d, want 150", jsIn.Accepted, binIn.Accepted)
	}

	var weights [][]float64
	for _, name := range []string{"js", "bin"} {
		resp := postJSON(t, ts.URL+"/v1/streams/"+name+"/refit", refitRequest{
			Tenant: "acme", Model: "linear", Epsilon: 1.0,
			Options: refitOptions{Seed: ptr(int64(42))},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("refit %s: status %d", name, resp.StatusCode)
		}
		weights = append(weights, decode[releaseResponse](t, resp).Weights)
	}
	if len(weights[0]) == 0 {
		t.Fatal("refit returned no weights")
	}
	for i := range weights[0] {
		if weights[0][i] != weights[1][i] {
			t.Fatalf("weight %d differs: json=%v binary=%v", i, weights[0][i], weights[1][i])
		}
	}
}

// TestBinaryIngestRejects exercises the negotiation error surface: broken
// frames 400, non-frames and unknown versions 415, and a frame whose
// width does not match the stream's schema 400 — all without mutating the
// stream.
func TestBinaryIngestRejects(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createStream(t, ts.URL, streamRequest{Name: "s", Schema: testStreamSchema()})
	good := encodeFrame(t, syntheticRows(4, 1), true)

	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1]++

	// An intact frame of a version this build does not speak: bump the
	// version byte and restore a valid CRC trailer.
	versioned := append([]byte(nil), good...)
	versioned[4] = 9
	binary.LittleEndian.PutUint32(versioned[len(versioned)-4:],
		crc32.Checksum(versioned[:len(versioned)-4], crc32.MakeTable(crc32.Castagnoli)))

	cases := []struct {
		name   string
		body   []byte
		status int
	}{
		{"corrupt CRC", corrupt, http.StatusBadRequest},
		{"future version", versioned, http.StatusUnsupportedMediaType},
		{"not a frame", []byte(`{"rows":[[1,2,3]]}`), http.StatusUnsupportedMediaType},
		{"empty body", nil, http.StatusUnsupportedMediaType},
		{"wrong width", encodeFrame(t, [][]float64{{1, 2}}, false), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postFrame(t, ts.URL+"/v1/streams/s/ingest", tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	st, _ := srv.Streams().Lookup("s")
	if records, _ := st.Counts(); records != 0 {
		t.Fatalf("rejected frames folded %d records into the stream", records)
	}
}

// TestBinaryDatasetRegistration covers the /v1/datasets negotiation: a
// frame body plus name/schema query parameters registers the same dataset
// the JSON path would, proven by bit-identical fits at a fixed seed.
func TestBinaryDatasetRegistration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTenant(t, ts.URL, "acme", 4)
	rows := syntheticRows(200, 11)

	resp := postJSON(t, ts.URL+"/v1/datasets", datasetRequest{Name: "js", Schema: testStreamSchema(), Rows: rows})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("json registration: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	schemaParam, err := json.Marshal(testStreamSchema())
	if err != nil {
		t.Fatal(err)
	}
	binURL := ts.URL + "/v1/datasets?name=bin&schema=" + url.QueryEscape(string(schemaParam))
	resp = postFrame(t, binURL, encodeFrame(t, rows, true))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("binary registration: status %d", resp.StatusCode)
	}
	info := decode[datasetInfo](t, resp)
	if info.Records != 200 || info.Features != 2 {
		t.Fatalf("binary dataset: %+v", info)
	}

	var weights [][]float64
	for _, name := range []string{"js", "bin"} {
		resp := postJSON(t, ts.URL+"/v1/fit", fitRequest{
			Tenant: "acme", Dataset: name, Model: "linear", Epsilon: 1.0,
			Options: fitOptions{Seed: ptr(int64(5))},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fit %s: status %d", name, resp.StatusCode)
		}
		weights = append(weights, decode[releaseResponse](t, resp).Weights)
	}
	for i := range weights[0] {
		if weights[0][i] != weights[1][i] {
			t.Fatalf("weight %d differs: json=%v binary=%v", i, weights[0][i], weights[1][i])
		}
	}

	// Missing query parameters and an invalid schema reject before touching
	// the body, so a body that is no frame at all still gets their 400, not
	// a 415.
	noFeatures := url.QueryEscape(`{"target":{"name":"y","max":1}}`)
	for _, bad := range []string{"/v1/datasets", "/v1/datasets?name=x", "/v1/datasets?name=x&schema=" + noFeatures} {
		resp := postFrame(t, ts.URL+bad, []byte("not a frame"))
		body := decode[errorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest || strings.Contains(body.Error.Message, "frame") {
			t.Errorf("%s: status %d (%s), want 400 about the query", bad, resp.StatusCode, body.Error.Message)
		}
	}
}

// TestBinaryDatasetRegistrationRefusesNaN: an fmbin frame can carry NaN,
// which JSON cannot. Registration refuses such a dataset with a 400, so no
// fit is ever charged for data it cannot train on: the name stays free and
// a fit against it costs the tenant nothing.
func TestBinaryDatasetRegistrationRefusesNaN(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createTenant(t, ts.URL, "acme", 4)
	schemaParam, err := json.Marshal(testStreamSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{0, 2} { // a feature, then the target
		rows := syntheticRows(50, 3)
		rows[17][col] = math.NaN()
		resp := postFrame(t, ts.URL+"/v1/datasets?name=nan&schema="+url.QueryEscape(string(schemaParam)), encodeFrame(t, rows, true))
		body := decode[errorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest || body.Error.Code != codeInvalidRequest {
			t.Fatalf("NaN in column %d: status %d code %q, want 400 %s", col, resp.StatusCode, body.Error.Code, codeInvalidRequest)
		}
		if !strings.Contains(body.Error.Message, "record 17") {
			t.Errorf("NaN in column %d: message %q does not name record 17", col, body.Error.Message)
		}
	}
	if _, ok := srv.Registry().Lookup("nan"); ok {
		t.Fatal("a dataset holding NaN was registered")
	}
	resp := postJSON(t, ts.URL+"/v1/fit", fitRequest{Tenant: "acme", Dataset: "nan", Model: "linear", Epsilon: 0.5})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fit on the refused dataset: status %d, want 404", resp.StatusCode)
	}
	if tn, _ := srv.Tenants().Lookup("acme"); tn.Session.Spent() != 0 {
		t.Fatalf("tenant spent %v after the refused registration, want 0", tn.Session.Spent())
	}
}

// TestDatasetRegistrationRefusals: both body types of POST /v1/datasets
// build their dataset one way, so they refuse the same things with a 400
// and register nothing: a schema with an unknown field or trailing data
// after it (the fmbin schema parameter is decoded as strictly as a JSON
// body), a ragged JSON row or frame, and a frame of no rows. A NaN frame
// and a JSON body with no rows have tests of their own.
func TestDatasetRegistrationRefusals(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	schemaParam, err := json.Marshal(testStreamSchema())
	if err != nil {
		t.Fatal(err)
	}
	unknown := strings.Replace(string(schemaParam), `{`, `{"weights":[1],`, 1)
	rows := syntheticRows(20, 5)
	frameCases := []struct {
		name, schema string
		frame        []byte
	}{
		{"unknown schema field", unknown, encodeFrame(t, rows, true)},
		{"trailing data after the schema", string(schemaParam) + ` {}`, encodeFrame(t, rows, true)},
		{"ragged frame", string(schemaParam), encodeFrame(t, [][]float64{{1, 2}}, false)},
		{"no rows", string(schemaParam), func() []byte {
			frame, err := fmbin.Encode(nil, nil, 3, false)
			if err != nil {
				t.Fatal(err)
			}
			return frame
		}()},
	}
	for _, tc := range frameCases {
		resp := postFrame(t, ts.URL+"/v1/datasets?name=bad&schema="+url.QueryEscape(tc.schema), tc.frame)
		body := decode[errorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest || body.Error.Code != codeInvalidRequest {
			t.Errorf("fmbin %s: status %d code %q, want 400 %s", tc.name, resp.StatusCode, body.Error.Code, codeInvalidRequest)
		}
	}
	jsonCases := map[string]string{
		"unknown schema field": `{"name":"bad","schema":` + unknown + `,"rows":[[1,2,3]]}`,
		"ragged row":           `{"name":"bad","schema":` + string(schemaParam) + `,"rows":[[1,2,3],[1,2]]}`,
	}
	for name, body := range jsonCases {
		resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("JSON %s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if _, ok := srv.Registry().Lookup("bad"); ok {
		t.Fatal("a refused registration registered its dataset")
	}
}

// TestDatasetRegistrationSizesNothingFromCounts: a JSON registration with
// a wide valid schema and many empty rows is refused with a 400 at its
// first ragged row, having allocated a small multiple of the body it
// decoded (about 14× here, mostly the decoded schema). Sizing the flat
// buffer from the two client-controlled counts before the rows are checked
// would take features × rows × 8 bytes: 134 MB here, and about 10 GB for
// a 1 MB body built the same way.
func TestDatasetRegistrationSizesNothingFromCounts(t *testing.T) {
	const n = 4096
	var b strings.Builder
	b.WriteString(`{"name":"wide","schema":{"features":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"x%d","max":1}`, i)
	}
	b.WriteString(`],"target":{"name":"y","max":1}},"rows":[[]`)
	b.WriteString(strings.Repeat(`,[]`, n-1))
	b.WriteString(`]}`)
	body := b.String()
	h := New(Config{}).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/datasets", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "row 0 has 0 values") {
		t.Fatalf("status %d, body %s; want 400 at row 0", rec.Code, rec.Body)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(body)); got > limit {
		t.Fatalf("refused registration allocated %d bytes for a %d-byte body, want at most %d", got, len(body), limit)
	}
}
