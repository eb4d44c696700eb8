package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// buildFmserve compiles the server the smoke runs boot.
func buildFmserve(t *testing.T) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		gobin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	bin := filepath.Join(t.TempDir(), "fmserve")
	if out, err := exec.Command(gobin, "build", "-o", bin, "funcmech/cmd/fmserve").CombinedOutput(); err != nil {
		t.Fatalf("building fmserve: %v\n%s", err, out)
	}
	return bin
}

func smokeOptions(t *testing.T, bin string, trace bool) options {
	dir := t.TempDir()
	// Two seconds leave every phase whole 1-s windows even on a loaded machine.
	return options{seed: 7, seconds: 2, trace: trace, fmserve: bin, outDir: dir, walRoot: dir, sz: smokeSizes(), out: io.Discard}
}

// checkNames asserts that a run reported exactly the declared metrics.
func checkNames(t *testing.T, kind string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		names := make([]string, 0, len(got))
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		t.Errorf("%s: reported %d metrics %v, BENCHMARK.json declares %d", kind, len(got), names, len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %q declared but not reported", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s metric %q is not finite: %v", kind, m.Name, g.Value)
		}
	}
}

// TestSmoke runs every workload and its traced run at tiny sizes against a
// real fmserve. It asserts correctness and the shape of the report, never
// a timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots fmserve")
	}
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadNames))
	}
	bin := buildFmserve(t)
	for i, name := range workloadNames {
		if bf.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, bf.Workloads[i].Name, name)
		}
		t.Run(name, func(t *testing.T) {
			o := smokeOptions(t, bin, true)
			w, err := newWorkload(name, o.seed, o.sz)
			if err != nil {
				t.Fatal(err)
			}
			res, rep, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Verdicts {
				if !v.OK {
					t.Errorf("check %s failed: %s", v.Name, v.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkNames(t, "end_to_end", rep.EndToEnd, bf.EndToEnd)
			checkNames(t, "per_layer", rep.PerLayer, bf.PerLayer)

			// Every op has an account with layer spans, and no op's layers
			// cost more than its handler.
			gated, split := false, false
			for _, a := range rep.Accounts {
				gated = gated || a.Op == w.gated
				if len(a.Layers) == 0 {
					t.Errorf("op %s: no layer spans recorded", a.Op)
				}
			}
			for _, v := range rep.Verdicts {
				if v.Name == "trace_layers_within_handler" {
					split = true
					t.Log(v.Detail)
				}
			}
			if !split {
				t.Error("no trace_layers_within_handler verdict")
			}
			if !gated {
				t.Errorf("no account for the gated op %s", w.gated)
			}
		})
	}
}

// TestSplitVerdictRejectsLayersPastHandler feeds account a request whose
// replayed layers take longer than its handler call, as they would if the
// twin did work the handler does not: the split verdict must fail.
func TestSplitVerdictRejectsLayersPastHandler(t *testing.T) {
	w := &workload{gated: opRefit}
	reqs := []tracedReq{{Op: opRefit, HandlerMS: 10}, {Op: opRefit, HandlerMS: 10}}
	ms := int64(1e6)
	spans := func(trimMS int64) []span {
		var out []span
		for r := range reqs {
			out = append(out,
				span{Name: spanMerge, Start: 0, End: ms, Parent: -1, Req: r},
				span{Name: spanRelease, Start: ms, End: (2 + trimMS) * ms, Parent: -1, Req: r},
				// Request r's spans start at index 3r; its release is 3r+1.
				span{Name: spanTrim, Start: 2 * ms, End: (2 + trimMS) * ms, Parent: 3*r + 1, Req: r},
			)
		}
		return out
	}
	for _, tc := range []struct {
		trimMS int64
		ok     bool
	}{{7, true}, {8, true}, {9, true}, {10, false}} {
		accounts, _ := account(w, reqs, spans(tc.trimMS), map[opKind]float64{opRefit: 12})
		if v := splitVerdict(accounts); v.OK != tc.ok {
			t.Errorf("layers of %d ms against a 10-ms handler: verdict ok=%v, want %v (%s)", 2+tc.trimMS, v.OK, tc.ok, v.Detail)
		}
	}
}

// TestCheckRejectsWrongExpectation corrupts the benchmark's own copy of the
// records after the request bodies were built, so the server fits the true
// records while the benchmark expects the solution over the corrupted ones:
// the release check must fail and so must the run.
func TestCheckRejectsWrongExpectation(t *testing.T) {
	if testing.Short() {
		t.Skip("boots fmserve")
	}
	o := smokeOptions(t, buildFmserve(t), false)
	w, err := newWorkload("ingest_json_d14", o.seed, o.sz)
	if err != nil {
		t.Fatal(err)
	}
	width := w.d() + 1
	for b := range w.flats {
		for i := width - 1; i < len(w.flats[b]); i += width {
			w.flats[b][i] = w.schema.Target.Max - w.flats[b][i] // mirror every target
		}
	}
	res, rep, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("run passed its checks against a wrong expected solution")
	}
	for _, v := range rep.Verdicts {
		if v.Name == "release_matches_least_squares" {
			if v.OK {
				t.Errorf("release check passed against a wrong expected solution: %s", v.Detail)
			}
			return
		}
	}
	t.Error("no release check verdict")
}

func TestGramSolve(t *testing.T) {
	// y = 0.5·x0 − 0.25·x1 exactly, on a schema whose normalisation is the
	// identity up to the 1/√d feature scale and the [−1,1] target map.
	g := newGram(2)
	s := wideSchema(2)
	s.Target.Min, s.Target.Max = -1, 1
	var flat []float64
	for _, x := range [][2]float64{{0.1, 0.9}, {0.8, 0.3}, {0.5, 0.5}, {0.2, 0.7}, {0.9, 0.1}} {
		flat = append(flat, x[0], x[1], 0.5*x[0]-0.25*x[1])
	}
	g.add(s, flat)
	w, err := g.solve()
	if err != nil {
		t.Fatal(err)
	}
	sq := math.Sqrt2 // normalised features are x/√2, so weights scale by √2
	want := []float64{0.5 * sq, -0.25 * sq}
	if d := relDiff(w, want); d > 1e-12 {
		t.Errorf("solve = %v, want %v (rel diff %g)", w, want, d)
	}
	if compareRelease(want, w).OK != true {
		t.Error("exact solution rejected")
	}
	if compareRelease([]float64{want[0] * 1.001, want[1]}, w).OK {
		t.Error("0.1% error accepted")
	}
}

func TestParseProm(t *testing.T) {
	body := []byte(`# HELP fm_http_responses_total x
fm_http_responses_total{endpoint="POST /v1/streams/{name}/ingest",code="200"} 12
fm_http_responses_total{endpoint="GET /metrics",code="200"} 3
fm_wal_appends_total 7
fm_epsilon_spent{tenant="a\"b"} 0.5
`)
	s, err := parseProm(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterSum(s, "fm_http_responses_total", map[string]string{"endpoint": epIngest, "code": "200"}); got != 12 {
		t.Errorf("ingest responses = %v, want 12", got)
	}
	if got := counterSum(s, "fm_http_responses_total", nil); got != 15 {
		t.Errorf("all responses = %v, want 15", got)
	}
	if got := counterSum(s, "fm_wal_appends_total", nil); got != 7 {
		t.Errorf("wal appends = %v, want 7", got)
	}
	if got := counterSum(s, "fm_epsilon_spent", map[string]string{"tenant": `a"b`}); got != 0.5 {
		t.Errorf("escaped label lookup = %v, want 0.5", got)
	}
}
