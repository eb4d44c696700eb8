package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"funcmech/internal/census"
	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/fmbin"
)

// opKind names the three request types the workloads send.
type opKind string

const (
	opFit    opKind = "fit"    // POST /v1/fit
	opIngest opKind = "ingest" // POST /v1/streams/{name}/ingest
	opRefit  opKind = "refit"  // POST /v1/streams/{name}/refit
)

// Endpoint patterns, exactly as fmserve labels fm_http_responses_total.
const (
	epFit          = "POST /v1/fit"
	epIngest       = "POST /v1/streams/{name}/ingest"
	epRefit        = "POST /v1/streams/{name}/refit"
	epDatasets     = "POST /v1/datasets"
	epStreams      = "POST /v1/streams"
	epTenants      = "POST /v1/tenants"
	epGetTenant    = "GET /v1/tenants/{name}"
	epListStreams  = "GET /v1/streams"
	tenantName     = "analyst"
	tenantBudget   = 1e12
	releaseEpsilon = 0.8 // paper §7 default
	checkEpsilon   = 1e9 // noise-free release for the output check

	// binRows is the record count of every fmbin ingest batch. Fewer d=64
	// records per batch leave the smoke run's check release ill-conditioned.
	binRows = 1024
	// refitRate is the open-loop analyst's schedule, releases per second.
	refitRate = 8
)

// sizes fixes how much work one run does. Full sizes are the paper's
// configuration; the smoke sizes keep every code path but finish in seconds.
type sizes struct {
	censusRecords int // fit_census_d14 extract size
	jsonRows      int // census rows per JSON ingest body
	bodies        int // distinct pre-built ingest bodies, cycled
	warmFits      int // untimed fits per analyst connection
	warmIngests   int // untimed JSON ingests per producer connection
	warmBatches   int // untimed fmbin batches on the refit workload's producer
	warmRefits    int // untimed refits
	setups        int // set-ups behind the setup_s median
}

func fullSizes() sizes {
	return sizes{
		censusRecords: 370000,
		jsonRows:      512,
		bodies:        64,
		warmFits:      3,
		warmIngests:   400,
		warmBatches:   32,
		warmRefits:    4,
		setups:        5,
	}
}

func smokeSizes() sizes {
	return sizes{
		censusRecords: 4096,
		jsonRows:      16,
		bodies:        4,
		warmFits:      1,
		warmIngests:   2,
		warmBatches:   2,
		warmRefits:    1,
		setups:        1,
	}
}

// workload is one traffic mix with its pre-built inputs. Everything the
// program receives is generated here from the seed before any timing starts.
type workload struct {
	name  string
	gated opKind // the op whose latency p50_ms reports

	schema    *dataset.Schema
	threshold *float64 // stream binarize_threshold (streams only)
	dataset   string   // registered dataset name (fit workloads)
	stream    string   // stream name (stream workloads)
	binary    bool     // ingest bodies are fmbin frames instead of JSON

	census *dataset.Dataset // fit_census_d14: the extract the frame carries
	frame  []byte           // fit_census_d14: dataset upload body

	flats  [][]float64 // raw rows (features then target) of each ingest body
	bodies [][]byte    // wire form of each ingest body
	fit    []byte      // release request body at releaseEpsilon
	check  []byte      // release request body at checkEpsilon

	sz    sizes
	grams []*gram // lazily computed per-body normal equations
}

var workloadNames = []string{"fit_census_d14", "ingest_json_d14", "refit_fmbin_d64"}

// newWorkload generates the named workload's inputs from seed.
func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	w := &workload{name: name, sz: sz}
	switch name {
	case "fit_census_d14":
		w.gated = opFit
		w.dataset = "census"
		w.census = census.GenerateN(census.US(), sz.censusRecords, seed)
		w.schema = w.census.Schema
		flat := make([]float64, 0, w.census.N()*(w.census.D()+1))
		for i := 0; i < w.census.N(); i++ {
			flat = append(flat, w.census.Row(i)...)
			flat = append(flat, w.census.Label(i))
		}
		frame, err := fmbin.Encode(nil, flat, w.census.D()+1, false)
		if err != nil {
			return nil, err
		}
		w.frame = frame
		w.fit = releaseBody(map[string]any{"dataset": w.dataset}, releaseEpsilon)
		w.check = releaseBody(map[string]any{"dataset": w.dataset}, checkEpsilon)
	case "ingest_json_d14":
		w.gated = opIngest
		w.stream = "census-json"
		w.schema = census.US().Schema()
		mid := midpoint(w.schema.Target)
		w.threshold = &mid
		// A separate seed stream keeps the bodies independent of the
		// extract another workload draws from the same seed.
		rows := census.GenerateN(census.US(), sz.bodies*sz.jsonRows, seed^0x5eed)
		for b := 0; b < sz.bodies; b++ {
			flat := make([]float64, 0, sz.jsonRows*(rows.D()+1))
			for i := b * sz.jsonRows; i < (b+1)*sz.jsonRows; i++ {
				flat = append(flat, rows.Row(i)...)
				flat = append(flat, rows.Label(i))
			}
			w.flats = append(w.flats, flat)
			w.bodies = append(w.bodies, jsonRows(flat, rows.D()+1))
		}
		w.check = releaseBody(nil, checkEpsilon)
	case "refit_fmbin_d64":
		w.gated = opRefit
		w.stream = "wide"
		w.binary = true
		w.schema = wideSchema(63)
		mid := midpoint(w.schema.Target)
		w.threshold = &mid
		rng := rand.New(rand.NewSource(seed))
		coef := make([]float64, 63)
		for j := range coef {
			coef[j] = rng.NormFloat64()
		}
		for b := 0; b < sz.bodies; b++ {
			flat := wideRows(rng, coef, binRows)
			frame, err := fmbin.Encode(nil, flat, 64, false)
			if err != nil {
				return nil, err
			}
			w.flats = append(w.flats, flat)
			w.bodies = append(w.bodies, frame)
		}
		w.fit = releaseBody(nil, releaseEpsilon)
		w.check = releaseBody(nil, checkEpsilon)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// d returns the number of features, the length of every released weight
// vector.
func (w *workload) d() int { return w.schema.D() }

// rowsIn returns the record count of ingest body b.
func (w *workload) rowsIn(b int) int { return len(w.flats[b]) / (w.d() + 1) }

func midpoint(a dataset.Attribute) float64 { return (a.Min + a.Max) / 2 }

// wideSchema is the d=64 stream's schema: features in [0,1], target in
// [-1,1].
func wideSchema(features int) *dataset.Schema {
	s := &dataset.Schema{Target: dataset.Attribute{Name: "y", Min: -1, Max: 1}}
	for j := 0; j < features; j++ {
		s.Features = append(s.Features, dataset.Attribute{Name: fmt.Sprintf("x%02d", j), Min: 0, Max: 1})
	}
	return s
}

// wideRows draws n records of a noisy linear model over uniform features.
func wideRows(rng *rand.Rand, coef []float64, n int) []float64 {
	d := len(coef)
	flat := make([]float64, 0, n*(d+1))
	scale := 1 / math.Sqrt(float64(d))
	for i := 0; i < n; i++ {
		var z float64
		for j := 0; j < d; j++ {
			x := rng.Float64()
			flat = append(flat, x)
			z += coef[j] * (x - 0.5)
		}
		y := math.Tanh(2*z*scale) + 0.2*rng.NormFloat64()
		flat = append(flat, math.Max(-1, math.Min(1, y)))
	}
	return flat
}

// jsonRows renders flat rows as the ingest endpoint's JSON body, with every
// value in shortest round-trip form so the server parses exactly the
// float64s the benchmark holds.
func jsonRows(flat []float64, width int) []byte {
	b := []byte(`{"rows":[`)
	for i := 0; i < len(flat); i += width {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := 0; j < width; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, flat[i+j], 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// releaseBody is a fit (with a dataset) or refit request: always the linear
// task, never an options.seed.
func releaseBody(extra map[string]any, epsilon float64) []byte {
	req := map[string]any{"tenant": tenantName, "model": core.TaskNameLinear, "epsilon": epsilon}
	for k, v := range extra {
		req[k] = v
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// schemaJSON is the wire form of a schema.
func schemaJSON(s *dataset.Schema) map[string]any {
	attr := func(a dataset.Attribute) map[string]any {
		return map[string]any{"name": a.Name, "min": a.Min, "max": a.Max}
	}
	feats := make([]map[string]any, len(s.Features))
	for i, a := range s.Features {
		feats[i] = attr(a)
	}
	return map[string]any{"features": feats, "target": attr(s.Target)}
}
