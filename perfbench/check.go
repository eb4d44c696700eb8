package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"funcmech/internal/dataset"
)

// verdict is the outcome of one output check.
type verdict struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// checkTolerance bounds the relative L2 distance between the ε=1e9 release
// and the benchmark's own least-squares solution. At that ε the Laplace
// scale is below 1e-5 even at d=64, so the release differs from the exact
// minimiser only by that noise and the λ=4·√2·Δ/ε ridge, against normal
// equations whose diagonal grows with the record count: at the workloads'
// sizes the distance is 1e-8 or less, while a wrong fold or solve is
// off by far more than the bound.
const checkTolerance = 1e-5

// gram holds the normal equations Σx̃x̃ᵀ and Σx̃ỹ of the linear objective
// over normalised records, computed by the benchmark itself from the raw
// records it sent.
type gram struct {
	d  int
	xx []float64 // d×d, row-major
	xy []float64
}

func newGram(d int) *gram { return &gram{d: d, xx: make([]float64, d*d), xy: make([]float64, d)} }

// add folds raw rows (features then target) after normalising them the way
// the paper's Definition 1 prescribes: each feature clamped to its public
// bounds and scaled into [0, 1/√d], the target clamped and mapped onto
// [−1, 1].
func (g *gram) add(s *dataset.Schema, flat []float64) {
	d := g.d
	sqrtD := math.Sqrt(float64(d))
	x := make([]float64, d)
	for i := 0; i+d < len(flat); i += d + 1 {
		for j, a := range s.Features {
			v := math.Min(math.Max(flat[i+j], a.Min), a.Max)
			x[j] = (v - a.Min) / ((a.Max - a.Min) * sqrtD)
		}
		t := s.Target
		y := 2*(math.Min(math.Max(flat[i+d], t.Min), t.Max)-t.Min)/(t.Max-t.Min) - 1
		for j := 0; j < d; j++ {
			g.xy[j] += x[j] * y
			row := g.xx[j*d : (j+1)*d]
			for k := j; k < d; k++ {
				row[k] += x[j] * x[k]
			}
		}
	}
}

// addScaled adds c·o.
func (g *gram) addScaled(o *gram, c float64) {
	for i := range g.xx {
		g.xx[i] += c * o.xx[i]
	}
	for i := range g.xy {
		g.xy[i] += c * o.xy[i]
	}
}

// solve returns argmin Σ(ỹ − x̃ᵀω)², the solution of Σx̃x̃ᵀ ω = Σx̃ỹ, by
// Cholesky factorisation of the upper triangle.
func (g *gram) solve() ([]float64, error) {
	d := g.d
	l := make([]float64, d*d)
	for j := 0; j < d; j++ {
		for i := j; i < d; i++ {
			sum := g.xx[j*d+i] // upper triangle holds (j,i) for i ≥ j
			for k := 0; k < j; k++ {
				sum -= l[i*d+k] * l[j*d+k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("normal equations are not positive definite at column %d", j)
				}
				l[j*d+j] = math.Sqrt(sum)
			} else {
				l[i*d+j] = sum / l[j*d+j]
			}
		}
	}
	z := make([]float64, d)
	for i := 0; i < d; i++ {
		sum := g.xy[i]
		for k := 0; k < i; k++ {
			sum -= l[i*d+k] * z[k]
		}
		z[i] = sum / l[i*d+i]
	}
	w := make([]float64, d)
	for i := d - 1; i >= 0; i-- {
		sum := z[i]
		for k := i + 1; k < d; k++ {
			sum -= l[k*d+i] * w[k]
		}
		w[i] = sum / l[i*d+i]
	}
	return w, nil
}

// expected is the least-squares solution over exactly the records the
// ledger says the server acknowledged.
func (w *workload) expected(led *ledger) ([]float64, error) {
	total := newGram(w.d())
	if w.census != nil {
		flat := make([]float64, 0, w.d()+1)
		for i := 0; i < w.census.N(); i++ {
			flat = append(append(flat[:0], w.census.Row(i)...), w.census.Label(i))
			total.add(w.schema, flat)
		}
		return total.solve()
	}
	if w.grams == nil {
		for _, flat := range w.flats {
			g := newGram(w.d())
			g.add(w.schema, flat)
			w.grams = append(w.grams, g)
		}
	}
	for b, n := range led.sent {
		total.addScaled(w.grams[b], float64(n))
	}
	return total.solve()
}

// relDiff is ‖got − want‖₂ / ‖want‖₂.
func relDiff(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var num, den float64
	for i := range want {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

// compareRelease is the release-correctness verdict.
func compareRelease(got, want []float64) verdict {
	diff := relDiff(got, want)
	return verdict{
		Name:   "release_matches_least_squares",
		OK:     diff <= checkTolerance,
		Detail: fmt.Sprintf("relative L2 distance %.3g at ε=%g (tolerance %g, d'=%d)", diff, float64(checkEpsilon), checkTolerance, len(want)),
	}
}

// checkPhase runs the untimed output checks against the server behind cl
// and returns every verdict. scrapes holds the /metrics samples taken at
// the end of the setup and timed phases; the final one is taken here.
func checkPhase(w *workload, cl *client, scrapes [][]promSample) []verdict {
	led := cl.led
	var out []verdict
	spent := func() float64 {
		resp, ok := cl.call(phaseCheck, epGetTenant, http.MethodGet, "/v1/tenants/"+tenantName, "", nil)
		var t struct {
			EpsilonSpent float64 `json:"epsilon_spent"`
		}
		if !ok || json.Unmarshal(resp, &t) != nil {
			return math.NaN()
		}
		return t.EpsilonSpent
	}
	epsVerdict := func(name string) verdict {
		got := spent()
		want := led.epsilon
		return verdict{
			Name:   name,
			OK:     math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)),
			Detail: fmt.Sprintf("tenant epsilon_spent %v, sum over %d releases %v", got, led.releases, want),
		}
	}
	out = append(out, epsVerdict("epsilon_spent_matches_releases"))

	if w.stream != "" {
		resp, ok := cl.call(phaseCheck, epListStreams, http.MethodGet, "/v1/streams", "", nil)
		var list struct {
			Streams []struct {
				Name    string `json:"name"`
				Records uint64 `json:"records"`
			} `json:"streams"`
		}
		var records uint64
		if ok && json.Unmarshal(resp, &list) == nil {
			for _, s := range list.Streams {
				if s.Name == w.stream {
					records = s.Records
				}
			}
		}
		var acked int64
		for _, n := range led.accepted {
			acked += n
		}
		out = append(out, verdict{
			Name:   "ingest_accepted_sums_to_stream_records",
			OK:     int64(records) == acked,
			Detail: fmt.Sprintf("stream %q holds %d records, acknowledged %d", w.stream, records, acked),
		})
	}

	want, err := w.expected(led)
	got, ok := cl.release(phaseCheck, w.check, checkEpsilon)
	switch {
	case err != nil:
		out = append(out, verdict{Name: "release_matches_least_squares", Detail: err.Error()})
	case !ok:
		out = append(out, verdict{Name: "release_matches_least_squares", Detail: "check release failed"})
	default:
		out = append(out, compareRelease(got, want))
	}
	out = append(out, epsVerdict("epsilon_spent_after_check_release"))

	final, err := scrape(cl.c)
	if err != nil {
		out = append(out, verdict{Name: "metrics_match_ledger", Detail: err.Error()})
	} else {
		out = append(out, crossCheck(led, append(scrapes, final)))
	}

	attempted, failed := led.totals()
	detail := fmt.Sprintf("%d of %d requests failed", failed, attempted)
	if len(led.problems) > 0 {
		detail += "; first problem: " + led.problems[0]
	}
	out = append(out, verdict{Name: "all_responses_2xx_and_valid", OK: failed == 0 && len(led.problems) == 0, Detail: detail})
	return out
}

// crossCheck compares, phase by phase, the ledger with the server's own
// counters: fm_http_responses_total per endpoint and code,
// fm_refusals_total, fm_wal_appends_total and fm_ingest_records_total.
// scrapes are the samples at the end of setup, timed and check phases.
func crossCheck(led *ledger, scrapes [][]promSample) verdict {
	led.mu.Lock()
	defer led.mu.Unlock()
	var bad []string
	prev := []promSample(nil)
	for i, p := range phases {
		cur := scrapes[i]
		delta := func(name string, match map[string]string) float64 {
			return counterSum(cur, name, match) - counterSum(prev, name, match)
		}
		var refused int
		for _, ep := range sortedKeys(led.tallies[p]) {
			t := led.tallies[p][ep]
			answered := t.Attempted - t.ByCode["transport"]
			if got := delta("fm_http_responses_total", map[string]string{"endpoint": ep}); got != float64(answered) {
				bad = append(bad, fmt.Sprintf("%s %s: server counted %v responses, got %d", p, ep, got, answered))
			}
			for _, key := range sortedKeys(t.ByCode) {
				code, typed, _ := strings.Cut(key, ":")
				if typed != "" {
					refused += t.ByCode[key]
				}
				if code == "transport" {
					continue
				}
				if got := delta("fm_http_responses_total", map[string]string{"endpoint": ep, "code": code}); got != float64(t.ByCode[key]) {
					bad = append(bad, fmt.Sprintf("%s %s code %s: server counted %v, sent %d", p, ep, code, got, t.ByCode[key]))
				}
			}
		}
		if got := delta("fm_refusals_total", nil); got != float64(refused) {
			bad = append(bad, fmt.Sprintf("%s refusals: server counted %v, saw %d", p, got, refused))
		}
		if got := delta("fm_wal_appends_total", nil); got != float64(led.appends[p]) {
			bad = append(bad, fmt.Sprintf("%s wal appends: server counted %v, expected %d", p, got, led.appends[p]))
		}
		if got := delta("fm_ingest_records_total", nil); got != float64(led.accepted[p]) {
			bad = append(bad, fmt.Sprintf("%s ingest records: server counted %v, acknowledged %d", p, got, led.accepted[p]))
		}
		prev = cur
	}
	v := verdict{Name: "metrics_match_ledger", OK: len(bad) == 0, Detail: "per-phase /metrics deltas equal the ledger"}
	if len(bad) > 0 {
		v.Detail = strings.Join(bad, "; ")
	}
	return v
}

func jsonString(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}
