package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"funcmech/internal/census"
	"funcmech/internal/core"
)

// testdata/golden.json pins every number the harness computes on a small
// grid: the bits of EvaluateMethods' Metric and StdDev and its Failures for
// each method, and the full text of fig2, fig3 and taylor. FitSeconds is
// wall-clock time and is not pinned. The file was written once, before the
// harness moved from its own task enum to task-table rows, and is not to be
// regenerated by a refactor that claims to keep the numbers.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenHarness is the committed record of the harness's output.
type goldenHarness struct {
	Points []goldenPoint     `json:"points"`
	Text   map[string]string `json:"text"`
}

// goldenPoint is one EvaluateMethods call of the grid.
type goldenPoint struct {
	Profile string         `json:"profile"`
	Task    string         `json:"task"`
	D       int            `json:"d"`
	Epsilon float64        `json:"epsilon"`
	Results []goldenResult `json:"results"`
}

// goldenResult holds a MethodResult's pinned fields; the floats are
// strconv's shortest round-trip form, so equal strings mean equal bits.
type goldenResult struct {
	Method   string `json:"method"`
	Metric   string `json:"metric"`
	StdDev   string `json:"stddev"`
	Failures int    `json:"failures"`
}

func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Records = 3000
	cfg.Repeats = 1
	cfg.Parallelism = 1
	cfg.BaseSeed = 1
	return cfg
}

func exactFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// harnessGolden runs the pinned grid: US and Brazil × linear and logistic ×
// d ∈ {5, 14} × ε ∈ {0.1, 0.8}, every default method, plus the text of the
// three experiments that print numbers without a sweep.
func harnessGolden(t *testing.T) goldenHarness {
	t.Helper()
	cfg := goldenConfig()
	var g goldenHarness
	for _, p := range census.Profiles() {
		for _, name := range []string{core.TaskNameLinear, core.TaskNameLogistic} {
			task, err := TaskByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []int{5, 14} {
				ds, err := PrepareTask(cfg, p, task, d)
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range []float64{0.1, 0.8} {
					label := fmt.Sprintf("golden/%s/%s/d=%d/eps=%g", p.Name, name, d, eps)
					res, err := EvaluateMethods(cfg, ds, task, eps, label)
					if err != nil {
						t.Fatal(err)
					}
					pt := goldenPoint{Profile: p.Name, Task: name, D: d, Epsilon: eps}
					for _, r := range res {
						pt.Results = append(pt.Results, goldenResult{
							Method: r.Method, Metric: exactFloat(r.Metric),
							StdDev: exactFloat(r.StdDev), Failures: r.Failures,
						})
					}
					g.Points = append(g.Points, pt)
				}
			}
		}
	}
	g.Text = map[string]string{}
	for _, id := range []string{"fig2", "fig3", "taylor"} {
		var buf bytes.Buffer
		if err := RunExperiment(id, cfg, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		g.Text[id] = buf.String()
	}
	return g
}

// TestHarnessGolden: the harness's metrics, standard deviations, failure
// counts and fixed-text experiments are bit-identical to the committed file.
func TestHarnessGolden(t *testing.T) {
	got := harnessGolden(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("harness golden missing (run with -update-golden to create): %v", err)
	}
	var want goldenHarness
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%d grid points, golden has %d", len(got.Points), len(want.Points))
	}
	for i, pt := range got.Points {
		w := want.Points[i]
		key := fmt.Sprintf("%s/%s/d=%d/ε=%g", pt.Profile, pt.Task, pt.D, pt.Epsilon)
		if pt.Profile != w.Profile || pt.Task != w.Task || pt.D != w.D || pt.Epsilon != w.Epsilon {
			t.Fatalf("point %d is %s, golden has %s/%s/d=%d/ε=%g", i, key, w.Profile, w.Task, w.D, w.Epsilon)
		}
		if len(pt.Results) != len(w.Results) {
			t.Errorf("%s: %d methods, golden has %d", key, len(pt.Results), len(w.Results))
			continue
		}
		for j, r := range pt.Results {
			if r != w.Results[j] {
				t.Errorf("%s: %+v, golden has %+v", key, r, w.Results[j])
			}
		}
	}
	for id, text := range want.Text {
		if got.Text[id] != text {
			t.Errorf("%s printed\n%s\ngolden has\n%s", id, got.Text[id], text)
		}
	}
	if len(got.Text) != len(want.Text) {
		t.Errorf("%d pinned texts, golden has %d", len(got.Text), len(want.Text))
	}
}
