package experiments

import (
	"bytes"
	"strings"
	"testing"

	"funcmech/internal/baseline"
	"funcmech/internal/census"
)

func TestRunBudgetSweepShape(t *testing.T) {
	cfg := quickConfig()
	cfg.Records = 4000
	cfg.Dimensionality = 5
	sw, err := RunBudgetSweep(cfg, census.US(), linearRow)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != len(EpsilonSweep()) {
		t.Fatalf("%d points, want %d", len(sw.Points), len(EpsilonSweep()))
	}

	// Figure 6 shape #1: the non-private baseline is exactly constant in ε.
	first, ok := sw.Points[0].FindResult("NoPrivacy")
	if !ok {
		t.Fatal("NoPrivacy missing")
	}
	for _, pt := range sw.Points[1:] {
		r, _ := pt.FindResult("NoPrivacy")
		if r.Metric != first.Metric {
			t.Fatalf("NoPrivacy varies with ε: %v vs %v", r.Metric, first.Metric)
		}
	}

	// Figure 6 shape #2: FM error at the harshest budget exceeds FM error at
	// the most generous one.
	fmLow, _ := sw.Points[0].FindResult("FM")                 // ε = 0.1
	fmHigh, _ := sw.Points[len(sw.Points)-1].FindResult("FM") // ε = 3.2
	if fmLow.Metric <= fmHigh.Metric {
		t.Fatalf("FM error not decreasing in ε: %v (ε=0.1) vs %v (ε=3.2)", fmLow.Metric, fmHigh.Metric)
	}
}

func TestRunDimensionalitySweepShape(t *testing.T) {
	cfg := quickConfig()
	cfg.Records = 2500
	sw, err := RunDimensionalitySweep(cfg, census.Brazil(), linearRow)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 4 {
		t.Fatalf("%d points, want 4", len(sw.Points))
	}
	want := []float64{5, 8, 11, 14}
	for i, pt := range sw.Points {
		if pt.X != want[i] {
			t.Fatalf("point %d at x=%v, want %v", i, pt.X, want[i])
		}
	}
}

func TestRunCardinalitySweepShape(t *testing.T) {
	cfg := quickConfig()
	cfg.Records = 3000
	cfg.Dimensionality = 5
	sw, err := RunCardinalitySweep(cfg, census.US(), linearRow)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != len(SamplingRates()) {
		t.Fatalf("%d points, want %d", len(sw.Points), len(SamplingRates()))
	}
}

func TestRunTimingSweepFMFasterThanNoPrivacy(t *testing.T) {
	// Figures 7–9: FM's fit time is far below NoPrivacy's on logistic
	// regression, because FM solves one quadratic while NoPrivacy iterates
	// Newton over the full data.
	cfg := quickConfig()
	cfg.Records = 8000
	cfg.Dimensionality = 14
	sw, err := RunTimingByBudget(cfg, census.US())
	if err != nil {
		t.Fatal(err)
	}
	if sw.ID != "F9" {
		t.Fatalf("ID = %s, want F9", sw.ID)
	}
	slower := 0
	for _, pt := range sw.Points {
		fm, _ := pt.FindResult("FM")
		np, _ := pt.FindResult("NoPrivacy")
		if fm.FitSeconds < np.FitSeconds {
			slower++
		}
	}
	if slower < len(sw.Points)-1 { // allow one timing hiccup
		t.Fatalf("FM faster than NoPrivacy at only %d/%d points", slower, len(sw.Points))
	}
}

func TestWriteSweepTable(t *testing.T) {
	cfg := quickConfig()
	cfg.Records = 2000
	cfg.Dimensionality = 5
	sw, err := RunBudgetSweep(cfg, census.US(), linearRow)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSweepTable(&buf, sw, ValueMetric); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"F6", "US-Linear", "privacy budget", "FM", "NoPrivacy", "0.1", "3.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSweepCSV(t *testing.T) {
	cfg := quickConfig()
	cfg.Records = 2000
	cfg.Dimensionality = 5
	sw, err := RunDimensionalitySweep(cfg, census.US(), linearRow)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, sw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 4 dims × 2 methods
	if len(lines) != 1+4*2 {
		t.Fatalf("%d CSV lines, want 9:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "experiment,panel,x,method") {
		t.Fatalf("bad header %q", lines[0])
	}
}

func TestWriteSweepTableEmptyFails(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSweepTable(&buf, &Sweep{ID: "X"}, ValueMetric); err == nil {
		t.Fatal("expected error for empty sweep")
	}
}

func TestFindResult(t *testing.T) {
	pt := SweepPoint{Results: []MethodResult{{Method: "FM", Metric: 1}}}
	if _, ok := pt.FindResult("FM"); !ok {
		t.Error("FindResult failed to find FM")
	}
	if _, ok := pt.FindResult("nope"); ok {
		t.Error("FindResult found a ghost")
	}
}

// Figure 5 shape: FM's error improves (or holds) as cardinality grows.
func TestCardinalityShapeFMImproves(t *testing.T) {
	cfg := quickConfig()
	cfg.Records = 12000
	cfg.Dimensionality = 5
	cfg.Methods = []baseline.Method{baseline.FM{}}
	cfg.Repeats = 2
	sw, err := RunCardinalitySweep(cfg, census.US(), linearRow)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := sw.Points[0].FindResult("FM")                // rate 0.1
	hi, _ := sw.Points[len(sw.Points)-1].FindResult("FM") // rate 1.0
	if hi.Metric > lo.Metric {
		t.Fatalf("FM error grew with cardinality: %v (10%%) → %v (100%%)", lo.Metric, hi.Metric)
	}
}
