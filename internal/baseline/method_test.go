package baseline

import (
	"math"
	"math/rand"
	"testing"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
	"funcmech/internal/regression"
)

// The task-table rows of the paper's two case studies.
var (
	linearRow, _   = core.LookupTask(core.TaskNameLinear)
	logisticRow, _ = core.LookupTask(core.TaskNameLogistic)
)

func unitSchema(d int, logistic bool) *dataset.Schema {
	s := &dataset.Schema{Target: dataset.Attribute{Name: "y", Min: -1, Max: 1}}
	if logistic {
		s.Target = dataset.Attribute{Name: "y", Min: 0, Max: 1}
	}
	for j := 0; j < d; j++ {
		s.Features = append(s.Features, dataset.Attribute{
			Name: "x" + string(rune('a'+j)), Min: 0, Max: 1 / math.Sqrt(float64(d)),
		})
	}
	return s
}

// sphereData generates normalized data with a linear or logistic signal.
func sphereData(rng *rand.Rand, n, d int, truth []float64, logistic bool) *dataset.Dataset {
	ds := dataset.NewWithCapacity(unitSchema(d, logistic), n)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64() / math.Sqrt(float64(d))
		}
		z := linalg.Dot(x, truth)
		if logistic {
			y := 0.0
			if rng.Float64() < regression.Sigmoid(4*z-1) {
				y = 1
			}
			ds.Append(x, y)
		} else {
			y := z + 0.05*rng.NormFloat64()
			if y > 1 {
				y = 1
			}
			if y < -1 {
				y = -1
			}
			ds.Append(x, y)
		}
	}
	return ds
}

func TestMethodMetadata(t *testing.T) {
	cases := []struct {
		m       Method
		name    string
		private bool
	}{
		{NoPrivacy{}, "NoPrivacy", false},
		{Truncated{}, "Truncated", false},
		{FM{}, "FM", true},
		{DPME{}, "DPME", true},
		{FP{}, "FP", true},
	}
	for _, c := range cases {
		if c.m.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.m.Name(), c.name)
		}
		if c.m.Private() != c.private {
			t.Errorf("%s Private = %v, want %v", c.name, c.m.Private(), c.private)
		}
	}
}

func TestNoPrivacyLinearGolden(t *testing.T) {
	// Figure 2 example: ω* = 117/206.
	ds := dataset.New(&dataset.Schema{
		Features: []dataset.Attribute{{Name: "x", Min: -1, Max: 1}},
		Target:   dataset.Attribute{Name: "y", Min: -1, Max: 1},
	})
	ds.Append([]float64{1}, 0.4)
	ds.Append([]float64{0.9}, 0.3)
	ds.Append([]float64{-0.5}, -1)
	w, err := NoPrivacy{}.Fit(linearRow, ds, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 117.0 / 206.0; math.Abs(w[0]-want) > 1e-12 {
		t.Fatalf("ω = %v, want %v", w[0], want)
	}
}

// §7's observation: Truncated ≈ NoPrivacy for logistic regression — the
// Taylor truncation costs almost nothing in classification accuracy.
func TestTruncatedCloseToNoPrivacyLogistic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 3
	truth := []float64{3, -2, 1}
	train := sphereData(rng, 4000, d, truth, true)
	test := sphereData(rng, 2000, d, truth, true)

	wNP, err := NoPrivacy{}.Fit(logisticRow, train, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wTr, err := Truncated{}.Fit(logisticRow, train, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rNP := (&regression.LogisticModel{Weights: wNP}).MisclassificationRate(test)
	rTr := (&regression.LogisticModel{Weights: wTr}).MisclassificationRate(test)
	if rTr > rNP+0.05 {
		t.Fatalf("Truncated rate %v vs NoPrivacy %v: truncation cost too high", rTr, rNP)
	}
}

func TestTruncatedLinearEqualsNoPrivacy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := sphereData(rng, 500, 2, []float64{0.5, -0.5}, false)
	a, err := Truncated{}.Fit(linearRow, ds, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NoPrivacy{}.Fit(linearRow, ds, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(a, b, 1e-12) {
		t.Fatalf("Truncated linear %v != NoPrivacy %v", a, b)
	}
}

func TestFMWrapperProducesFiniteWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := sphereData(rng, 800, 3, []float64{1, 0.5, -0.5}, false)
	w, err := FM{}.Fit(linearRow, ds, 0.8, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.AllFinite(w) || len(w) != 3 {
		t.Fatalf("weights %v", w)
	}
	wl, err := FM{}.Fit(logisticRow, sphereData(rng, 800, 3, []float64{2, 1, -1}, true), 0.8, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.AllFinite(wl) {
		t.Fatalf("logistic weights %v", wl)
	}
}

// At a generous ε, FM must track NoPrivacy closely on linear regression —
// the headline claim of Figures 4–6.
func TestFMTracksNoPrivacyAtLargeEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 3
	truth := []float64{0.8, -0.6, 0.4}
	train := sphereData(rng, 20000, d, truth, false)
	test := sphereData(rng, 5000, d, truth, false)

	wNP, err := NoPrivacy{}.Fit(linearRow, train, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mseNP := (&regression.LinearModel{Weights: wNP}).MSE(test)

	var mseFM float64
	const reps = 10
	for seed := int64(0); seed < reps; seed++ {
		w, err := FM{}.Fit(linearRow, train, 3.2, rand.New(rand.NewSource(100+seed)))
		if err != nil {
			t.Fatal(err)
		}
		mseFM += (&regression.LinearModel{Weights: w}).MSE(test)
	}
	mseFM /= reps
	if mseFM > 3*mseNP+0.01 {
		t.Fatalf("FM MSE %v vs NoPrivacy %v at ε=3.2: gap too large", mseFM, mseNP)
	}
}

func TestFitOnSyntheticEmptyGivesZeroModel(t *testing.T) {
	syn := dataset.New(unitSchema(2, false))
	w := fitOnSynthetic(linearRow, syn, 2)
	if !linalg.EqualApprox(w, []float64{0, 0}, 0) {
		t.Fatalf("w = %v, want zeros", w)
	}
}
