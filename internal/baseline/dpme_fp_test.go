package baseline

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
	"funcmech/internal/noise"
	"funcmech/internal/regression"
)

func TestDPMEProducesFiniteWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := sphereData(rng, 2000, 2, []float64{0.7, -0.4}, false)
	w, err := DPME{}.Fit(linearRow, ds, 1.6, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.AllFinite(w) || len(w) != 2 {
		t.Fatalf("weights %v", w)
	}
}

func TestDPMELogisticProducesFiniteWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := sphereData(rng, 2000, 2, []float64{3, -1}, true)
	w, err := DPME{}.Fit(logisticRow, ds, 1.6, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.AllFinite(w) {
		t.Fatalf("weights %v", w)
	}
}

func TestDPMERejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := sphereData(rng, 100, 2, []float64{1, 1}, false)
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := (DPME{}).Fit(linearRow, ds, eps, rng); !errors.Is(err, noise.ErrInvalidSpend) {
			t.Errorf("ε = %v: err = %v, want ErrInvalidSpend", eps, err)
		}
	}
}

// DPME at low dimensionality and generous budget retains usable signal —
// its error must beat the zero model, consistent with the paper's d=5 plots
// where DPME is competitive.
func TestDPMELowDimensionRetainsSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	truth := []float64{0.9, -0.7}
	train := sphereData(rng, 30000, 2, truth, false)
	test := sphereData(rng, 5000, 2, truth, false)

	var mse float64
	const reps = 5
	for seed := int64(0); seed < reps; seed++ {
		w, err := DPME{}.Fit(linearRow, train, 3.2, rand.New(rand.NewSource(10+seed)))
		if err != nil {
			t.Fatal(err)
		}
		mse += (&regression.LinearModel{Weights: w}).MSE(test)
	}
	mse /= reps
	zero := (&regression.LinearModel{Weights: []float64{0, 0}}).MSE(test)
	if mse >= zero {
		t.Fatalf("DPME MSE %v no better than zero model %v at d=2, ε=3.2", mse, zero)
	}
}

// sphereDataCurved adds curvature (y = z + 1.5z² + noise) so the
// conditional mean is not linear within histogram cells — the regime real
// census data lives in, where cell-center quantization biases DPME/FP.
func sphereDataCurved(rng *rand.Rand, n, d int, truth []float64) *dataset.Dataset {
	ds := dataset.NewWithCapacity(unitSchema(d, false), n)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64() / math.Sqrt(float64(d))
		}
		z := linalg.Dot(x, truth)
		y := z + 1.5*z*z + 0.05*rng.NormFloat64()
		if y > 1 {
			y = 1
		}
		if y < -1 {
			y = -1
		}
		ds.Append(x, y)
	}
	return ds
}

// The paper's central comparison: at the default budget and full
// dimensionality, FM beats DPME and FP on held-out error.
func TestFMBeatsHistogramBaselinesHighDim(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 10
	truth := make([]float64, d)
	for j := range truth {
		truth[j] = rng.NormFloat64()
	}
	train := sphereDataCurved(rng, 20000, d, truth)
	test := sphereDataCurved(rng, 4000, d, truth)

	avgMSE := func(m Method) float64 {
		var s float64
		const reps = 5
		for seed := int64(0); seed < reps; seed++ {
			w, err := m.Fit(linearRow, train, 0.8, rand.New(rand.NewSource(300+seed)))
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			s += (&regression.LinearModel{Weights: w}).MSE(test)
		}
		return s / reps
	}
	fm := avgMSE(FM{})
	dpme := avgMSE(DPME{})
	fp := avgMSE(FP{})
	if fm >= dpme {
		t.Errorf("FM MSE %v not better than DPME %v at d=%d", fm, dpme, d)
	}
	if fm >= fp {
		t.Errorf("FM MSE %v not better than FP %v at d=%d", fm, fp, d)
	}
}

func TestFPProducesFiniteWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := sphereData(rng, 2000, 3, []float64{0.5, 0.5, -0.5}, false)
	w, err := FP{}.Fit(linearRow, ds, 1.6, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.AllFinite(w) || len(w) != 3 {
		t.Fatalf("weights %v", w)
	}
	wl, err := FP{}.Fit(logisticRow, sphereData(rng, 2000, 3, []float64{2, -2, 1}, true), 1.6, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.AllFinite(wl) {
		t.Fatalf("logistic weights %v", wl)
	}
}

func TestFPRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := sphereData(rng, 100, 2, []float64{1, 1}, false)
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := (FP{}).Fit(linearRow, ds, eps, rng); !errors.Is(err, noise.ErrInvalidSpend) {
			t.Errorf("ε = %v: err = %v, want ErrInvalidSpend", eps, err)
		}
	}
}

func TestBernoulliPassesStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, p, trials = 10000, 0.01, 200
	var total int
	for i := 0; i < trials; i++ {
		total += len(bernoulliPasses(rng, n, p))
	}
	mean := float64(total) / trials
	if want := float64(n) * p; math.Abs(mean-want)/want > 0.1 {
		t.Fatalf("mean passes %v, want ≈ %v", mean, want)
	}
}

// Property: bernoulliPasses emits sorted, unique, in-range indices.
func TestBernoulliPassesWellFormedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5000)
		p := rng.Float64() * 0.2
		idx := bernoulliPasses(rng, n, p)
		if !sort.IntsAreSorted(idx) {
			return false
		}
		for i, v := range idx {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && idx[i-1] == v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliPassesEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	if got := bernoulliPasses(rng, 0, 0.5); got != nil {
		t.Errorf("n=0 → %v", got)
	}
	if got := bernoulliPasses(rng, 10, 0); got != nil {
		t.Errorf("p=0 → %v", got)
	}
	if got := bernoulliPasses(rng, 5, 1); len(got) != 5 {
		t.Errorf("p=1 → %v, want all 5", got)
	}
}

// FP publishes far fewer cells than the dense histogram at harsh budgets —
// the sparsity property that motivates the mechanism.
func TestFPSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ds := sphereData(rng, 500, 4, []float64{1, 1, 1, 1}, false)
	syn, err := FP{}.synthesize(ds, 0.4, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic mass should be on the order of the real mass, not the
	// (cells × noise) mass a dense histogram would produce.
	if syn.N() > 4*ds.N() {
		t.Fatalf("FP synthetic size %d vs source %d: filter not sparsifying", syn.N(), ds.N())
	}
}
