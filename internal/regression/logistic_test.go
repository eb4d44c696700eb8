package regression

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
)

func logSchema(d int) *dataset.Schema {
	s := &dataset.Schema{Target: dataset.Attribute{Name: "y", Min: 0, Max: 1}}
	for j := 0; j < d; j++ {
		s.Features = append(s.Features, dataset.Attribute{
			Name: "x" + string(rune('a'+j)), Min: -1, Max: 1,
		})
	}
	return s
}

func syntheticLogistic(rng *rand.Rand, n, d int, truth []float64) *dataset.Dataset {
	ds := dataset.NewWithCapacity(logSchema(d), n)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		y := 0.0
		if rng.Float64() < Sigmoid(linalg.Dot(x, truth)) {
			y = 1
		}
		ds.Append(x, y)
	}
	return ds
}

func TestFitLogisticRecoversDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := []float64{2, -1.5, 0.5}
	ds := syntheticLogistic(rng, 8000, 3, truth)
	m, err := FitLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	// MLE approaches the generating weights for large n.
	if !linalg.EqualApprox(m.Weights, truth, 0.25) {
		t.Fatalf("weights %v far from truth %v", m.Weights, truth)
	}
}

func TestFitLogisticBeatsChance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	truth := []float64{3, 3}
	ds := syntheticLogistic(rng, 2000, 2, truth)
	m, err := FitLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	if rate := m.MisclassificationRate(ds); rate > 0.3 {
		t.Fatalf("misclassification %v, want < 0.3", rate)
	}
}

func TestFitLogisticGradientNearZeroAtOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := syntheticLogistic(rng, 500, 2, []float64{1, -1})
	m, err := FitLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	g := LogisticGradient(ds, m.Weights)
	if linalg.NormInf(g) > 1e-4*float64(ds.N()) {
		t.Fatalf("gradient at optimum = %v", g)
	}
}

func TestFitLogisticSeparableData(t *testing.T) {
	// Perfectly separable data has no finite MLE; the solver must still
	// terminate with a separating direction.
	ds := dataset.New(logSchema(1))
	for i := 0; i < 20; i++ {
		v := float64(i)/10 - 1
		y := 0.0
		if v > 0 {
			y = 1
		}
		ds.Append([]float64{v}, y)
	}
	m, err := FitLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	if m.Weights[0] <= 0 {
		t.Fatalf("separating weight %v, want positive", m.Weights[0])
	}
	if rate := m.MisclassificationRate(ds); rate > 0.11 {
		t.Fatalf("separable misclassification = %v", rate)
	}
}

func TestFitLogisticEmptyDataset(t *testing.T) {
	if _, err := FitLogistic(dataset.New(logSchema(1))); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestLogisticLossAtZeroWeights(t *testing.T) {
	// At ω = 0 each record costs log 2 − y·0 = log 2.
	rng := rand.New(rand.NewSource(4))
	ds := syntheticLogistic(rng, 100, 2, []float64{1, 1})
	got := LogisticLoss(ds, []float64{0, 0})
	want := 100 * math.Ln2
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("loss at 0 = %v, want %v", got, want)
	}
}

// Property: the analytic gradient matches finite differences.
func TestLogisticGradientNumericProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		ds := syntheticLogistic(rng, 30, d, make([]float64, d))
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		g := LogisticGradient(ds, w)
		const h = 1e-6
		for j := 0; j < d; j++ {
			wp, wm := linalg.CloneVec(w), linalg.CloneVec(w)
			wp[j] += h
			wm[j] -= h
			num := (LogisticLoss(ds, wp) - LogisticLoss(ds, wm)) / (2 * h)
			if math.Abs(num-g[j]) > 1e-3*(1+math.Abs(num)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Newton fit never ends with higher loss than the zero model.
func TestFitLogisticImprovesOnZeroProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		truth := make([]float64, d)
		for j := range truth {
			truth[j] = rng.NormFloat64() * 2
		}
		ds := syntheticLogistic(rng, 100, d, truth)
		m, err := FitLogistic(ds)
		if err != nil {
			return false
		}
		return LogisticLoss(ds, m.Weights) <= LogisticLoss(ds, make([]float64, d))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMisclassificationKnown(t *testing.T) {
	m := &LogisticModel{Weights: []float64{10}}
	ds := dataset.New(logSchema(1))
	ds.Append([]float64{1}, 1)   // P≈1, predict 1, correct
	ds.Append([]float64{-1}, 1)  // P≈0, predict 0, wrong
	ds.Append([]float64{-1}, 0)  // correct
	ds.Append([]float64{0.5}, 0) // predict 1, wrong
	if got := m.MisclassificationRate(ds); got != 0.5 {
		t.Fatalf("rate = %v, want 0.5", got)
	}
}

func TestSigmoidStability(t *testing.T) {
	if got := Sigmoid(1000); got != 1 {
		t.Errorf("Sigmoid(1000) = %v", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Errorf("Sigmoid(-1000) = %v", got)
	}
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
}

func TestLog1pExpStability(t *testing.T) {
	if got := Log1pExp(1000); got != 1000 {
		t.Errorf("Log1pExp(1000) = %v", got)
	}
	if got := Log1pExp(-1000); got != 0 {
		t.Errorf("Log1pExp(-1000) = %v", got)
	}
	if got := Log1pExp(0); math.Abs(got-math.Ln2) > 1e-15 {
		t.Errorf("Log1pExp(0) = %v, want ln2", got)
	}
	// Accuracy at the guard boundary: log1p(eᶻ) = z + log1p(e⁻ᶻ).
	for _, z := range []float64{34.999, 35.001} {
		want := z + math.Log1p(math.Exp(-z))
		if math.Abs(Log1pExp(z)-want) > 1e-9 {
			t.Errorf("Log1pExp(%v) = %v, want %v", z, Log1pExp(z), want)
		}
	}
}

func TestProbabilityMonotone(t *testing.T) {
	m := &LogisticModel{Weights: []float64{2}}
	prev := -1.0
	for _, x := range []float64{-1, -0.5, 0, 0.5, 1} {
		p := m.Probability([]float64{x})
		if p <= prev {
			t.Fatalf("probability not monotone at %v", x)
		}
		prev = p
	}
}
