package core

import (
	"errors"
	"math"
	"testing"

	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
	"funcmech/internal/noise"
	"funcmech/internal/poly"
	"funcmech/internal/regression"
)

func TestRunLinearHugeEpsilonRecoversExactSolution(t *testing.T) {
	// With ε → ∞ the noise vanishes and FM must coincide with the exact
	// least-squares solution — the Figure 2 golden value 117/206.
	res, err := Run(LinearTask{}, figure2Dataset(), 1e12, noise.NewRand(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Regularization λ = 4√2·Δ/ε is ~1e-11 here; allow its tiny bias.
	if want := 117.0 / 206.0; math.Abs(res.Weights[0]-want) > 1e-6 {
		t.Fatalf("ω = %v, want %v", res.Weights[0], want)
	}
	if res.EpsilonSpent != 1e12 {
		t.Errorf("EpsilonSpent = %v", res.EpsilonSpent)
	}
	if res.Delta != 8 {
		t.Errorf("Delta = %v, want 8 (= 2(d+1)² at d=1)", res.Delta)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	ds := figure2Dataset()
	// An ε that is not finite and positive is refused before the fold and
	// before any noise is drawn: +Inf would calibrate a zero scale, NaN none.
	// So is a positive ε whose scale Δ/ε overflows: 8/1e-320 is +Inf.
	exact := ParallelObjective(LinearTask{}, ds, 1)
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-320} {
		probe := tierRecorder{}
		_, runErr := Run(LinearTask{}, ds, eps, noise.NewRand(1), Options{Probe: probe})
		_, quadErr := RunFromQuadratic(LinearTask{}, exact, eps, noise.NewRand(1), Options{Probe: probe})
		for name, err := range map[string]error{"Run": runErr, "RunFromQuadratic": quadErr} {
			if !errors.Is(err, noise.ErrInvalidSpend) {
				t.Errorf("%s at ε = %v: err = %v, want ErrInvalidSpend", name, eps, err)
			}
		}
		if len(probe) != 0 {
			t.Errorf("ε = %v: phases %v ran before the refusal", eps, probe)
		}
	}
	for _, f := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Run(LinearTask{}, ds, 1, noise.NewRand(1), Options{LambdaFactor: f}); err == nil {
			t.Errorf("LambdaFactor %v: expected an error", f)
		}
	}
	if _, err := Run(LinearTask{}, ds, 1, noise.NewRand(1), Options{PostProcess: PostProcess(99)}); err == nil {
		t.Error("expected error for unknown post-process mode")
	}
	if _, err := Run(LinearTask{}, dataset.New(unitSchema(1)), 1, noise.NewRand(1), Options{}); err == nil {
		t.Error("expected error for empty dataset")
	}
}

func TestRunRecordsLambdaRule(t *testing.T) {
	// §6.1: λ = 4 × sd(Lap(Δ/ε)) = 4√2·Δ/ε.
	eps := 0.8
	res, err := Run(LinearTask{}, figure2Dataset(), eps, noise.NewRand(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * math.Sqrt2 * 8 / eps
	if math.Abs(res.Lambda-want) > 1e-9 {
		t.Fatalf("λ = %v, want %v", res.Lambda, want)
	}
	if res.NoiseScale != 8/eps {
		t.Fatalf("NoiseScale = %v, want %v", res.NoiseScale, 8/eps)
	}
}

func TestRunLambdaFactorOverride(t *testing.T) {
	res, err := Run(LinearTask{}, figure2Dataset(), 1, noise.NewRand(3), Options{LambdaFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * math.Sqrt2 * 8; math.Abs(res.Lambda-want) > 1e-9 {
		t.Fatalf("λ = %v, want %v", res.Lambda, want)
	}
}

func TestPerturbKeepsSymmetryAndChangesEverything(t *testing.T) {
	d := 4
	q := poly.NewQuadratic(d)
	l := noise.Laplace{Scale: 1}
	noisy := Perturb(q, l, noise.NewRand(5))
	if !noisy.M.IsSymmetric(0) {
		t.Fatal("perturbed M not symmetric")
	}
	if noisy.Beta == 0 {
		t.Error("β not perturbed")
	}
	for j := 0; j < d; j++ {
		if noisy.Alpha[j] == 0 {
			t.Errorf("α[%d] not perturbed", j)
		}
		for k := j; k < d; k++ {
			if noisy.M.At(j, k) == 0 {
				t.Errorf("M[%d][%d] not perturbed", j, k)
			}
		}
	}
	// Input untouched.
	if q.Beta != 0 || q.M.MaxAbs() != 0 {
		t.Fatal("Perturb mutated its input")
	}
}

func TestPerturbNoiseScaleStatistics(t *testing.T) {
	// The β coefficient receives Lap(scale) noise; across many runs its
	// variance must be ≈ 2·scale².
	q := poly.NewQuadratic(2)
	l := noise.Laplace{Scale: 3}
	rng := noise.NewRand(7)
	const trials = 20000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		b := Perturb(q, l, rng).Beta
		sum += b
		sumsq += b * b
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if want := l.Variance(); math.Abs(variance-want)/want > 0.1 {
		t.Fatalf("β noise variance = %v, want ≈ %v", variance, want)
	}
}

func TestCoefficientCount(t *testing.T) {
	// 1 + d + d(d+1)/2.
	cases := map[int]int{1: 3, 2: 6, 13: 105}
	for d, want := range cases {
		if got := CoefficientCount(d); got != want {
			t.Errorf("CoefficientCount(%d) = %d, want %d", d, got, want)
		}
	}
}

// tinyDataset yields an objective whose quadratic coefficient is small, so
// moderate noise flips its sign — the unbounded case §6 exists for.
func tinyDataset() *dataset.Dataset {
	ds := dataset.New(unitSchema(1))
	ds.Append([]float64{0.1}, 0.05)
	return ds
}

func TestRunPostProcessNoneCanFail(t *testing.T) {
	failures := 0
	for seed := int64(0); seed < 40; seed++ {
		_, err := Run(LinearTask{}, tinyDataset(), 0.1, noise.NewRand(seed), Options{PostProcess: PostProcessNone})
		if err != nil {
			if !errors.Is(err, ErrUnbounded) {
				t.Fatalf("unexpected error type: %v", err)
			}
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("PostProcessNone never hit the unbounded case at ε=0.1; the §6 scenario is not exercised")
	}
}

func TestRunResampleAlwaysSucceedsAndDoublesBudget(t *testing.T) {
	sawRetry := false
	for seed := int64(0); seed < 40; seed++ {
		res, err := Run(LinearTask{}, tinyDataset(), 0.1, noise.NewRand(seed), Options{PostProcess: PostProcessResample})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.EpsilonSpent != 0.2 {
			t.Fatalf("EpsilonSpent = %v, want 0.2 (Lemma 5)", res.EpsilonSpent)
		}
		if res.Resamples > 0 {
			sawRetry = true
		}
		if !linalg.AllFinite(res.Weights) {
			t.Fatalf("non-finite weights")
		}
	}
	if !sawRetry {
		t.Fatal("resampling never retried; the Lemma 5 path is not exercised")
	}
}

func TestRunRegularizeAndTrimNeverFails(t *testing.T) {
	// The paper's default pipeline must return finite weights at any ε.
	for _, eps := range []float64{0.01, 0.1, 0.8, 3.2} {
		for seed := int64(0); seed < 25; seed++ {
			res, err := Run(LinearTask{}, tinyDataset(), eps, noise.NewRand(seed), Options{})
			if err != nil {
				t.Fatalf("ε=%v seed=%d: %v", eps, seed, err)
			}
			if !linalg.AllFinite(res.Weights) {
				t.Fatalf("ε=%v seed=%d: non-finite weights %v", eps, seed, res.Weights)
			}
		}
	}
}

func TestRunRegularizeOnlyReportsUnboundedWhenTrimNeeded(t *testing.T) {
	// With LambdaFactor ≈ 0 regularization cannot repair a flipped
	// coefficient, so the regularize-only mode must surface ErrUnbounded on
	// at least some seeds.
	failures := 0
	for seed := int64(0); seed < 60; seed++ {
		_, err := Run(LinearTask{}, tinyDataset(), 0.05, noise.NewRand(seed),
			Options{PostProcess: PostProcessRegularizeOnly, LambdaFactor: 1e-12})
		if err != nil {
			if !errors.Is(err, ErrUnbounded) {
				t.Fatalf("unexpected error: %v", err)
			}
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("regularize-only never failed with negligible λ at ε=0.05")
	}
}

func TestRunLogisticEndToEnd(t *testing.T) {
	// Logistic FM at a generous budget must classify clearly separated
	// synthetic data far better than chance.
	rng := noise.NewRand(11)
	s := &dataset.Schema{Features: unitFeatures(2), Target: dataset.Attribute{Name: "y", Min: 0, Max: 1}}
	ds := dataset.New(s)
	for i := 0; i < 4000; i++ {
		x, _ := randomSphereTuple(rng, 2)
		y := 0.0
		if regression.Sigmoid(6*x[0]+4*x[1]) > rng.Float64() {
			y = 1
		}
		ds.Append(x, y)
	}
	res, err := Run(LogisticTask{}, ds, 3.2, noise.NewRand(12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := &regression.LogisticModel{Weights: res.Weights}
	if rate := m.MisclassificationRate(ds); rate > 0.35 {
		t.Fatalf("misclassification %v at ε=3.2, want < 0.35", rate)
	}
}

// Theorem 2 (convergence): the averaged perturbed objective approaches the
// true one as n grows, so FM error at fixed ε must shrink with cardinality.
func TestRunConvergenceWithCardinality(t *testing.T) {
	mseAt := func(n int) float64 {
		rng := noise.NewRand(100)
		s := unitSchema(2)
		ds := dataset.New(s)
		truth := []float64{0.8, -0.5}
		for i := 0; i < n; i++ {
			x, _ := randomSphereTuple(rng, 2)
			y := clampF(linalg.Dot(x, truth)+0.05*rng.NormFloat64(), -1, 1)
			ds.Append(x, y)
		}
		var total float64
		const reps = 15
		for seed := int64(0); seed < reps; seed++ {
			res, err := Run(LinearTask{}, ds, 0.8, noise.NewRand(200+seed), Options{})
			if err != nil {
				t.Fatal(err)
			}
			m := &regression.LinearModel{Weights: res.Weights}
			total += m.MSE(ds)
		}
		return total / reps
	}
	small := mseAt(150)
	large := mseAt(15000)
	if large >= small {
		t.Fatalf("FM error did not shrink with n: n=150 → %v, n=15000 → %v", small, large)
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func TestPostProcessString(t *testing.T) {
	cases := map[PostProcess]string{
		PostProcessRegularizeAndTrim: "regularize+trim",
		PostProcessRegularizeOnly:    "regularize",
		PostProcessResample:          "resample",
		PostProcessNone:              "none",
		PostProcess(42):              "PostProcess(42)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(p), got, want)
		}
	}
}

func TestPerturbDeterministicPerSeed(t *testing.T) {
	q := ParallelObjective(LinearTask{}, figure2Dataset(), 1)
	l := noise.Laplace{Scale: 5}
	a := Perturb(q, l, noise.NewRand(77))
	b := Perturb(q, l, noise.NewRand(77))
	if a.Beta != b.Beta || a.Alpha[0] != b.Alpha[0] || a.M.At(0, 0) != b.M.At(0, 0) {
		t.Fatal("Perturb not reproducible for equal seeds")
	}
	c := Perturb(q, l, noise.NewRand(78))
	if a.Beta == c.Beta && a.Alpha[0] == c.Alpha[0] {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestRunLogisticRegularizeAndTrimNeverFails(t *testing.T) {
	s := unitSchema(3)
	s.Target = dataset.Attribute{Name: "y", Min: 0, Max: 1}
	ds := dataset.New(s)
	rng := noise.NewRand(21)
	for i := 0; i < 50; i++ {
		x, _ := randomSphereTuple(rng, 3)
		ds.Append(x, float64(rng.Intn(2)))
	}
	for _, eps := range []float64{0.01, 0.1, 1, 10} {
		for seed := int64(0); seed < 10; seed++ {
			res, err := Run(LogisticTask{}, ds, eps, noise.NewRand(seed), Options{})
			if err != nil {
				t.Fatalf("ε=%v seed=%d: %v", eps, seed, err)
			}
			if !linalg.AllFinite(res.Weights) {
				t.Fatalf("non-finite logistic weights at ε=%v", eps)
			}
		}
	}
}
