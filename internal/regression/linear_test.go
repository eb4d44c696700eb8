package regression_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
	"funcmech/internal/poly"
	"funcmech/internal/regression"
)

// linearObjective is the §4.2 objective the linear task's fold builds, the
// one the functional mechanism perturbs and the NoPrivacy baseline
// minimizes.
func linearObjective(ds *dataset.Dataset) *poly.Quadratic {
	return core.ParallelObjective(core.LinearTask{}, ds, 1)
}

// fitLinear is the NoPrivacy baseline's exact least-squares fit.
func fitLinear(ds *dataset.Dataset) (*regression.LinearModel, error) {
	w, err := regression.MinimizeExact(linearObjective(ds), ds.N())
	if err != nil {
		return nil, err
	}
	return &regression.LinearModel{Weights: w}, nil
}

func linSchema(d int) *dataset.Schema {
	s := &dataset.Schema{Target: dataset.Attribute{Name: "y", Min: -1, Max: 1}}
	for j := 0; j < d; j++ {
		s.Features = append(s.Features, dataset.Attribute{
			Name: "x" + string(rune('a'+j)), Min: -1, Max: 1,
		})
	}
	return s
}

// figure2Dataset is the paper's running example (§4.2): a one-dimensional
// database with tuples (1, 0.4), (0.9, 0.3), (−0.5, −1).
func figure2Dataset() *dataset.Dataset {
	ds := dataset.New(linSchema(1))
	ds.Append([]float64{1}, 0.4)
	ds.Append([]float64{0.9}, 0.3)
	ds.Append([]float64{-0.5}, -1)
	return ds
}

func TestLinearObjectiveFigure2Golden(t *testing.T) {
	// Paper §4.2: f_D(ω) = 2.06ω² − 2.34ω + 1.25.
	q := linearObjective(figure2Dataset())
	if got := q.M.At(0, 0); math.Abs(got-2.06) > 1e-12 {
		t.Errorf("M = %v, want 2.06", got)
	}
	if got := q.Alpha[0]; math.Abs(got-(-2.34)) > 1e-12 {
		t.Errorf("α = %v, want −2.34", got)
	}
	if math.Abs(q.Beta-1.25) > 1e-12 {
		t.Errorf("β = %v, want 1.25", q.Beta)
	}
}

func TestFitLinearFigure2Golden(t *testing.T) {
	// Paper §4.2: ω* = 117/206.
	m, err := fitLinear(figure2Dataset())
	if err != nil {
		t.Fatal(err)
	}
	if want := 117.0 / 206.0; math.Abs(m.Weights[0]-want) > 1e-12 {
		t.Fatalf("ω* = %v, want %v", m.Weights[0], want)
	}
}

func syntheticLinear(rng *rand.Rand, n, d int, noiseStd float64) (*dataset.Dataset, []float64) {
	truth := make([]float64, d)
	for j := range truth {
		truth[j] = rng.NormFloat64()
	}
	ds := dataset.NewWithCapacity(linSchema(d), n)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		ds.Append(x, linalg.Dot(x, truth)+noiseStd*rng.NormFloat64())
	}
	return ds, truth
}

func TestFitLinearRecoversNoiselessWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds, truth := syntheticLinear(rng, 200, 4, 0)
	m, err := fitLinear(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(m.Weights, truth, 1e-8) {
		t.Fatalf("weights %v, want %v", m.Weights, truth)
	}
	if mse := m.MSE(ds); mse > 1e-16 {
		t.Fatalf("noiseless MSE = %v", mse)
	}
}

func TestFitLinearNoisyCloseToTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds, truth := syntheticLinear(rng, 5000, 3, 0.1)
	m, err := fitLinear(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(m.Weights, truth, 0.05) {
		t.Fatalf("weights %v far from %v", m.Weights, truth)
	}
}

func TestFitLinearCollinearFeatures(t *testing.T) {
	// Duplicate feature ⇒ singular Gram; the ridge fallback must keep the
	// fit defined and the predictions exact on the training data.
	ds := dataset.New(linSchema(2))
	for i := 0; i < 20; i++ {
		v := float64(i)/10 - 1
		ds.Append([]float64{v, v}, 2*v)
	}
	m, err := fitLinear(ds)
	if err != nil {
		t.Fatal(err)
	}
	if mse := m.MSE(ds); mse > 1e-10 {
		t.Fatalf("collinear MSE = %v", mse)
	}
}

func TestFitLinearEmptyDataset(t *testing.T) {
	if _, err := fitLinear(dataset.New(linSchema(1))); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

// gdProblem draws the least-squares problem TestFitLinearMatchesGDProperty
// checks for seed.
func gdProblem(seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := 1 + rng.Intn(4)
	ds, _ := syntheticLinear(rng, 60+rng.Intn(100), d, 0.2)
	return ds
}

// Property: the closed-form minimizer agrees with gradient descent on the
// same objective.
func TestFitLinearMatchesGDProperty(t *testing.T) {
	f := func(seed int64) bool {
		ds := gdProblem(seed)
		m, err := fitLinear(ds)
		if err != nil {
			return false
		}
		q := linearObjective(ds)
		w, err := regression.GradientDescent(q.Eval, q.Gradient, make([]float64, ds.D()), regression.GDOptions{MaxIters: 5000, Tol: 1e-10})
		if err != nil {
			return false
		}
		return linalg.EqualApprox(m.Weights, w, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestGradientDescentConvergesOnWellConditionedQuadratic pins the property's
// seed 1464: d = 4, n = 145, and XᵀX has eigenvalues 64.0 down to 39.3, a
// condition number of 1.6. Restarting every line search at step 1 accepted
// 1/64 ≈ 2/λmax each time, so descent ran out of iterations 0.134 away
// from the least-squares solution. Descent now stops where rounding in f
// hides further decrease, about 1e-9 away here, instead of wandering among
// equal values of f until MaxIters.
func TestGradientDescentConvergesOnWellConditionedQuadratic(t *testing.T) {
	ds := gdProblem(1464)
	if ds.D() != 4 || ds.N() != 145 {
		t.Fatalf("test setup: drew d = %d, n = %d, want 4 and 145", ds.D(), ds.N())
	}
	m, err := fitLinear(ds)
	if err != nil {
		t.Fatal(err)
	}
	q := linearObjective(ds)
	grads := 0
	grad := func(w []float64) []float64 { grads++; return q.Gradient(w) }
	w, err := regression.GradientDescent(q.Eval, grad, make([]float64, ds.D()), regression.GDOptions{MaxIters: 5000, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(m.Weights, w, 1e-7) {
		t.Fatalf("GD = %v, closed form = %v", w, m.Weights)
	}
	if grads > 100 {
		t.Fatalf("GD took %d gradient evaluations on a condition-1.6 quadratic", grads)
	}
}

// Property: the fitted objective value is no worse than at 50 random points
// (global minimum of a convex quadratic).
func TestFitLinearIsMinimumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		ds, _ := syntheticLinear(rng, 50, d, 0.3)
		m, err := fitLinear(ds)
		if err != nil {
			return false
		}
		q := linearObjective(ds)
		best := q.Eval(m.Weights)
		for trial := 0; trial < 50; trial++ {
			w := make([]float64, d)
			for j := range w {
				w[j] = rng.NormFloat64() * 2
			}
			if q.Eval(w) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearModelMSEKnown(t *testing.T) {
	m := &regression.LinearModel{Weights: []float64{1}}
	ds := dataset.New(linSchema(1))
	ds.Append([]float64{0.5}, 1)  // residual 0.5
	ds.Append([]float64{0.25}, 0) // residual −0.25
	want := (0.25 + 0.0625) / 2
	if got := m.MSE(ds); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MSE = %v, want %v", got, want)
	}
}

func TestLinearModelMSEEmptyNaN(t *testing.T) {
	m := &regression.LinearModel{Weights: []float64{1}}
	if got := m.MSE(dataset.New(linSchema(1))); !math.IsNaN(got) {
		t.Fatalf("MSE on empty = %v, want NaN", got)
	}
}
