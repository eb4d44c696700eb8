package regression

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"funcmech/internal/linalg"
	"funcmech/internal/poly"
)

func TestMinimizeQuadraticKnown(t *testing.T) {
	// f(ω) = (ω₁−1)² + 2(ω₂+3)² = ω₁² + 2ω₂² − 2ω₁ + 12ω₂ + 19.
	q := poly.NewQuadratic(2)
	q.M.Set(0, 0, 1)
	q.M.Set(1, 1, 2)
	q.Alpha = []float64{-2, 12}
	q.Beta = 19
	w, err := MinimizeQuadratic(q)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(w, []float64{1, -3}, 1e-10) {
		t.Fatalf("argmin = %v, want [1 −3]", w)
	}
}

func TestMinimizeQuadraticUnbounded(t *testing.T) {
	q := poly.NewQuadratic(1)
	q.M.Set(0, 0, -1) // concave: no minimum
	q.Alpha = []float64{1}
	if _, err := MinimizeQuadratic(q); !errors.Is(err, ErrUnboundedObjective) {
		t.Fatalf("err = %v, want ErrUnboundedObjective", err)
	}
}

func TestMinimizeQuadraticIndefinite(t *testing.T) {
	q := poly.NewQuadratic(2)
	q.M.Set(0, 0, 1)
	q.M.Set(1, 1, -1) // saddle
	if _, err := MinimizeQuadratic(q); !errors.Is(err, ErrUnboundedObjective) {
		t.Fatalf("err = %v, want ErrUnboundedObjective", err)
	}
}

// Property: for random SPD quadratics the returned point has zero gradient
// and minimal value among random probes.
func TestMinimizeQuadraticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(6)
		q := poly.NewQuadratic(d)
		x := linalg.NewMatrix(d+2, d)
		for i := 0; i < d+2; i++ {
			for j := 0; j < d; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
		}
		q.M = x.T().Mul(x).AddDiagonal(0.5)
		for j := range q.Alpha {
			q.Alpha[j] = rng.NormFloat64()
		}
		w, err := MinimizeQuadratic(q)
		if err != nil {
			return false
		}
		if linalg.NormInf(q.Gradient(w)) > 1e-7 {
			return false
		}
		fw := q.Eval(w)
		for k := 0; k < 20; k++ {
			probe := make([]float64, d)
			for j := range probe {
				probe[j] = w[j] + rng.NormFloat64()
			}
			if q.Eval(probe) < fw-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGradientDescentQuadratic(t *testing.T) {
	q := poly.NewQuadratic(2)
	q.M.Set(0, 0, 2)
	q.M.Set(1, 1, 0.5)
	q.Alpha = []float64{-4, 1}
	w, err := GradientDescent(q.Eval, q.Gradient, []float64{5, 5}, GDOptions{MaxIters: 2000, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	want, err := MinimizeQuadratic(q)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(w, want, 1e-5) {
		t.Fatalf("GD = %v, closed form = %v", w, want)
	}
}

func TestGradientDescentRosenbrockProgress(t *testing.T) {
	// A hard non-convex case: GD need not reach the optimum, but must make
	// substantial progress and terminate.
	f := func(w []float64) float64 {
		a, b := w[0], w[1]
		return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
	}
	grad := func(w []float64) []float64 {
		a, b := w[0], w[1]
		return []float64{-2*(1-a) - 400*a*(b-a*a), 200 * (b - a*a)}
	}
	start := []float64{-1.2, 1}
	w, _ := GradientDescent(f, grad, start, GDOptions{MaxIters: 3000})
	if f(w) >= f(start)/10 {
		t.Fatalf("insufficient progress: f = %v from %v", f(w), f(start))
	}
}

func TestGradientDescentAlreadyOptimal(t *testing.T) {
	f := func(w []float64) float64 { return w[0] * w[0] }
	grad := func(w []float64) []float64 { return []float64{2 * w[0]} }
	w, err := GradientDescent(f, grad, []float64{0}, GDOptions{})
	if err != nil || w[0] != 0 {
		t.Fatalf("w = %v, err = %v", w, err)
	}
}

func TestGradientDescentDefaults(t *testing.T) {
	o := GDOptions{}.withDefaults()
	if o.MaxIters != 500 || o.Tol != 1e-8 || o.InitialStep != 1 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestGradientDescentHandlesNaNObjective(t *testing.T) {
	// An objective that returns NaN away from the origin: the line search
	// must reject those steps and terminate.
	f := func(w []float64) float64 {
		if math.Abs(w[0]) > 1 {
			return math.NaN()
		}
		return w[0] * w[0]
	}
	grad := func(w []float64) []float64 { return []float64{2 * w[0]} }
	w, _ := GradientDescent(f, grad, []float64{0.9}, GDOptions{MaxIters: 100})
	if math.IsNaN(f(w)) {
		t.Fatal("GD terminated at a NaN point")
	}
}
