package poly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"funcmech/internal/linalg"
)

func randomQuadratic(rng *rand.Rand, d int) *Quadratic {
	q := NewQuadratic(d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			q.M.Set(i, j, rng.NormFloat64())
		}
		q.Alpha[i] = rng.NormFloat64()
	}
	q.M.Symmetrize()
	q.Beta = rng.NormFloat64()
	return q
}

func TestQuadraticEvalKnown(t *testing.T) {
	// f(ω) = 2ω₁² + 6ω₁ω₂ + 4ω₂² + ω₁ − ω₂ + 3 at (1, 2).
	q := NewQuadratic(2)
	q.M.Set(0, 0, 2)
	q.M.Set(0, 1, 3)
	q.M.Set(1, 0, 3)
	q.M.Set(1, 1, 4)
	q.Alpha = []float64{1, -1}
	q.Beta = 3
	want := 2.0 + 12 + 16 + 1 - 2 + 3
	if got := q.Eval([]float64{1, 2}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestQuadraticGradientSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := randomQuadratic(rng, 3)
	w := randomVec(rng, 3)
	// For symmetric M the gradient is 2Mω + α.
	want := linalg.Add(linalg.Scale(2, q.M.MulVec(w)), q.Alpha)
	if !linalg.EqualApprox(q.Gradient(w), want, 1e-10) {
		t.Fatalf("Gradient = %v, want %v", q.Gradient(w), want)
	}
}

// Property: the dense and sparse representations agree pointwise.
func TestQuadraticToPolynomialAgreesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(5)
		q := randomQuadratic(rng, d)
		p := q.ToPolynomial()
		for trial := 0; trial < 5; trial++ {
			w := randomVec(rng, d)
			a, b := q.Eval(w), p.Eval(w)
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuadraticGradientMatchesPolynomial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := randomQuadratic(rng, 4)
	p := q.ToPolynomial()
	w := randomVec(rng, 4)
	if !linalg.EqualApprox(q.Gradient(w), p.Gradient(w), 1e-9) {
		t.Fatalf("gradients disagree: %v vs %v", q.Gradient(w), p.Gradient(w))
	}
}

func TestQuadraticCloneIndependent(t *testing.T) {
	q := NewQuadratic(2)
	c := q.Clone()
	c.M.Set(0, 0, 9)
	c.Alpha[1] = 7
	if q.M.At(0, 0) != 0 || q.Alpha[1] != 0 {
		t.Fatal("Clone aliases its receiver")
	}
}
