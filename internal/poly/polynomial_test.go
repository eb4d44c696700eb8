package poly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomPoly builds a random polynomial with degree ≤ 2 terms.
func randomPoly(rng *rand.Rand, d int) *Polynomial {
	p := NewPolynomial(d)
	p.AddTerm(Constant(d), rng.NormFloat64())
	for i := 0; i < d; i++ {
		p.AddTerm(Linear(d, i), rng.NormFloat64())
		for j := i; j < d; j++ {
			p.AddTerm(Product(d, i, j), rng.NormFloat64())
		}
	}
	return p
}

func randomVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestPolynomialEvalKnown(t *testing.T) {
	// 2.06ω² − 2.34ω + 1.25 — the Figure 2 objective.
	p := NewPolynomial(1)
	p.AddTerm(Product(1, 0, 0), 2.06)
	p.AddTerm(Linear(1, 0), -2.34)
	p.AddTerm(Constant(1), 1.25)
	w := 117.0 / 206.0
	want := 2.06*w*w - 2.34*w + 1.25
	if got := p.Eval([]float64{w}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestAddTermMerges(t *testing.T) {
	p := NewPolynomial(2)
	p.AddTerm(Linear(2, 0), 1.5)
	p.AddTerm(Linear(2, 0), 2.5)
	if got := p.Coef(Linear(2, 0)); got != 4 {
		t.Fatalf("merged coef = %v, want 4", got)
	}
	if p.NumTerms() != 1 {
		t.Fatalf("NumTerms = %d, want 1", p.NumTerms())
	}
}

func TestAddTermCancellationPrunes(t *testing.T) {
	p := NewPolynomial(1)
	p.AddTerm(Linear(1, 0), 3)
	p.AddTerm(Linear(1, 0), -3)
	if p.NumTerms() != 0 {
		t.Fatalf("cancelled term not pruned, NumTerms = %d", p.NumTerms())
	}
}

func TestTermsDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomPoly(rng, 3)
	first := p.Terms()
	for i := 0; i < 5; i++ {
		again := p.Terms()
		for j := range first {
			if first[j].Mono.Key() != again[j].Mono.Key() {
				t.Fatal("Terms order not deterministic")
			}
		}
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Mono.Degree() > first[i].Mono.Degree() {
			t.Fatal("Terms not sorted by degree")
		}
	}
}

func TestDegree(t *testing.T) {
	p := NewPolynomial(2)
	if p.Degree() != 0 {
		t.Error("zero polynomial degree != 0")
	}
	p.AddTerm(NewMonomial([]int{2, 3}), 1)
	if p.Degree() != 5 {
		t.Errorf("Degree = %d, want 5", p.Degree())
	}
}

func TestCoefL1Norm(t *testing.T) {
	p := NewPolynomial(2)
	p.AddTerm(Constant(2), 100) // excluded for minDegree=1
	p.AddTerm(Linear(2, 0), -2)
	p.AddTerm(Product(2, 0, 1), 3)
	if got := p.CoefL1Norm(1); got != 5 {
		t.Fatalf("CoefL1Norm(1) = %v, want 5", got)
	}
	if got := p.CoefL1Norm(0); got != 105 {
		t.Fatalf("CoefL1Norm(0) = %v, want 105", got)
	}
}

// Property: gradient matches central finite differences.
func TestGradientMatchesNumericProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		p := randomPoly(rng, d)
		w := randomVec(rng, d)
		g := p.Gradient(w)
		const h = 1e-6
		for i := 0; i < d; i++ {
			wp, wm := append([]float64(nil), w...), append([]float64(nil), w...)
			wp[i] += h
			wm[i] -= h
			num := (p.Eval(wp) - p.Eval(wm)) / (2 * h)
			if math.Abs(num-g[i]) > 1e-4*(1+math.Abs(num)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eval is a ring homomorphism — (p+q)(w) = p(w)+q(w) and
// (p·q)(w) = p(w)·q(w).
func TestEvalHomomorphismProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		p := randomPoly(rng, d)
		q := randomPoly(rng, d)
		w := randomVec(rng, d)
		pw, qw := p.Eval(w), q.Eval(w)
		sum := p.Clone().Add(q)
		prod := p.Mul(q)
		tol := 1e-8 * (1 + math.Abs(pw)*math.Abs(qw))
		return math.Abs(sum.Eval(w)-(pw+qw)) < tol && math.Abs(prod.Eval(w)-pw*qw) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Scale multiplies evaluation.
func TestScaleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		p := randomPoly(rng, d)
		w := randomVec(rng, d)
		c := rng.NormFloat64()
		want := c * p.Eval(w)
		got := p.Clone().Scale(c).Eval(w)
		return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleZeroEmpties(t *testing.T) {
	p := randomPoly(rand.New(rand.NewSource(1)), 2)
	p.Scale(0)
	if p.NumTerms() != 0 {
		t.Fatal("Scale(0) must clear all terms")
	}
}

func TestEqualApprox(t *testing.T) {
	p := NewPolynomial(1).AddTerm(Linear(1, 0), 1)
	q := NewPolynomial(1).AddTerm(Linear(1, 0), 1+1e-12)
	if !p.EqualApprox(q, 1e-9) {
		t.Error("nearly equal polynomials reported unequal")
	}
	q.AddTerm(Constant(1), 5)
	if p.EqualApprox(q, 1e-9) {
		t.Error("polynomials with an extra term reported equal")
	}
	if !q.EqualApprox(p.Clone().AddTerm(Constant(1), 5), 1e-9) {
		t.Error("symmetric comparison failed")
	}
}

func TestStringZero(t *testing.T) {
	if s := NewPolynomial(2).String(); s != "0" {
		t.Fatalf("zero polynomial String = %q", s)
	}
}
