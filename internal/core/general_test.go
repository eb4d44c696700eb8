package core

import (
	"errors"
	"math"
	"testing"

	"funcmech/internal/noise"
	"funcmech/internal/poly"
)

func TestMonomialBasisSize(t *testing.T) {
	// |Φ₀ ∪ … ∪ Φ_J| = C(d+J, J).
	cases := []struct{ d, j, want int }{
		{1, 2, 3}, // 1, ω, ω²
		{2, 2, 6}, // 1, ω₁, ω₂, ω₁², ω₁ω₂, ω₂²
		{3, 2, 10},
		{2, 3, 10},
		{13, 2, 105}, // matches CoefficientCount(13)
		{2, 0, 1},
	}
	for _, c := range cases {
		if got := len(MonomialBasis(c.d, c.j)); got != c.want {
			t.Errorf("basis(%d,%d) has %d monomials, want %d", c.d, c.j, got, c.want)
		}
	}
}

func TestMonomialBasisMatchesCoefficientCount(t *testing.T) {
	for d := 1; d <= 6; d++ {
		if got, want := len(MonomialBasis(d, 2)), CoefficientCount(d); got != want {
			t.Errorf("d=%d: basis %d vs CoefficientCount %d", d, got, want)
		}
	}
}

func TestMonomialBasisUniqueAndBounded(t *testing.T) {
	basis := MonomialBasis(3, 4)
	seen := map[string]bool{}
	for _, m := range basis {
		if seen[m.Key()] {
			t.Fatalf("duplicate monomial %v", m)
		}
		seen[m.Key()] = true
		if m.Degree() > 4 {
			t.Fatalf("monomial %v exceeds degree 4", m)
		}
	}
}

func TestPerturbPolynomialCoversBasis(t *testing.T) {
	p := poly.NewPolynomial(2) // zero polynomial: every coefficient comes from noise
	basis := MonomialBasis(2, 2)
	noisy, err := PerturbPolynomial(p, basis, noise.Laplace{Scale: 1}, noise.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if noisy.NumTerms() != len(basis) {
		t.Fatalf("perturbed %d terms, want all %d basis monomials", noisy.NumTerms(), len(basis))
	}
	if p.NumTerms() != 0 {
		t.Fatal("input polynomial was modified")
	}
}

func TestPerturbPolynomialRejectsEscapingTerms(t *testing.T) {
	p := poly.NewPolynomial(1).AddTerm(poly.NewMonomial([]int{3}), 1) // cubic term
	basis := MonomialBasis(1, 2)                                      // degree-2 basis only
	if _, err := PerturbPolynomial(p, basis, noise.Laplace{Scale: 1}, noise.NewRand(1)); err == nil {
		t.Fatal("expected error when objective terms escape the basis")
	}
}

func TestRunGeneralMatchesClosedFormAtHugeEpsilon(t *testing.T) {
	// Quadratic objective: must agree with the dense-path minimizer.
	ds := figure2Dataset()
	obj := ParallelObjective(LinearTask{}, ds, 1).ToPolynomial()
	res, err := RunGeneral(obj, LinearTask{}.Sensitivity(1), 1e12, noise.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := 117.0 / 206.0; math.Abs(res.Weights[0]-want) > 1e-4 {
		t.Fatalf("ω = %v, want %v", res.Weights[0], want)
	}
	if res.Coefficients != 3 {
		t.Errorf("Coefficients = %d, want 3", res.Coefficients)
	}
}

func TestRunGeneralQuarticObjective(t *testing.T) {
	// f(ω) = (ω² − 1)² + 0.3ω = ω⁴ − 2ω² + 0.3ω + 1: a degree-4 objective
	// with two basins; the global minimum is near ω ≈ −1.04.
	obj := poly.NewPolynomial(1)
	obj.AddTerm(poly.NewMonomial([]int{4}), 1)
	obj.AddTerm(poly.NewMonomial([]int{2}), -2)
	obj.AddTerm(poly.NewMonomial([]int{1}), 0.3)
	obj.AddTerm(poly.NewMonomial([]int{0}), 1)
	res, err := RunGeneral(obj, 1, 1e12, noise.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	w := res.Weights[0]
	if w > -0.9 || w < -1.2 {
		t.Fatalf("quartic argmin = %v, want ≈ −1.04 (the global basin)", w)
	}
	// Gradient vanishes at the solution.
	if g := obj.Gradient(res.Weights); math.Abs(g[0]) > 1e-3 {
		t.Fatalf("gradient at solution = %v", g)
	}
}

func TestRunGeneralDetectsUnbounded(t *testing.T) {
	// f(ω) = −ω⁴: unbounded below; every start must diverge.
	obj := poly.NewPolynomial(1).AddTerm(poly.NewMonomial([]int{4}), -1)
	_, err := RunGeneral(obj, 1, 1e12, noise.NewRand(4))
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestRunGeneralDetectsUnboundedRay(t *testing.T) {
	// f(ω) = −ω: gradient descent runs off to +∞ linearly; either the
	// divergence check or the ray probe must catch it.
	obj := poly.NewPolynomial(1).AddTerm(poly.Linear(1, 0), -1)
	_, err := RunGeneral(obj, 1, 1e12, noise.NewRand(5))
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestRunGeneralRejectsBadInput(t *testing.T) {
	obj := poly.NewPolynomial(1).AddTerm(poly.Product(1, 0, 0), 1)
	// 1e-320 is positive, but the scale Δ/ε overflows: no draw may run at it.
	for _, eps := range []float64{0, math.NaN(), math.Inf(1), 1e-320} {
		if _, err := RunGeneral(obj, 1, eps, noise.NewRand(1)); !errors.Is(err, noise.ErrInvalidSpend) {
			t.Errorf("ε = %v: err = %v, want ErrInvalidSpend", eps, err)
		}
	}
	if _, err := RunGeneral(obj, 0, 1, noise.NewRand(1)); err == nil {
		t.Error("expected error for Δ=0")
	}
}

func TestRunGeneralNoiseMagnitude(t *testing.T) {
	// At moderate ε, the minimizer of a well-conditioned noisy quadratic
	// shifts but stays finite; statistics over seeds confirm calibration.
	obj := poly.NewPolynomial(1)
	obj.AddTerm(poly.Product(1, 0, 0), 50) // strong curvature
	obj.AddTerm(poly.Linear(1, 0), -10)    // argmin 0.1
	var shift float64
	const reps = 30
	for seed := int64(0); seed < reps; seed++ {
		res, err := RunGeneral(obj, 2, 2, noise.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		shift += math.Abs(res.Weights[0] - 0.1)
	}
	shift /= reps
	// Noise scale 1 on the linear coefficient ⇒ |Δω| ≈ |η|/(2·50) ≈ 0.01.
	if shift > 0.1 {
		t.Fatalf("mean argmin shift %v implausibly large", shift)
	}
	if shift == 0 {
		t.Fatal("no noise reached the solution")
	}
}
