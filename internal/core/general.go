package core

import (
	"fmt"
	"math/rand"

	"funcmech/internal/linalg"
	"funcmech/internal/noise"
	"funcmech/internal/poly"
	"funcmech/internal/regression"
)

// This file implements Algorithm 1 in its full generality: objectives that
// are finite polynomials of *any* degree J, not just the degree-2 forms the
// two case-study regressions reduce to. The paper's framework (§4.1) is
// deliberately degree-agnostic — "our functional mechanism generally applies
// to all forms of optimization functions" — and this entry point is what a
// user with, say, an L4 loss or a higher-order Taylor truncation would call.
//
// The degree-2 path (Run) stays separate because it admits a closed-form
// minimizer and the §6 spectral repairs; the general path minimizes the
// noisy polynomial by multi-start gradient descent and reports unboundedness
// when the iterates diverge.

// GeneralResult reports a general-degree mechanism run.
type GeneralResult struct {
	// Weights is the released minimizer ω̄.
	Weights []float64
	// Delta and NoiseScale are the calibration actually used.
	Delta, NoiseScale float64
	// Noisy is the perturbed polynomial objective.
	Noisy *poly.Polynomial
	// Coefficients is the number of Laplace draws (the full basis size).
	Coefficients int
}

// MonomialBasis enumerates the complete basis Φ₀ ∪ … ∪ Φ_J over d variables
// in deterministic order — every monomial Algorithm 1 must perturb,
// including those whose data coefficient is zero. The basis has
// C(d+J, J) elements.
func MonomialBasis(d, maxDegree int) []poly.Monomial {
	if d <= 0 || maxDegree < 0 {
		panic(fmt.Sprintf("core: MonomialBasis(%d, %d)", d, maxDegree))
	}
	var out []poly.Monomial
	exps := make([]int, d)
	var rec func(pos, remaining int)
	rec = func(pos, remaining int) {
		if pos == d {
			out = append(out, poly.NewMonomial(exps))
			return
		}
		for e := 0; e <= remaining; e++ {
			exps[pos] = e
			rec(pos+1, remaining-e)
			exps[pos] = 0
		}
	}
	rec(0, maxDegree)
	return out
}

// PerturbPolynomial draws one Lap variate per basis monomial and adds it to
// the polynomial's coefficient — Algorithm 1 lines 2–7 for arbitrary degree.
// The input polynomial is not modified; its degree must not exceed the basis
// degree (otherwise some coefficients would escape perturbation and the
// privacy proof would not apply).
func PerturbPolynomial(p *poly.Polynomial, basis []poly.Monomial, l noise.Laplace, rng *rand.Rand) (*poly.Polynomial, error) {
	covered := make(map[string]bool, len(basis))
	out := p.Clone()
	for _, m := range basis {
		covered[m.Key()] = true
		out.AddTerm(m, l.Sample(rng))
	}
	for _, t := range p.Terms() {
		if !covered[t.Mono.Key()] {
			return nil, fmt.Errorf("core: objective term %v outside the perturbation basis", t.Mono)
		}
	}
	return out, nil
}

// RunGeneral's minimizer: the number of gradient-descent starts, the
// iteration budget of each descent, and the iterate norm beyond which a
// start counts as diverged.
const (
	generalStarts           = 8
	generalMaxIters         = 500
	generalDivergenceRadius = 1e6
)

// RunGeneral executes the functional mechanism on an arbitrary finite
// polynomial objective. delta is the caller's analytic sensitivity
// Δ = 2·max_t Σⱼ Σ_{φ∈Φⱼ} |λ_φt| for their per-tuple cost — it cannot be
// derived from the aggregate polynomial without touching the data, which is
// exactly what must not happen.
//
// The perturbed objective is minimized by multi-start gradient descent; the
// best finite minimizer wins. ErrUnbounded is returned when every start
// diverges — the caller may retry under a Lemma 5 budget-doubling discipline
// or reformulate with a bounded objective.
func RunGeneral(objective *poly.Polynomial, delta, eps float64, rng *rand.Rand) (*GeneralResult, error) {
	if !(delta > 0) {
		return nil, fmt.Errorf("core: non-positive sensitivity %v", delta)
	}
	if err := noise.CheckScale(delta, eps); err != nil {
		return nil, err
	}
	d := objective.NumVars()
	basis := MonomialBasis(d, objective.Degree())
	l := noise.NewLaplace(delta, eps)
	noisy, err := PerturbPolynomial(objective, basis, l, rng)
	if err != nil {
		return nil, err
	}

	res := &GeneralResult{
		Delta:        delta,
		NoiseScale:   l.Scale,
		Noisy:        noisy,
		Coefficients: len(basis),
	}

	var best []float64
	bestVal := 0.0
	for s := 0; s < generalStarts; s++ {
		start := make([]float64, d)
		if s > 0 { // first start at the origin, the rest randomized
			for j := range start {
				start[j] = rng.NormFloat64()
			}
		}
		w, _ := regression.GradientDescent(noisy.Eval, noisy.Gradient, start,
			regression.GDOptions{MaxIters: generalMaxIters})
		if !linalg.AllFinite(w) || linalg.Norm2(w) > generalDivergenceRadius {
			continue
		}
		if v := noisy.Eval(w); best == nil || v < bestVal {
			best, bestVal = w, v
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: all %d descent starts diverged", ErrUnbounded, generalStarts)
	}
	// A descent start can settle on a stationary point (e.g. the saddle of
	// −ω⁴ at the origin, where the gradient vanishes exactly) even though
	// the objective is unbounded below. Probe far-away points along random
	// rays and the solution ray; any large decrease convicts the objective.
	if rayDecreases(noisy, best, bestVal, generalDivergenceRadius, rng) {
		return nil, fmt.Errorf("%w: objective decreases without bound along a probed ray", ErrUnbounded)
	}
	res.Weights = best
	return res, nil
}

// rayDecreases reports whether f drops more than 1 below bestVal at radius r
// along the best-point ray or any of 2d+8 random unit rays.
func rayDecreases(f *poly.Polynomial, best []float64, bestVal, r float64, rng *rand.Rand) bool {
	d := len(best)
	if n := linalg.Norm2(best); n > 0 {
		if f.Eval(linalg.Scale(r/n, best)) < bestVal-1 {
			return true
		}
	}
	for k := 0; k < 2*d+8; k++ {
		u := make([]float64, d)
		for j := range u {
			u[j] = rng.NormFloat64()
		}
		n := linalg.Norm2(u)
		if n == 0 {
			continue
		}
		if f.Eval(linalg.Scale(r/n, u)) < bestVal-1 {
			return true
		}
	}
	return false
}
