package regression

import (
	"errors"
	"fmt"
	"math"

	"funcmech/internal/linalg"
	"funcmech/internal/poly"
)

// ErrUnboundedObjective is returned when a quadratic objective has no
// minimum (its coefficient matrix is not positive definite). The functional
// mechanism reaches this state whenever injected noise pushes M outside the
// SPD cone — the condition paper §6 exists to repair.
var ErrUnboundedObjective = errors.New("regression: quadratic objective is unbounded below")

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget without meeting tolerance.
var ErrNoConvergence = errors.New("regression: optimizer did not converge")

// MinimizeQuadratic returns argmin ωᵀMω + αᵀω + β by solving the stationary
// system 2Mω = −α. It requires symmetric positive definite M and returns
// ErrUnboundedObjective otherwise — the caller decides whether to
// regularize, trim, or resample (paper §6).
func MinimizeQuadratic(q *poly.Quadratic) ([]float64, error) {
	m := q.M.Clone().Symmetrize().ScaleMat(2)
	ch, err := linalg.Cholesky(m)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnboundedObjective, err)
	}
	// One buffer serves as both right-hand side and solution: SolveInto
	// supports dst == b, so the solve allocates nothing beyond the −α copy.
	w := linalg.Scale(-1, q.Alpha)
	ch.SolveInto(w, w)
	if !linalg.AllFinite(w) {
		return nil, fmt.Errorf("%w: non-finite solution", ErrUnboundedObjective)
	}
	return w, nil
}

// MinimizeExact returns argmin of q, a noise-free objective folded from n
// records: the solve of the exact baselines (NoPrivacy's least squares and
// the Truncated logistic objective). It refuses n = 0, since no records
// determine no model. q's M is a positive multiple of Σ x·xᵀ, plus any
// ridge, so it is positive semidefinite and a failed solve means numerical
// rank deficiency (collinear features, a degenerate fold); a ridge of
// 1e-9·(1 + max|M|) then restores strict positive definiteness without
// visibly moving the minimizer. q is not modified.
func MinimizeExact(q *poly.Quadratic, n int) ([]float64, error) {
	if n == 0 {
		return nil, errors.New("regression: empty dataset")
	}
	w, err := MinimizeQuadratic(q)
	if errors.Is(err, ErrUnboundedObjective) {
		qr := q.Clone()
		qr.M.AddDiagonal(1e-9 * (1 + q.M.MaxAbs()))
		w, err = MinimizeQuadratic(qr)
	}
	if err != nil {
		return nil, fmt.Errorf("regression: exact fit: %w", err)
	}
	return w, nil
}

// GDOptions tunes GradientDescent.
type GDOptions struct {
	// MaxIters bounds the outer iterations (default 500).
	MaxIters int
	// Tol is the stopping threshold on the gradient infinity norm
	// (default 1e-8).
	Tol float64
	// InitialStep seeds the first backtracking line search, and any later
	// one whose Barzilai–Borwein step is unusable (default 1).
	InitialStep float64
}

func (o GDOptions) withDefaults() GDOptions {
	if o.MaxIters <= 0 {
		o.MaxIters = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.InitialStep <= 0 {
		o.InitialStep = 1
	}
	return o
}

// GradientDescent minimizes f from init with backtracking (Armijo) line
// search. It is the generic fallback optimizer: Newton handles the smooth
// well-conditioned cases faster, but gradient descent never needs an
// invertible Hessian.
//
// Each line search after the first starts at the Barzilai–Borwein step
// ‖s‖²/⟨s, y⟩, where s is the previous step and y the gradient change along
// it, and falls back to InitialStep when that is not positive and finite. A
// fixed starting step would be halved to the first step below 2/λmax on a
// quadratic, which multiplies the error along the top eigenvector by nearly
// −1 per iteration however well conditioned the problem is. Backtracking
// never goes below InitialStep/2⁵⁹.
func GradientDescent(f func([]float64) float64, grad func([]float64) []float64, init []float64, opt GDOptions) ([]float64, error) {
	opt = opt.withDefaults()
	minStep := opt.InitialStep * 0x1p-59
	w := linalg.CloneVec(init)
	fw := f(w)
	var s, gPrev []float64 // the last accepted step and the gradient it started from
	for iter := 0; iter < opt.MaxIters; iter++ {
		g := grad(w)
		if linalg.NormInf(g) < opt.Tol {
			return w, nil
		}
		step := opt.InitialStep
		if s != nil {
			if bb := linalg.Dot(s, s) / linalg.Dot(s, linalg.Sub(g, gPrev)); bb > 0 && !math.IsInf(bb, 1) {
				step = bb
			}
		}
		g2 := linalg.Dot(g, g)
		improved := false
		for ; step >= minStep; step /= 2 {
			cand := linalg.CloneVec(w)
			linalg.AXPY(-step, g, cand)
			fc := f(cand)
			if fc < fw-1e-4*step*g2 { // false for NaN
				s, gPrev = linalg.Sub(cand, w), g
				w, fw = cand, fc
				improved = true
				break
			}
		}
		if !improved {
			// No step decreases f strictly: f's rounding hides any further
			// progress, so treat the current iterate as converged rather
			// than wander among ties until MaxIters.
			return w, nil
		}
	}
	g := grad(w)
	if linalg.NormInf(g) < math.Sqrt(opt.Tol) {
		return w, nil
	}
	return w, ErrNoConvergence
}
