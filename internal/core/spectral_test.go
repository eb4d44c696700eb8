package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"funcmech/internal/linalg"
	"funcmech/internal/poly"
)

func TestSpectralTrimKnown(t *testing.T) {
	// M = diag(2, −1), α = (−4, 0): the negative direction is trimmed and
	// the positive one minimized exactly: ω = (1, 0).
	q := poly.NewQuadratic(2)
	q.M.Set(0, 0, 2)
	q.M.Set(1, 1, -1)
	q.Alpha = []float64{-4, 0}
	w, trimmed, err := SpectralTrim(q)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed != 1 {
		t.Fatalf("trimmed = %d, want 1", trimmed)
	}
	if !linalg.EqualApprox(w, []float64{1, 0}, 1e-10) {
		t.Fatalf("ω = %v, want [1 0]", w)
	}
}

func TestSpectralTrimNothingToTrim(t *testing.T) {
	// Positive definite input: trimming must agree with the direct
	// quadratic minimizer.
	q := poly.NewQuadratic(2)
	q.M.Set(0, 0, 3)
	q.M.Set(1, 1, 1)
	q.Alpha = []float64{-6, 2}
	w, trimmed, err := SpectralTrim(q)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed != 0 {
		t.Fatalf("trimmed = %d, want 0", trimmed)
	}
	if !linalg.EqualApprox(w, []float64{1, -1}, 1e-10) {
		t.Fatalf("ω = %v, want [1 −1]", w)
	}
}

func TestSpectralTrimAllTrimmed(t *testing.T) {
	// Entirely non-positive spectrum: the projected objective is constant
	// and the minimum-norm representative is the origin.
	q := poly.NewQuadratic(2)
	q.M.Set(0, 0, -1)
	q.M.Set(1, 1, -2)
	q.Alpha = []float64{1, 1}
	w, trimmed, err := SpectralTrim(q)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed != 2 {
		t.Fatalf("trimmed = %d, want 2", trimmed)
	}
	if !linalg.EqualApprox(w, []float64{0, 0}, 0) {
		t.Fatalf("ω = %v, want the origin", w)
	}
}

// Property: the trimmed solution minimizes the projected objective — no
// random probe in the kept eigenspace does better — and the solution lies in
// the kept eigenspace (minimum-norm preimage).
func TestSpectralTrimMinimizesProjectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(5)
		q := poly.NewQuadratic(d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				q.M.Set(i, j, rng.NormFloat64())
			}
			q.Alpha[i] = rng.NormFloat64()
		}
		q.M.Symmetrize()
		w, trimmed, err := SpectralTrim(q)
		if err != nil {
			return false
		}
		if !linalg.AllFinite(w) {
			return false
		}
		if trimmed == d {
			return linalg.Norm2(w) == 0
		}
		// Build the trimmed objective f̃(ω) = ωᵀ(Q'ᵀΛ'Q')ω + α(Q'ᵀQ')ω + β
		// and verify w beats perturbations of itself within the kept space.
		eig, err := linalg.EigenSymmetric(q.M)
		if err != nil {
			return false
		}
		keep := eig.PositiveCount()
		proj := func(v []float64) float64 {
			// g(V) with V = Q'v.
			var g float64
			qv := eig.Q.MulVec(v)
			qa := eig.Q.MulVec(q.Alpha)
			for i := 0; i < keep; i++ {
				g += eig.Values[i]*qv[i]*qv[i] + qa[i]*qv[i]
			}
			return g + q.Beta
		}
		fw := proj(w)
		for k := 0; k < 30; k++ {
			probe := linalg.CloneVec(w)
			for j := range probe {
				probe[j] += rng.NormFloat64()
			}
			if proj(probe) < fw-1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: trimming is exact on PD inputs — matches MinimizeQuadratic.
func TestSpectralTrimMatchesDirectSolveOnPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(5)
		x := linalg.NewMatrix(d+2, d)
		for i := 0; i < d+2; i++ {
			for j := 0; j < d; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
		}
		q := poly.NewQuadratic(d)
		q.M = x.T().Mul(x).AddDiagonal(0.3)
		for j := range q.Alpha {
			q.Alpha[j] = rng.NormFloat64()
		}
		w1, trimmed, err := SpectralTrim(q)
		if err != nil || trimmed != 0 {
			return false
		}
		w2, err := minimizeQuadraticForTest(q)
		if err != nil {
			return false
		}
		return linalg.EqualApprox(w1, w2, 1e-7*(1+linalg.Norm2(w2)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func minimizeQuadraticForTest(q *poly.Quadratic) ([]float64, error) {
	m := q.M.Clone().Symmetrize().ScaleMat(2)
	return linalg.SolveSPD(m, linalg.Scale(-1, q.Alpha))
}

func TestSpectralTrimZeroMatrix(t *testing.T) {
	q := poly.NewQuadratic(3)
	q.Alpha = []float64{1, 2, 3}
	w, trimmed, err := SpectralTrim(q)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed != 3 || linalg.Norm2(w) != 0 {
		t.Fatalf("zero matrix: trimmed=%d w=%v", trimmed, w)
	}
}

func TestSpectralTrimRejectsNaN(t *testing.T) {
	q := poly.NewQuadratic(2)
	q.M.Set(0, 0, math.NaN())
	if _, _, err := SpectralTrim(q); err == nil {
		t.Fatal("expected error for NaN matrix")
	}
}
