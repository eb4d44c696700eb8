package regression

import (
	"errors"
	"fmt"

	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
	"funcmech/internal/poly"
)

// LinearObjective builds the exact polynomial objective of Definition 1,
//
//	f_D(ω) = Σᵢ (yᵢ − xᵢᵀω)² = Σyᵢ² − Σⱼ(2Σyᵢx_ij)ωⱼ + Σⱼₗ(Σx_ij·x_il)ωⱼωₗ,
//
// in the dense quadratic form the functional mechanism perturbs (paper §4.2):
// M = XᵀX, α = −2Xᵀy, β = Σyᵢ².
func LinearObjective(ds *dataset.Dataset) *poly.Quadratic {
	x := designMatrix(ds)
	y := ds.Labels()
	q := poly.NewQuadratic(ds.D())
	q.M = linalg.Gram(x)
	q.Alpha = linalg.Scale(-2, x.TMulVec(y))
	for _, v := range y {
		q.Beta += v * v
	}
	return q
}

// FitLinear computes the exact least-squares solution by minimizing
// LinearObjective — the NoPrivacy baseline for linear regression. A non-nil
// finalize first adds a task's data-independent terms to the objective (a
// ridge penalty), given the record count. Singular Gram matrices (collinear
// features) fall back to a minimal ridge so the baseline stays defined on
// degenerate folds.
func FitLinear(ds *dataset.Dataset, finalize func(q *poly.Quadratic, n int)) (*LinearModel, error) {
	if err := checkFitInput(ds); err != nil {
		return nil, err
	}
	q := LinearObjective(ds)
	if finalize != nil {
		finalize(q, ds.N())
	}
	w, err := MinimizeQuadratic(q)
	if errors.Is(err, ErrUnboundedObjective) {
		// XᵀX is PSD by construction, so failure means numerical rank
		// deficiency; a tiny ridge restores strict positive definiteness
		// without visibly moving the minimizer.
		ridge := 1e-9 * (1 + q.M.MaxAbs())
		qr := q.Clone()
		qr.M.AddDiagonal(ridge)
		w, err = MinimizeQuadratic(qr)
	}
	if err != nil {
		return nil, fmt.Errorf("regression: linear fit: %w", err)
	}
	return &LinearModel{Weights: w}, nil
}
