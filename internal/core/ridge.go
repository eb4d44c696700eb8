package core

import (
	"fmt"

	"funcmech/internal/poly"
)

// RidgeTask is linear regression with an L2 penalty added to the objective:
//
//	f_D(ω) = Σᵢ (yᵢ − xᵢᵀω)² + weight·‖ω‖²
//
// The §6.1 post-processing already adds a noise-calibrated ridge to repair
// unbounded objectives; RidgeTask instead makes regularization part of the
// *statistical* model (Hoerl–Kennard shrinkage, the paper's reference [14]),
// chosen a priori by the analyst. The penalty is a deterministic function of
// ω alone — it involves no data — so the per-tuple coefficients, and
// therefore the sensitivity Δ, are exactly LinearTask's, and Algorithm 1
// applies unchanged.
type RidgeTask struct {
	// Weight is the L2 penalty coefficient; must be non-negative.
	Weight float64
}

// Name implements Task.
func (r RidgeTask) Name() string { return fmt.Sprintf("ridge(%g)", r.Weight) }

// Sensitivity equals LinearTask's 2(d+1)²: the penalty term contributes no
// per-tuple coefficients.
func (r RidgeTask) Sensitivity(d int) float64 { return LinearTask{}.Sensitivity(d) }

// Coefficients implements Task with LinearTask's coefficients: the penalty
// term involves no data.
func (RidgeTask) Coefficients(y float64) (c0, c1, c2 float64) {
	return LinearTask{}.Coefficients(y)
}

// FinalizeObjective implements Task, adding the data-independent
// penalty Weight·I once per objective (not per shard). A negative weight is
// a programming error (TaskSpec.New refuses one) and panics.
func (r RidgeTask) FinalizeObjective(q *poly.Quadratic, n int) {
	if r.Weight < 0 {
		panic(fmt.Sprintf("core: negative ridge weight %v", r.Weight))
	}
	q.M.AddDiagonal(r.Weight)
}
