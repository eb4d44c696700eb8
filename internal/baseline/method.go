// Package baseline implements the four methods the paper's evaluation (§7)
// compares the functional mechanism against:
//
//   - NoPrivacy — exact regression, the accuracy ceiling.
//   - Truncated — the order-2 Taylor objective of §5 minimized *without*
//     noise; isolates the approximation error of Algorithm 2.
//   - DPME — Lei's differentially private M-estimators (NIPS'11): noisy
//     histogram → synthetic data → regression.
//   - FP — Cormode et al.'s Filter-Priority publication of sparse data
//     (ICDT'12): thresholded noisy histogram → synthetic data → regression.
//
// All methods implement a single Method interface so the experiment harness
// can sweep them uniformly. Each writes its algorithm once, in Fit, keyed by
// the task-table row (core.TaskSpec) of the regression to train: FM and
// Truncated take the row's Task, and NoPrivacy and the synthetic-data
// baselines take its target rule. Every method expects data already under
// the record rule for that row (features in the unit sphere; target in
// [−1,1] for a normalized target, {0,1} for a boolean one).
package baseline

import (
	"math/rand"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/regression"
)

// Method is one fitting strategy under an ε budget. Non-private methods
// ignore eps. Implementations must be safe for concurrent use with distinct
// rng instances.
type Method interface {
	// Name is the label used in figures ("FM", "DPME", "FP", "NoPrivacy",
	// "Truncated").
	Name() string
	// Private reports whether the method consumes the privacy budget.
	Private() bool
	// Fit returns the weights of spec's model trained on ds.
	Fit(spec core.TaskSpec, ds *dataset.Dataset, eps float64, rng *rand.Rand) ([]float64, error)
}

// NoPrivacy is the exact, non-private solver.
type NoPrivacy struct{}

// Name implements Method.
func (NoPrivacy) Name() string { return "NoPrivacy" }

// Private implements Method.
func (NoPrivacy) Private() bool { return false }

// Fit implements Method. A boolean-target row is fitted by Newton-Raphson on
// the exact likelihood; any other row by minimizing the objective its task
// folds, which for linear regression is the closed-form least-squares
// solution: the minimizer of the §4.2 objective the functional mechanism
// perturbs.
func (NoPrivacy) Fit(spec core.TaskSpec, ds *dataset.Dataset, _ float64, _ *rand.Rand) ([]float64, error) {
	if spec.Target == core.TargetBoolean {
		m, err := regression.FitLogistic(ds)
		if err != nil {
			return nil, err
		}
		return m.Weights, nil
	}
	return regression.MinimizeExact(core.ParallelObjective(spec.Task, ds, 1), ds.N())
}

// Truncated minimizes the noise-free objective the functional mechanism
// perturbs: the §5.3 truncated objective for logistic regression. For linear
// regression no truncation exists (the objective is already a degree-2
// polynomial), so it coincides with NoPrivacy — the paper likewise omits
// Truncated from the linear plots.
type Truncated struct{}

// Name implements Method.
func (Truncated) Name() string { return "Truncated" }

// Private implements Method.
func (Truncated) Private() bool { return false }

// Fit implements Method.
func (Truncated) Fit(spec core.TaskSpec, ds *dataset.Dataset, _ float64, _ *rand.Rand) ([]float64, error) {
	return regression.MinimizeExact(core.ParallelObjective(spec.Task, ds, 1), ds.N())
}

// FM is the functional mechanism adapted to the Method interface.
type FM struct {
	// Options forwards to core.Run; the zero value is the paper's default
	// pipeline (regularization + spectral trimming).
	Options core.Options
}

// Name implements Method.
func (FM) Name() string { return "FM" }

// Private implements Method.
func (FM) Private() bool { return true }

// Fit implements Method via Algorithm 1 on the row's task (with Algorithm 2
// for logistic regression).
func (f FM) Fit(spec core.TaskSpec, ds *dataset.Dataset, eps float64, rng *rand.Rand) ([]float64, error) {
	res, err := core.Run(spec.Task, ds, eps, rng, f.Options)
	if err != nil {
		return nil, err
	}
	return res.Weights, nil
}

// fitOnSynthetic runs NoPrivacy on mechanism-generated synthetic data;
// shared by DPME and FP. An empty synthetic dataset (all noisy counts
// filtered or non-positive) carries no information, so it yields the zero
// model rather than an error — matching how the paper's plots keep these
// baselines defined at harsh budgets — and so does a solver failure.
func fitOnSynthetic(spec core.TaskSpec, syn *dataset.Dataset, d int) []float64 {
	if syn.N() == 0 {
		return make([]float64, d)
	}
	if spec.Target == core.TargetBoolean {
		// Cell centers land strictly inside (0,1); snap to booleans.
		syn = syn.BinarizeTarget(0.5)
	}
	w, err := NoPrivacy{}.Fit(spec, syn, 0, nil)
	if err != nil {
		return make([]float64, d)
	}
	return w
}
