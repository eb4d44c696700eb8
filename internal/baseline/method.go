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
// can sweep them uniformly, and all expect pre-normalized data (features in
// the unit sphere; target in [−1,1] for linear, {0,1} for logistic).
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
	// FitLinear returns linear-model weights trained on ds.
	FitLinear(ds *dataset.Dataset, eps float64, rng *rand.Rand) ([]float64, error)
	// FitLogistic returns logistic-model weights trained on ds.
	FitLogistic(ds *dataset.Dataset, eps float64, rng *rand.Rand) ([]float64, error)
}

// NoPrivacy is the exact, non-private solver pair.
type NoPrivacy struct{}

// Name implements Method.
func (NoPrivacy) Name() string { return "NoPrivacy" }

// Private implements Method.
func (NoPrivacy) Private() bool { return false }

// FitLinear implements Method via the closed-form least-squares solution:
// the minimizer of the §4.2 objective the functional mechanism perturbs.
func (NoPrivacy) FitLinear(ds *dataset.Dataset, _ float64, _ *rand.Rand) ([]float64, error) {
	return regression.MinimizeExact(core.ParallelObjective(core.LinearTask{}, ds, 1), ds.N())
}

// FitLogistic implements Method via Newton-Raphson on the exact likelihood.
func (NoPrivacy) FitLogistic(ds *dataset.Dataset, _ float64, _ *rand.Rand) ([]float64, error) {
	m, err := regression.FitLogistic(ds)
	if err != nil {
		return nil, err
	}
	return m.Weights, nil
}

// Truncated minimizes the noise-free Algorithm 2 objective. For linear
// regression no truncation exists (the objective is already a degree-2
// polynomial), so it coincides with NoPrivacy — the paper likewise omits
// Truncated from the linear plots.
type Truncated struct{}

// Name implements Method.
func (Truncated) Name() string { return "Truncated" }

// Private implements Method.
func (Truncated) Private() bool { return false }

// FitLinear implements Method; identical to NoPrivacy for linear tasks.
func (Truncated) FitLinear(ds *dataset.Dataset, eps float64, rng *rand.Rand) ([]float64, error) {
	return NoPrivacy{}.FitLinear(ds, eps, rng)
}

// FitLogistic minimizes the §5.3 truncated objective without perturbation.
func (Truncated) FitLogistic(ds *dataset.Dataset, _ float64, _ *rand.Rand) ([]float64, error) {
	return regression.MinimizeExact(core.ParallelObjective(core.LogisticTask{}, ds, 1), ds.N())
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

// FitLinear implements Method via Algorithm 1 on the exact linear objective.
func (f FM) FitLinear(ds *dataset.Dataset, eps float64, rng *rand.Rand) ([]float64, error) {
	res, err := core.Run(core.LinearTask{}, ds, eps, rng, f.Options)
	if err != nil {
		return nil, err
	}
	return res.Weights, nil
}

// FitLogistic implements Method via Algorithms 1+2.
func (f FM) FitLogistic(ds *dataset.Dataset, eps float64, rng *rand.Rand) ([]float64, error) {
	res, err := core.Run(core.LogisticTask{}, ds, eps, rng, f.Options)
	if err != nil {
		return nil, err
	}
	return res.Weights, nil
}

// fitOnSynthetic runs the non-private solvers on mechanism-generated
// synthetic data; shared by DPME and FP. An empty synthetic dataset (all
// noisy counts filtered or non-positive) carries no information, so the
// zero model is returned rather than an error — matching how the paper's
// plots keep these baselines defined at harsh budgets.
func fitOnSynthetic(syn *dataset.Dataset, d int, logistic bool) ([]float64, error) {
	if syn.N() == 0 {
		return make([]float64, d), nil
	}
	if logistic {
		// Cell centers land strictly inside (0,1); snap to booleans.
		bin := syn.BinarizeTarget(0.5)
		m, err := regression.FitLogistic(bin)
		if err != nil {
			return make([]float64, d), nil
		}
		return m.Weights, nil
	}
	w, err := NoPrivacy{}.FitLinear(syn, 0, nil)
	if err != nil {
		return make([]float64, d), nil
	}
	return w, nil
}
