package funcmech

import (
	"funcmech/internal/core"
	"funcmech/internal/regression"
)

// LinearRegression fits an ε-differentially private linear regression with
// the functional mechanism (paper §4): FitTask for the "linear" task. With
// WithRidge it fits the penalized objective.
func LinearRegression(ds *Dataset, epsilon float64, opts ...Option) (*TaskModel, *Report, error) {
	return FitTask(ds, core.TaskNameLinear, epsilon, opts...)
}

// LinearRegressionExact fits the non-private least-squares model on the same
// normalized representation — the NoPrivacy baseline, useful for measuring
// the privacy cost on your own data. With WithRidge it minimizes the same
// penalized objective LinearRegression perturbs.
func LinearRegressionExact(ds *Dataset, opts ...Option) (*TaskModel, error) {
	r, err := resolveFit(ds, core.TaskNameLinear, opts)
	if err != nil {
		return nil, err
	}
	norm, err := r.trainingCopy()
	if err != nil {
		return nil, err
	}
	w, err := regression.MinimizeExact(core.ParallelObjective(r.task, norm, 1), norm.N())
	if err != nil {
		return nil, err
	}
	return r.model(w), nil
}
