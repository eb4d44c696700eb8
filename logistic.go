package funcmech

import (
	"funcmech/internal/core"
	"funcmech/internal/regression"
)

// LogisticRegression fits an ε-differentially private logistic regression
// with the functional mechanism and the order-2 Taylor approximation of the
// paper's Algorithm 2 (§5): FitTask for the "logistic" task. The target must
// be 0/1, or supply WithBinarizeThreshold to derive it.
func LogisticRegression(ds *Dataset, epsilon float64, opts ...Option) (*TaskModel, *Report, error) {
	return FitTask(ds, core.TaskNameLogistic, epsilon, opts...)
}

// LogisticRegressionExact fits the non-private maximum-likelihood model on
// the same normalized representation — the NoPrivacy baseline.
func LogisticRegressionExact(ds *Dataset, opts ...Option) (*TaskModel, error) {
	r, err := resolveFit(ds, core.TaskNameLogistic, opts)
	if err != nil {
		return nil, err
	}
	norm, err := r.trainingCopy()
	if err != nil {
		return nil, err
	}
	fit, err := regression.FitLogistic(norm)
	if err != nil {
		return nil, err
	}
	return r.model(fit.Weights), nil
}
