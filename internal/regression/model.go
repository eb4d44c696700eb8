// Package regression implements the regression machinery the paper builds
// on: the exact (non-private) solvers used by the NoPrivacy baseline, the
// quadratic minimizer the functional mechanism feeds its perturbed
// objectives to, and the two accuracy metrics of §7 (mean squared error for
// linear models, misclassification rate for logistic models).
package regression

import (
	"math"

	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
)

// LinearModel is the prediction function of Definition 1: ρ(x) = xᵀω.
type LinearModel struct {
	Weights []float64
}

// Predict returns xᵀω.
func (m *LinearModel) Predict(x []float64) float64 {
	return linalg.Dot(x, m.Weights)
}

// MSE returns the mean squared error (1/n)·Σ(yᵢ − xᵢᵀω)² over ds — the
// linear-regression accuracy metric of paper §7.
func (m *LinearModel) MSE(ds *dataset.Dataset) float64 {
	if ds.N() == 0 {
		return math.NaN()
	}
	var s float64
	for i := 0; i < ds.N(); i++ {
		r := ds.Label(i) - m.Predict(ds.Row(i))
		s += r * r
	}
	return s / float64(ds.N())
}

// LogisticModel is the prediction function of Definition 2:
// P(y=1 | x) = exp(xᵀω)/(1+exp(xᵀω)).
type LogisticModel struct {
	Weights []float64
}

// Probability returns P(y=1 | x).
func (m *LogisticModel) Probability(x []float64) float64 {
	return Sigmoid(linalg.Dot(x, m.Weights))
}

// Classify thresholds Probability at 1/2 (paper §7).
func (m *LogisticModel) Classify(x []float64) float64 {
	if m.Probability(x) > 0.5 {
		return 1
	}
	return 0
}

// MisclassificationRate returns the fraction of records in ds whose
// classification disagrees with the label — the logistic accuracy metric of
// paper §7.
func (m *LogisticModel) MisclassificationRate(ds *dataset.Dataset) float64 {
	if ds.N() == 0 {
		return math.NaN()
	}
	wrong := 0
	for i := 0; i < ds.N(); i++ {
		if m.Classify(ds.Row(i)) != ds.Label(i) {
			wrong++
		}
	}
	return float64(wrong) / float64(ds.N())
}

// Sigmoid returns 1/(1+e^{−z}) with saturation guards.
func Sigmoid(z float64) float64 {
	switch {
	case z >= 35:
		return 1
	case z <= -35:
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// Log1pExp returns log(1+eᶻ) without overflow.
func Log1pExp(z float64) float64 {
	switch {
	case z > 35:
		return z
	case z < -35:
		return math.Exp(z)
	}
	return math.Log1p(math.Exp(z))
}
