package regression

import (
	"errors"
	"fmt"
	"math"

	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
)

// LogisticLoss returns the cost of Definition 2 summed over ds:
// Σᵢ log(1+exp(xᵢᵀω)) − yᵢxᵢᵀω.
func LogisticLoss(ds *dataset.Dataset, w []float64) float64 {
	var s float64
	for i := 0; i < ds.N(); i++ {
		z := linalg.Dot(ds.Row(i), w)
		s += Log1pExp(z) - ds.Label(i)*z
	}
	return s
}

// LogisticGradient returns ∇ of LogisticLoss: Σᵢ (σ(xᵢᵀω) − yᵢ)·xᵢ.
func LogisticGradient(ds *dataset.Dataset, w []float64) []float64 {
	g := make([]float64, ds.D())
	for i := 0; i < ds.N(); i++ {
		row := ds.Row(i)
		c := Sigmoid(linalg.Dot(row, w)) - ds.Label(i)
		linalg.AXPY(c, row, g)
	}
	return g
}

// logisticHessian returns Σᵢ σᵢ(1−σᵢ)·xᵢxᵢᵀ.
func logisticHessian(ds *dataset.Dataset, w []float64) *linalg.Matrix {
	d := ds.D()
	h := linalg.NewMatrix(d, d)
	for i := 0; i < ds.N(); i++ {
		row := ds.Row(i)
		p := Sigmoid(linalg.Dot(row, w))
		c := p * (1 - p)
		if c == 0 {
			continue
		}
		for a := 0; a < d; a++ {
			va := c * row[a]
			if va == 0 {
				continue
			}
			hrow := h.Row(a)
			for b := 0; b < d; b++ {
				hrow[b] += va * row[b]
			}
		}
	}
	return h
}

// The Newton phase of FitLogistic: its iteration budget, and its stopping
// threshold on the gradient infinity norm per record.
const (
	maxNewtonIters = 50
	newtonTol      = 1e-8
)

// FitLogistic computes the maximum-likelihood logistic model — the
// NoPrivacy baseline for Definition 2 — by damped Newton–Raphson with an
// Armijo line search, falling back to gradient descent when the Hessian is
// (numerically) singular, e.g. on separable data. ds's labels must be 0 or
// 1, as the record rule's boolean labels and Dataset.BinarizeTarget make
// them.
func FitLogistic(ds *dataset.Dataset) (*LogisticModel, error) {
	if ds.N() == 0 {
		return nil, errors.New("regression: empty dataset")
	}
	tol := newtonTol * float64(ds.N())

	w := make([]float64, ds.D())
	loss := LogisticLoss(ds, w)
	for iter := 0; iter < maxNewtonIters; iter++ {
		g := LogisticGradient(ds, w)
		if linalg.NormInf(g) < tol {
			return &LogisticModel{Weights: w}, nil
		}
		h := logisticHessian(ds, w)
		// A whisper of Tikhonov keeps separable folds solvable.
		h.AddDiagonal(1e-10 * (1 + h.MaxAbs()))
		dir, err := linalg.SolveSPD(h, g)
		if err != nil {
			break // Hessian unusable: switch to gradient descent below.
		}
		step := 1.0
		gTd := linalg.Dot(g, dir)
		improved := false
		for ls := 0; ls < 40; ls++ {
			cand := linalg.CloneVec(w)
			linalg.AXPY(-step, dir, cand)
			lc := LogisticLoss(ds, cand)
			if lc <= loss-1e-4*step*gTd && !math.IsNaN(lc) {
				w, loss = cand, lc
				improved = true
				break
			}
			step /= 2
		}
		if !improved {
			return &LogisticModel{Weights: w}, nil
		}
	}
	// Gradient-descent fallback (or Newton budget exhausted near optimum).
	w, err := GradientDescent(
		func(w []float64) float64 { return LogisticLoss(ds, w) },
		func(w []float64) []float64 { return LogisticGradient(ds, w) },
		w,
		GDOptions{MaxIters: 300, Tol: tol, InitialStep: 1 / float64(ds.N())},
	)
	if err != nil && linalg.NormInf(LogisticGradient(ds, w)) > math.Sqrt(tol)*10 {
		return nil, fmt.Errorf("regression: logistic fit: %w", err)
	}
	return &LogisticModel{Weights: w}, nil
}
