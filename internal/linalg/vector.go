// Package linalg provides the dense linear algebra needed by the
// functional mechanism: vectors, row-major matrices, an SPD Cholesky
// factorization, and a symmetric eigen-decomposition (Householder
// tridiagonalisation plus implicit QL).
//
// The package is self-contained (standard library only) and sized for the
// regime the paper operates in: model dimensionality d ≤ a few dozen, so
// O(d³) direct methods are always the right tool. All matrix inputs are
// validated and dimension mismatches panic, mirroring the behaviour of the
// built-in index checks: a mismatch is a programming error, not a runtime
// condition a caller can meaningfully handle.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation avoids overflow for extreme inputs.
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm1 returns the L1 norm of v.
func Norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the maximum absolute entry of v.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Add returns a+b as a new slice.
func Add(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Add dimension mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a−b as a new slice.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Sub dimension mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Scale returns c·v as a new slice.
func Scale(c float64, v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = c * x
	}
	return out
}

// AXPY adds c·x to y in place (y ← y + c·x).
func AXPY(c float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: AXPY dimension mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += c * v
	}
}

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// EqualApprox reports whether a and b have the same length and agree
// entrywise within tol.
func EqualApprox(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// AllFinite reports whether every entry of v is finite (no NaN or ±Inf).
func AllFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
