package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix has a
// non-positive pivot, i.e. it is not (numerically) symmetric positive
// definite. The functional mechanism hits this case whenever Laplace noise
// pushes the quadratic coefficient matrix out of the SPD cone; paper §6
// handles it with regularization and spectral trimming.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// CholeskyDecomposition holds the lower-triangular factor L with A = L·Lᵀ.
type CholeskyDecomposition struct {
	l *Matrix
	n int
}

// Cholesky factors the symmetric positive definite matrix a with the
// left-looking loop, on row slices. Only the lower triangle of a is read. It
// returns ErrNotPositiveDefinite when a pivot is not strictly positive.
func Cholesky(a *Matrix) (*CholeskyDecomposition, error) {
	if a.Rows() != a.Cols() {
		panic(fmt.Sprintf("linalg: Cholesky on non-square %d×%d matrix", a.Rows(), a.Cols()))
	}
	n := a.Rows()
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		lj := l.Row(j)
		d := a.At(j, j)
		for _, ljk := range lj[:j] {
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		diag := math.Sqrt(d)
		lj[j] = diag
		for i := j + 1; i < n; i++ {
			li := l.Row(i)
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / diag
		}
	}
	return &CholeskyDecomposition{l: l, n: n}, nil
}

// L returns a copy of the lower-triangular factor.
func (c *CholeskyDecomposition) L() *Matrix { return c.l.Clone() }

// Solve returns x with A·x = b using forward/back substitution.
func (c *CholeskyDecomposition) Solve(b []float64) []float64 {
	return c.SolveInto(make([]float64, c.n), b)
}

// SolveInto solves A·x = b into the caller-provided dst (len n) and returns
// dst, allocating nothing: the forward substitution writes y into dst and
// the back substitution then runs in place. dst[i] is only overwritten
// after b[i] is consumed and y[i] after it is consumed, so dst == b is
// allowed; the results are bit-identical to the historical two-buffer
// implementation either way.
//
//fm:noalloc
func (c *CholeskyDecomposition) SolveInto(dst, b []float64) []float64 {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("linalg: Cholesky solve dimension mismatch dst=%d b=%d vs %d", len(dst), len(b), c.n))
	}
	// Forward: L·y = b, y materialized in dst.
	for i := 0; i < c.n; i++ {
		li := c.l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= li[k] * dst[k]
		}
		dst[i] = s / li[i]
	}
	// Back: Lᵀ·x = y, in place — dst[k] for k > i already holds x[k].
	data := c.l.data
	for i := c.n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < c.n; k++ {
			s -= data[k*c.n+i] * dst[k]
		}
		dst[i] = s / data[i*c.n+i]
	}
	return dst
}

// SolveSPD solves A·x = b for symmetric positive definite A via Cholesky.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	c, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return c.Solve(b), nil
}
