package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrEigenNoConvergence is returned when the symmetric eigen-decomposition
// cannot produce a finite result: the input holds NaN or ±Inf, the QL
// iteration spends its cap on one eigenvalue, or an eigenvalue overflows once
// scaled back to the input's magnitude.
var ErrEigenNoConvergence = errors.New("linalg: symmetric eigen-decomposition did not converge")

// EigenDecomposition holds the spectral factorization of a symmetric matrix
// in the paper's §6.2 convention: A = Qᵀ·Λ·Q, where the *rows* of Q are the
// orthonormal eigenvectors and Λ = diag(Values). Values are sorted in
// descending order and Q's rows are permuted consistently.
type EigenDecomposition struct {
	// Values are the eigenvalues in descending order.
	Values []float64
	// Q has the eigenvectors as rows: A = Qᵀ diag(Values) Q and Q·Qᵀ = I.
	Q *Matrix
}

// qlMaxIter caps the QL sweeps spent on one eigenvalue, as LAPACK does.
const qlMaxIter = 30

// EigenSymmetric computes all eigenvalues and eigenvectors of the symmetric
// matrix a by Householder reduction to tridiagonal form followed by the
// implicit-shift QL iteration (tred2 and tql2; Golub–Van Loan §8.3). Only
// symmetry within a loose tolerance is required; the strictly symmetric
// average (a+aᵀ)/2 is factored. The input is not modified.
//
// The working copy is first scaled by a power of two so that its largest
// entry lies in [0.5, 1), and the eigenvalues are scaled back at the end.
// Power-of-two scaling changes no rounding, and it keeps the squares and
// products of entries both phases form clear of overflow and underflow at
// any input magnitude.
func EigenSymmetric(a *Matrix) (*EigenDecomposition, error) {
	if a.Rows() != a.Cols() {
		panic(fmt.Sprintf("linalg: EigenSymmetric on non-square %d×%d matrix", a.Rows(), a.Cols()))
	}
	n := a.Rows()
	q := a.Clone().Symmetrize()
	if !q.AllFiniteMat() {
		return nil, ErrEigenNoConvergence
	}
	maxAbs := q.MaxAbs()
	if maxAbs == 0 {
		// Zero matrix: all eigenvalues zero, eigenvectors the standard basis.
		return &EigenDecomposition{Values: make([]float64, n), Q: Identity(n)}, nil
	}
	_, exp := math.Frexp(maxAbs)
	for i, x := range q.data {
		q.data[i] = math.Ldexp(x, -exp)
	}

	d, e := make([]float64, n), make([]float64, n)
	tridiagonalize(q.data, d, e)
	if err := tridiagonalQL(q.data, d, e); err != nil {
		return nil, err
	}
	for i, v := range d {
		d[i] = math.Ldexp(v, exp)
	}
	if !AllFinite(d) || !q.AllFiniteMat() {
		return nil, ErrEigenNoConvergence
	}

	// Selection sort into descending order, permuting Q's rows with the
	// values.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] > d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			ri, rk := q.Row(i), q.Row(k)
			for j := range ri {
				ri[j], rk[j] = rk[j], ri[j]
			}
		}
	}
	return &EigenDecomposition{Values: d, Q: q}, nil
}

// tridiagonalize is tred2: it reduces the symmetric n×n matrix held
// row-major in u to tridiagonal form T = ZᵀAZ by Householder reflections,
// leaving T's diagonal in d, its subdiagonal in e[1:] (e[0] = 0), and Zᵀ in
// u, so that the rows of u are Z's columns.
//
// It is the textbook routine written on the transpose: every V[r][c] of the
// column-oriented original is u[c*n+r] here. The active matrix lives in the
// upper triangle and each Householder vector is stored in a row of the lower
// one, so every inner loop walks a row.
func tridiagonalize(u, d, e []float64) {
	n := len(d)
	for j := range d {
		d[j] = u[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 {
			// Row i is already zero left of the diagonal: no reflection.
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = u[j*n+i-1]
				u[j*n+i] = 0
				u[i*n+j] = 0
			}
			d[i] = 0
			continue
		}
		// Householder vector from row i, scaled by its 1-norm against
		// overflow and underflow in h.
		for k := range d[:i] {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])

		// e = A·v over the leading i×i block, stored v in row i.
		ui := u[i*n : i*n+i]
		for j := 0; j < i; j++ {
			f = d[j]
			ui[j] = f
			uj := u[j*n : j*n+i]
			g = e[j] + uj[j]*f
			for k := j + 1; k < i; k++ {
				g += uj[k] * d[k]
				e[k] += uj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := range e[:i] {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := range e[:i] {
			e[j] -= hh * d[j]
		}
		// Two-sided update A ← A − v·eᵀ − e·vᵀ on the upper triangle.
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			uj := u[j*n : j*n+i+1]
			for k := j; k < i; k++ {
				uj[k] -= f*e[k] + g*d[k]
			}
			d[j] = uj[i-1]
			uj[i] = 0
		}
		d[i] = h
	}

	// Accumulate the reflections into Zᵀ, row by row.
	for i := 0; i < n-1; i++ {
		ui := u[i*n : i*n+n]
		ui[n-1] = ui[i]
		ui[i] = 1
		v := u[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k, x := range v {
				d[k] = x / h
			}
			for j := 0; j <= i; j++ {
				uj := u[j*n : j*n+i+1]
				var g float64
				for k, x := range v {
					g += x * uj[k]
				}
				for k := range uj {
					uj[k] -= g * d[k]
				}
			}
		}
		clear(v)
	}
	for j := range d {
		d[j] = u[j*n+n-1]
		u[j*n+n-1] = 0
	}
	u[n*n-1] = 1
	e[0] = 0
}

// tridiagonalQL is tql2: it diagonalises the tridiagonal matrix (d, e) from
// tridiagonalize by implicit-shift QL sweeps, leaving the eigenvalues,
// unsorted, in d. Each plane rotation is applied to two rows of u, so u's
// rows become the eigenvectors. It returns ErrEigenNoConvergence when one
// eigenvalue takes more than qlMaxIter sweeps.
func tridiagonalQL(u, d, e []float64) error {
	n := len(d)
	copy(e, e[1:])
	e[n-1] = 0

	// An off-diagonal entry is negligible below one ulp of the tridiagonal's
	// largest |d|+|e|. Measuring against the whole matrix rather than the
	// rows seen so far bounds every e[l] the shift divides by away from
	// zero, so the shift cannot overflow.
	var tst1 float64
	for i, x := range d {
		tst1 = math.Max(tst1, math.Abs(x)+math.Abs(e[i]))
	}
	tiny := 0x1p-52 * tst1

	var f float64
	for l := 0; l < n; l++ {
		// Find the unreduced block d[l..m]; e[n-1] = 0 ends it at the last row.
		m := l
		for m < n-1 && math.Abs(e[m]) > tiny {
			m++
		}
		for iter := 0; math.Abs(e[l]) > tiny; iter++ {
			if iter == qlMaxIter {
				return ErrEigenNoConvergence
			}
			// Shift from the leading 2×2 block.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// One implicit QL sweep from m up to l.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				ui, ui1 := u[i*n:i*n+n], u[(i+1)*n:(i+1)*n+n]
				for k, x := range ui {
					y := ui1[k]
					ui1[k] = s*x + c*y
					ui[k] = c*x - s*y
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// Reconstruct returns QᵀΛQ, which should equal the factored matrix up to
// round-off. Exposed for testing and for the spectral-trimming code path.
func (e *EigenDecomposition) Reconstruct() *Matrix {
	n := len(e.Values)
	lam := NewMatrix(n, n)
	for i, v := range e.Values {
		lam.Set(i, i, v)
	}
	return e.Q.T().Mul(lam).Mul(e.Q)
}

// PositiveCount returns the number of strictly positive eigenvalues.
func (e *EigenDecomposition) PositiveCount() int {
	c := 0
	for _, v := range e.Values {
		if v > 0 {
			c++
		}
	}
	return c
}
