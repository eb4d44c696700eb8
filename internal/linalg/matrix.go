package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
//
// The zero value is not usable; construct with NewMatrix, Identity, or one of
// the factory helpers. Methods never alias their receiver with their result
// unless documented otherwise.
type Matrix struct {
	rows, cols int
	data       []float64 // len rows*cols, row-major
}

// NewMatrix returns a rows×cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: NewMatrix with non-positive shape %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFromRows builds a matrix from row slices, copying the data.
func NewMatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: NewMatrixFromRows with empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("linalg: ragged row %d: got %d entries, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the (i,j) entry.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the (i,j) entry.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// AddAt adds v to the (i,j) entry.
func (m *Matrix) AddAt(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice view into the matrix; mutating the slice
// mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %d×%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns m·b as a new matrix.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %d×%d by %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns m·v as a new vector.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %d×%d by %d", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.data[i*m.cols:(i+1)*m.cols], v)
	}
	return out
}

// AddMat returns m+b as a new matrix.
func (m *Matrix) AddMat(b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("linalg: AddMat shape mismatch %d×%d vs %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

// ScaleMat multiplies every entry by c in place and returns m.
func (m *Matrix) ScaleMat(c float64) *Matrix {
	for i := range m.data {
		m.data[i] *= c
	}
	return m
}

// AddDiagonal adds c to every main-diagonal entry in place and returns m.
// This is the regularization primitive of paper §6.1 (M* + λI).
func (m *Matrix) AddDiagonal(c float64) *Matrix {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] += c
	}
	return m
}

// AddScaledMat accumulates c·b into m in place and returns m. Unlike AddMat
// it allocates nothing, which matters on the mechanism's accumulation hot
// path where partial objectives are merged per shard.
func (m *Matrix) AddScaledMat(b *Matrix, c float64) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("linalg: AddScaledMat shape mismatch %d×%d vs %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	AXPY(c, b.data, m.data)
	return m
}

// mirrorBlock is the tile edge of the blocked MirrorUpper: a 32×32 tile of
// source rows plus the transposed destination tile is 2×8 KiB, so both stay
// L1-resident while every destination cache line is filled completely
// before eviction. The naive row-by-row mirror walks the destination with
// stride-d writes that, past d≈64, touch each destination line d times.
const mirrorBlock = 32

// MirrorUpper copies the strict upper triangle onto the lower triangle in
// place and returns m, so that a matrix accumulated upper-triangle-only
// becomes symmetric with a single O(d²) pass. m must be square. The copy is
// cache-blocked in mirrorBlock×mirrorBlock tiles; as a pure entry-for-entry
// copy its results are identical to the naive pass in any order.
func (m *Matrix) MirrorUpper() *Matrix {
	if m.rows != m.cols {
		panic(fmt.Sprintf("linalg: MirrorUpper on non-square %d×%d matrix", m.rows, m.cols))
	}
	n := m.rows
	for ib := 0; ib < n; ib += mirrorBlock {
		imax := ib + mirrorBlock
		if imax > n {
			imax = n
		}
		for jb := ib; jb < n; jb += mirrorBlock {
			jmax := jb + mirrorBlock
			if jmax > n {
				jmax = n
			}
			for i := ib; i < imax; i++ {
				j0 := jb
				if j0 < i+1 {
					j0 = i + 1
				}
				row := m.data[i*n : (i+1)*n]
				for j := j0; j < jmax; j++ {
					m.data[j*n+i] = row[j]
				}
			}
		}
	}
	return m
}

// Symmetrize overwrites m with (m+mᵀ)/2 in place and returns m.
// m must be square.
func (m *Matrix) Symmetrize() *Matrix {
	if m.rows != m.cols {
		panic(fmt.Sprintf("linalg: Symmetrize on non-square %d×%d matrix", m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			v := (m.data[i*m.cols+j] + m.data[j*m.cols+i]) / 2
			m.data[i*m.cols+j] = v
			m.data[j*m.cols+i] = v
		}
	}
	return m
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// QuadraticForm returns ωᵀ·m·ω for a square m.
func (m *Matrix) QuadraticForm(w []float64) float64 {
	return Dot(w, m.MulVec(w))
}

// MaxAbs returns the largest absolute entry of m.
func (m *Matrix) MaxAbs() float64 {
	var v float64
	for _, x := range m.data {
		if a := math.Abs(x); a > v {
			v = a
		}
	}
	return v
}

// AllFiniteMat reports whether every entry of m is finite.
func (m *Matrix) AllFiniteMat() bool { return AllFinite(m.data) }

// EqualApproxMat reports whether m and b have the same shape and agree
// entrywise within tol.
func (m *Matrix) EqualApproxMat(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	return EqualApprox(m.data, b.data, tol)
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%.6g", m.data[i*m.cols+j])
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}
