package linalg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randomSPD(rng *rand.Rand, n int) *Matrix {
	// XᵀX + I with X an (n+2)×n Gaussian matrix is SPD almost surely.
	x := randomMatrix(rng, n+2, n)
	return x.T().Mul(x).AddDiagonal(1)
}

func TestNewMatrixFromRows(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected matrix %v", m)
	}
}

func TestNewMatrixFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewMatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMulVec(t *testing.T) {
	v := []float64{1, 2, 3}
	if got := Identity(3).MulVec(v); !EqualApprox(got, v, 0) {
		t.Fatalf("I·v = %v", got)
	}
}

func TestMul(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewMatrixFromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.EqualApproxMat(want, 1e-12) {
		t.Fatalf("Mul =\n%v want\n%v", got, want)
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 0) != 3 || at.At(0, 1) != 4 {
		t.Fatalf("T() wrong:\n%v", at)
	}
}

func TestAddDiagonal(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	m.AddDiagonal(10)
	if m.At(0, 0) != 11 || m.At(1, 1) != 14 || m.At(0, 1) != 2 {
		t.Fatalf("AddDiagonal wrong:\n%v", m)
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 4}, {2, 3}})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("Symmetrize wrong:\n%v", m)
	}
	if !m.IsSymmetric(0) {
		t.Fatal("Symmetrize did not produce a symmetric matrix")
	}
}

func TestQuadraticForm(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{2, 0}, {0, 3}})
	if got := m.QuadraticForm([]float64{1, 2}); got != 14 {
		t.Fatalf("QuadraticForm = %v, want 14", got)
	}
}

func TestRowIsView(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(0)[1] = 7
	if m.At(0, 1) != 7 {
		t.Fatal("Row must be a mutable view")
	}
}

func TestStringRendersAllRows(t *testing.T) {
	s := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}}).String()
	if !strings.Contains(s, "1") || !strings.Contains(s, "4") || strings.Count(s, "\n") != 2 {
		t.Fatalf("String output unexpected: %q", s)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestTransposeProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		return a.Mul(b).T().EqualApproxMat(b.T().Mul(a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gram matrices XᵀX are symmetric positive semi-definite.
func TestGramPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 1+rng.Intn(10), 1+rng.Intn(6)
		x := randomMatrix(rng, n, d)
		g := x.T().Mul(x)
		if !g.IsSymmetric(1e-10) {
			return false
		}
		w := make([]float64, d)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		return g.QuadraticForm(w) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVec distributes over vector addition.
func TestMulVecLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, m, n)
		u, v := make([]float64, n), make([]float64, n)
		for i := range u {
			u[i] = rng.NormFloat64()
			v[i] = rng.NormFloat64()
		}
		lhs := a.MulVec(Add(u, v))
		rhs := Add(a.MulVec(u), a.MulVec(v))
		return EqualApprox(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, -7}, {3, 4}})
	if got := m.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
}

func TestAllFiniteMat(t *testing.T) {
	m := NewMatrix(2, 2)
	if !m.AllFiniteMat() {
		t.Error("zero matrix reported non-finite")
	}
	m.Set(1, 1, math.NaN())
	if m.AllFiniteMat() {
		t.Error("NaN not detected")
	}
}

func TestAddScaledMatMatchesAddMat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomMatrix(rng, 4, 5)
	b := randomMatrix(rng, 4, 5)
	want := a.AddMat(b)
	got := a.Clone()
	if r := got.AddScaledMat(b, 1); r != got {
		t.Fatal("AddScaledMat must return its receiver")
	}
	if !got.EqualApproxMat(want, 0) {
		t.Fatal("AddScaledMat(b, 1) disagrees with AddMat")
	}
	scaled := a.Clone().AddScaledMat(b, -0.5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if want := a.At(i, j) - 0.5*b.At(i, j); scaled.At(i, j) != want {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, scaled.At(i, j), want)
			}
		}
	}
}

func TestAddScaledMatShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	NewMatrix(2, 2).AddScaledMat(NewMatrix(3, 3), 1)
}

func TestMirrorUpper(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := randomMatrix(rng, 5, 5)
	upper := m.Clone()
	mirrored := m.Clone().MirrorUpper()
	if !mirrored.IsSymmetric(0) {
		t.Fatal("MirrorUpper result not exactly symmetric")
	}
	for i := 0; i < 5; i++ {
		for j := i; j < 5; j++ {
			if mirrored.At(i, j) != upper.At(i, j) {
				t.Fatalf("upper entry (%d,%d) changed", i, j)
			}
		}
	}
}

func TestMirrorUpperNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-square matrix")
		}
	}()
	NewMatrix(2, 3).MirrorUpper()
}
