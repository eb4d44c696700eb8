package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt2]].
	a := NewMatrixFromRows([][]float64{{4, 2}, {2, 3}})
	c, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	if math.Abs(l.At(0, 0)-2) > 1e-12 || math.Abs(l.At(1, 0)-1) > 1e-12 ||
		math.Abs(l.At(1, 1)-math.Sqrt2) > 1e-12 || l.At(0, 1) != 0 {
		t.Fatalf("L wrong:\n%v", l)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyRejectsNaN(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{math.NaN(), 0}, {0, 1}})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("NaN matrix must not factor")
	}
}

func TestCholeskySolve(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{4, 2}, {2, 3}})
	b := []float64{10, 9}
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(a.MulVec(x), b, 1e-10) {
		t.Fatalf("A·x = %v, want %v", a.MulVec(x), b)
	}
}

// Property: reconstruction L·Lᵀ = A for random SPD matrices.
func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		c, err := Cholesky(a)
		if err != nil {
			return false
		}
		l := c.L()
		return l.Mul(l.T()).EqualApproxMat(a, 1e-8*math.Max(1, a.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// blockFactor assembles the Cholesky factor of a from its 2×2 partition at
// k, with Cholesky applied only to the two diagonal blocks: L11 factors
// A11, L21 = A21·L11⁻ᵀ by forward substitution, and L22 factors the Schur
// complement A22 − L21·L21ᵀ.
func blockFactor(a *Matrix, k int) (*Matrix, error) {
	n := a.Rows()
	a11 := NewMatrix(k, k)
	for i := 0; i < k; i++ {
		copy(a11.Row(i), a.Row(i)[:k])
	}
	c11, err := Cholesky(a11)
	if err != nil {
		return nil, err
	}
	l11 := c11.L()
	l := NewMatrix(n, n)
	for i := 0; i < k; i++ {
		copy(l.Row(i), l11.Row(i))
	}
	for i := k; i < n; i++ {
		li := l.Row(i)
		for j := 0; j < k; j++ {
			s := a.At(i, j)
			for p := 0; p < j; p++ {
				s -= li[p] * l11.At(j, p)
			}
			li[j] = s / l11.At(j, j)
		}
	}
	schur := NewMatrix(n-k, n-k)
	for i := k; i < n; i++ {
		for j := k; j <= i; j++ {
			s := a.At(i, j) - Dot(l.Row(i)[:k], l.Row(j)[:k])
			schur.Set(i-k, j-k, s)
			schur.Set(j-k, i-k, s)
		}
	}
	c22, err := Cholesky(schur)
	if err != nil {
		return nil, err
	}
	l22 := c22.L()
	for i := k; i < n; i++ {
		copy(l.Row(i)[k:], l22.Row(i-k))
	}
	return l, nil
}

// TestCholeskyBlockedAgreesWithUnblocked: the factor assembled block by
// block (blockFactor, split at n/2) rounds differently from the one-pass
// loop but must agree with it to numerical tolerance, and both must
// reconstruct A, at small orders and at orders around and beyond the
// widest solve a release makes (63×63).
func TestCholeskyBlockedAgreesWithUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{5, 31, 32, 33, 63, 64, 65, 96, 127, 130} {
		a := randomSPD(rng, n)
		c, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		bl, err := blockFactor(a, n/2)
		if err != nil {
			t.Fatalf("n=%d blocked: %v", n, err)
		}
		scale := math.Max(1, a.MaxAbs())
		l := c.L()
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				du, db := l.At(i, j), bl.At(i, j)
				if math.Abs(du-db) > 1e-9*scale {
					t.Fatalf("n=%d L[%d,%d]: one-pass %g vs blocked %g", n, i, j, du, db)
				}
			}
		}
		if !l.Mul(l.T()).EqualApproxMat(a, 1e-8*scale) {
			t.Fatalf("n=%d: L·Lᵀ does not reconstruct A", n)
		}
		if !bl.Mul(bl.T()).EqualApproxMat(a, 1e-8*scale) {
			t.Fatalf("n=%d: blocked L·Lᵀ does not reconstruct A", n)
		}
	}
}

// TestCholeskyBlockedRejectsIndefinite: a non-positive pivot in the last
// column of a 69×69 matrix, after every earlier column has factored, is
// reported as ErrNotPositiveDefinite, not factored into garbage — whether
// the pivot is negative on A's diagonal or only after the earlier columns'
// update.
func TestCholeskyBlockedRejectsIndefinite(t *testing.T) {
	const n = 69
	lastPivot := Identity(n)
	lastPivot.Set(n-1, n-1, -1)
	// Every diagonal entry is 1, but the coupling a[n-1][0] = 2 leaves the
	// last pivot at 1 − 2² = −3 once column 0 is subtracted.
	coupled := Identity(n)
	coupled.Set(n-1, 0, 2)
	coupled.Set(0, n-1, 2)
	for name, a := range map[string]*Matrix{"last pivot -1": lastPivot, "coupled": coupled} {
		if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("%s: err = %v, want ErrNotPositiveDefinite", name, err)
		}
	}
}

// Property: Solve is a right inverse, A·Solve(b) = b.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		return EqualApprox(a.MulVec(x), b, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveIntoMatchesSolve: SolveInto is the allocation-free core of Solve —
// same bits, including when dst aliases b.
func TestSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 14, 63, 64, 100} {
		a := randomSPD(rng, n)
		c, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := c.Solve(b)

		dst := make([]float64, n)
		got := c.SolveInto(dst, b)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("n=%d x[%d]: Solve %g vs SolveInto %g", n, i, want[i], got[i])
			}
		}

		// Aliased: solve in place over a copy of b.
		alias := append([]float64(nil), b...)
		c.SolveInto(alias, alias)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(alias[i]) {
				t.Fatalf("n=%d x[%d]: aliased SolveInto diverged: %g vs %g", n, i, want[i], alias[i])
			}
		}
	}
}

// TestSolveIntoNoAlloc backs the //fm:noalloc annotation at runtime.
func TestSolveIntoNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 32
	c, err := Cholesky(randomSPD(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	dst := make([]float64, n)
	allocs := testing.AllocsPerRun(10, func() {
		c.SolveInto(dst, b)
	})
	if allocs != 0 {
		t.Errorf("SolveInto: %v allocs/op, want 0", allocs)
	}
}
