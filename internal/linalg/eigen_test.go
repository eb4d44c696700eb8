package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := NewMatrixFromRows([][]float64{{2, 1}, {1, 2}})
	e, err := EigenSymmetric(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-3) > 1e-10 || math.Abs(e.Values[1]-1) > 1e-10 {
		t.Fatalf("Values = %v, want [3 1]", e.Values)
	}
}

func TestEigenDiagonal(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 1}})
	e, err := EigenSymmetric(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 1, -2} // descending
	if !EqualApprox(e.Values, want, 1e-12) {
		t.Fatalf("Values = %v, want %v", e.Values, want)
	}
}

func TestEigenZeroMatrix(t *testing.T) {
	e, err := EigenSymmetric(NewMatrix(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(e.Values, []float64{0, 0, 0}, 0) {
		t.Fatalf("Values = %v, want zeros", e.Values)
	}
	if !e.Q.Mul(e.Q.T()).EqualApproxMat(Identity(3), 1e-12) {
		t.Fatal("Q not orthonormal for zero matrix")
	}
}

func TestEigenRejectsNaN(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := NewMatrixFromRows([][]float64{{bad, 0}, {0, 1}})
		if _, err := EigenSymmetric(a); !errors.Is(err, ErrEigenNoConvergence) {
			t.Fatalf("input entry %v: err = %v, want ErrEigenNoConvergence", bad, err)
		}
	}
	// Every entry is finite, but the all-ones pattern's eigenvalue
	// 3·MaxFloat64/2 is not: a typed error, never NaN or ±Inf values.
	h := math.MaxFloat64 / 2
	a := NewMatrixFromRows([][]float64{{h, h, h}, {h, h, h}, {h, h, h}})
	if e, err := EigenSymmetric(a); e != nil || !errors.Is(err, ErrEigenNoConvergence) {
		t.Fatalf("entries MaxFloat64/2: %+v, %v; want ErrEigenNoConvergence and no values", e, err)
	}
}

// TestEigenExtremeScales factors b·[[1,1,−1],[1,−1,1],[−1,1,1]], whose
// eigenvalues are (2, 1, −2)·b. Squares of the entries underflow to zero at
// b = 1e-300 and overflow at b = 1e300, so a convergence test that sums
// squared entries fails at both ends.
func TestEigenExtremeScales(t *testing.T) {
	for _, b := range []float64{1e-300, 1e-160, 1, 1e300} {
		a := NewMatrixFromRows([][]float64{{b, b, -b}, {b, -b, b}, {-b, b, b}})
		e, err := EigenSymmetric(a)
		if err != nil {
			t.Fatalf("b = %g: %v", b, err)
		}
		want := []float64{2 * b, b, -2 * b}
		if !EqualApprox(e.Values, want, 1e-12*2*b) {
			t.Fatalf("b = %g: Values = %v, want %v", b, e.Values, want)
		}
		checkEigenContract(t, a, e, 1e-12)
	}
}

func TestEigenValuesSortedDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 6)
	e, err := EigenSymmetric(a)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(e.Values))) {
		t.Fatalf("Values not descending: %v", e.Values)
	}
}

func TestPositiveCount(t *testing.T) {
	e := &EigenDecomposition{Values: []float64{2, 0.5, 0, -1}}
	if got := e.PositiveCount(); got != 2 {
		t.Fatalf("PositiveCount = %d, want 2", got)
	}
}

// checkEigenProperty runs prop on 100 quick-drawn seeds with n ≤ 8, then on
// three seeds at each size production factors: the census fit's d = 14, the
// d = 63 refit and its 64-wide stream, and twice that.
func checkEigenProperty(t *testing.T, prop func(rng *rand.Rand, n int) bool) {
	t.Helper()
	small := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return prop(rng, 1+rng.Intn(8))
	}
	if err := quick.Check(small, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{14, 63, 64, 128} {
		for seed := int64(1); seed <= 3; seed++ {
			if !prop(rand.New(rand.NewSource(seed)), n) {
				t.Fatalf("property fails at n = %d, seed %d", n, seed)
			}
		}
	}
}

// Property: reconstruction QᵀΛQ = A (the §6.2 convention) on random
// symmetric matrices.
func TestEigenReconstructionProperty(t *testing.T) {
	checkEigenProperty(t, func(rng *rand.Rand, n int) bool {
		a := randomMatrix(rng, n, n).Symmetrize()
		e, err := EigenSymmetric(a)
		if err != nil {
			return false
		}
		tol := 1e-8 * math.Max(1, a.MaxAbs())
		return e.Reconstruct().EqualApproxMat(a, tol)
	})
}

// Property: Q is orthonormal, Q·Qᵀ = I.
func TestEigenOrthonormalProperty(t *testing.T) {
	checkEigenProperty(t, func(rng *rand.Rand, n int) bool {
		a := randomMatrix(rng, n, n).Symmetrize()
		e, err := EigenSymmetric(a)
		if err != nil {
			return false
		}
		return e.Q.Mul(e.Q.T()).EqualApproxMat(Identity(n), 1e-9)
	})
}

// Property: eigenvalues of SPD matrices are strictly positive and their sum
// equals the trace.
func TestEigenSPDTraceProperty(t *testing.T) {
	checkEigenProperty(t, func(rng *rand.Rand, n int) bool {
		a := randomSPD(rng, n)
		e, err := EigenSymmetric(a)
		if err != nil {
			return false
		}
		var sum, trace float64
		for i, v := range e.Values {
			if v <= 0 {
				return false
			}
			sum += v
			trace += a.At(i, i)
		}
		return math.Abs(sum-trace) < 1e-7*math.Max(1, math.Abs(trace))
	})
}

// Property: A·qᵢ = λᵢ·qᵢ for every eigenpair.
func TestEigenPairsProperty(t *testing.T) {
	checkEigenProperty(t, func(rng *rand.Rand, n int) bool {
		a := randomMatrix(rng, n, n).Symmetrize()
		e, err := EigenSymmetric(a)
		if err != nil {
			return false
		}
		tol := 1e-8 * math.Max(1, a.MaxAbs())
		for i := 0; i < n; i++ {
			q := e.Q.Row(i)
			if !EqualApprox(a.MulVec(q), Scale(e.Values[i], q), tol) {
				return false
			}
		}
		return true
	})
}

// TestEigenAgreesWithJacobi compares EigenSymmetric's eigenvalues with the
// Jacobi reference's on random matrices up to n = 128 and on the spectra
// that stress a QL solver: repeated eigenvalues, exact zero rows, a wide
// range of magnitudes, and input that is already diagonal or tridiagonal.
func TestEigenAgreesWithJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type eigenCase struct {
		name string
		a    *Matrix
	}
	var cases []eigenCase
	for _, n := range []int{1, 2, 3, 7, 14, 33, 64, 128} {
		cases = append(cases, eigenCase{fmt.Sprintf("random/n=%d", n), randomMatrix(rng, n, n).Symmetrize()})
	}
	for _, n := range []int{14, 63} {
		// Three eigenvalues of multiplicity 3 each, among random ones.
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		copy(vals, []float64{2.5, 2.5, 2.5, 0, 0, 0, -1, -1, -1})
		cases = append(cases, eigenCase{fmt.Sprintf("repeated/n=%d", n), withSpectrum(rng, vals)})

		// X·Xᵀ with X n×(n/3): rank n/3, and every fourth row of X zero, so
		// the product has exact zero rows and columns.
		x := randomMatrix(rng, n, n/3)
		for i := 0; i < n; i += 4 {
			clear(x.Row(i))
		}
		cases = append(cases, eigenCase{fmt.Sprintf("rank-deficient/n=%d", n), x.Mul(x.T())})

		// Magnitudes log-uniform over [1e-8, 1e7], random signs.
		for i := range vals {
			vals[i] = math.Copysign(math.Pow(10, -8+15*rng.Float64()), rng.NormFloat64())
		}
		cases = append(cases, eigenCase{fmt.Sprintf("wide-range/n=%d", n), withSpectrum(rng, vals)})

		diag, tri := NewMatrix(n, n), NewMatrix(n, n)
		for i := 0; i < n; i++ {
			diag.Set(i, i, float64(rng.Intn(5)-2)) // repeats and exact zeros
			tri.Set(i, i, rng.NormFloat64())
			if i > 0 {
				v := rng.NormFloat64()
				tri.Set(i, i-1, v)
				tri.Set(i-1, i, v)
			}
		}
		cases = append(cases, eigenCase{fmt.Sprintf("diagonal/n=%d", n), diag})
		cases = append(cases, eigenCase{fmt.Sprintf("tridiagonal/n=%d", n), tri})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := EigenSymmetric(c.a)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := jacobiEigen(c.a)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			tol := 1e-10 * math.Max(1, c.a.MaxAbs())
			for i, v := range got.Values {
				if d := math.Abs(v - ref.Values[i]); d > tol {
					t.Fatalf("λ[%d] = %v, reference %v: |Δ| = %g > %g", i, v, ref.Values[i], d, tol)
				}
			}
			checkEigenContract(t, c.a, got, 1e-12)
		})
	}
}

// TestTrimProjectionAgreesWithJacobi applies §6.2's kept-eigenspace solution
// ω = Σ_{λᵢ>0} −(qᵢᵀα)/(2λᵢ)·qᵢ to noisy d = 63 linear objectives shaped like
// a refit of the 64-wide stream, with both decompositions. ω depends on
// neither eigenvector signs nor the basis chosen inside an eigenspace, so the
// two must agree.
func TestTrimProjectionAgreesWithJacobi(t *testing.T) {
	const (
		d       = 63
		records = 65536
		epsilon = 0.8
		trials  = 10
	)
	rng := rand.New(rand.NewSource(63))

	// The data fold: M = Σ xxᵀ and α = −2 Σ y·x over records with features
	// in [−1/√d, 1/√d] and a noisy linear target in [−1, 1].
	coef := make([]float64, d)
	for j := range coef {
		coef[j] = rng.NormFloat64()
	}
	m, alpha := NewMatrix(d, d), make([]float64, d)
	const chunk = 4096
	x := NewMatrix(chunk, d)
	for done := 0; done < records; done += chunk {
		for r := 0; r < chunk; r++ {
			row := x.Row(r)
			var z float64
			for j := range row {
				row[j] = (2*rng.Float64() - 1) / math.Sqrt(d)
				z += coef[j] * row[j]
			}
			y := math.Max(-1, math.Min(1, math.Tanh(z)+0.2*rng.NormFloat64()))
			AXPY(-2*y, row, alpha)
		}
		m.AddScaledMat(x.T().Mul(x), 1)
	}

	// Lap(Δ/ε) per monomial with the linear task's Δ = 2(d+1)², cross terms
	// split across the mirrored entries, then ridge λ = 4·sd.
	b := 2 * (d + 1) * (d + 1) / epsilon
	lap := func() float64 { return b * (rng.ExpFloat64() - rng.ExpFloat64()) }
	lambda := 4 * math.Sqrt2 * b
	for trial := 0; trial < trials; trial++ {
		noisy, a := m.Clone(), CloneVec(alpha)
		for j := 0; j < d; j++ {
			a[j] += lap()
			noisy.AddAt(j, j, lap()+lambda)
			for k := j + 1; k < d; k++ {
				eta := lap() / 2
				noisy.AddAt(j, k, eta)
				noisy.AddAt(k, j, eta)
			}
		}
		got, err := EigenSymmetric(noisy)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := jacobiEigen(noisy)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		w, kept := trimProject(got, a)
		wRef, keptRef := trimProject(ref, a)
		if kept != keptRef {
			t.Fatalf("trial %d: %d positive eigenvalues, reference %d", trial, kept, keptRef)
		}
		if kept == d {
			t.Fatalf("trial %d: nothing trimmed; the objective is not refit-shaped", trial)
		}
		norm := Norm2(wRef)
		if diff := Norm2(Sub(w, wRef)); diff > 1e-10*math.Max(1, norm) {
			t.Fatalf("trial %d: ‖Δω‖ = %g with ‖ω‖ = %g", trial, diff, norm)
		}
	}
}

// trimProject is §6.2's minimiser over the kept eigenspace:
// ω = Σ_{λᵢ>0} −(qᵢᵀα)/(2λᵢ)·qᵢ. It returns ω and the number of kept
// eigenvalues.
func trimProject(e *EigenDecomposition, alpha []float64) ([]float64, int) {
	w := make([]float64, len(alpha))
	kept := e.PositiveCount()
	for i := 0; i < kept; i++ {
		q := e.Q.Row(i)
		AXPY(-Dot(q, alpha)/(2*e.Values[i]), q, w)
	}
	return w, kept
}

// FuzzEigenSymmetric decodes bytes into a finite symmetric matrix with
// n ≤ 16 and entries from subnormal to near overflow. EigenSymmetric must
// not panic, may fail only when an eigenvalue could overflow, and otherwise
// must meet its contract and agree with the Jacobi reference.
func FuzzEigenSymmetric(f *testing.F) {
	// TestEigenExtremeScales' matrix, ½·2^shared·[[1,1,−1],[1,−1,1],[−1,1,1]],
	// at shared exponents 0, −1000 and 1016.
	bMatrix := []byte{0, 0x40, 48, 0, 0x40, 48, 0, 0xc0, 48, 0, 0xc0, 48, 0, 0x40, 48, 0, 0x40, 48}
	for _, shared := range []byte{0, 0x83, 0x7f} {
		f.Add(append([]byte{2, shared}, bMatrix...))
	}
	f.Add(append([]byte{15, 0}, make([]byte, 3*136)...)) // n = 16, zero
	random := make([]byte, 2+3*136)
	rand.New(rand.NewSource(1)).Read(random)
	random[0] = 15
	f.Add(random)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		a := decodeSymmetric(data)
		n := a.Rows()
		e, err := EigenSymmetric(a)
		if err != nil {
			// |λ| ≤ n·max|aᵢⱼ|, so below that bound every eigenvalue is
			// representable and an error is a defect.
			if !errors.Is(err, ErrEigenNoConvergence) || float64(n)*a.MaxAbs() <= math.MaxFloat64/4 {
				t.Fatalf("n = %d, max |a| = %g: %v", n, a.MaxAbs(), err)
			}
			return
		}
		checkEigenContract(t, a, e, 1e-9)

		// The reference runs on a power-of-two-scaled copy, because its
		// convergence test sums squared entries (see TestEigenExtremeScales).
		maxAbs := a.MaxAbs()
		if maxAbs == 0 {
			return
		}
		_, exp := math.Frexp(maxAbs)
		scaled := a.Clone()
		for i := range scaled.data {
			scaled.data[i] = math.Ldexp(scaled.data[i], -exp)
		}
		ref, err := jacobiEigen(scaled)
		if err != nil {
			return
		}
		tol := 1e-9*maxAbs + float64(n)*math.SmallestNonzeroFloat64
		for i, v := range e.Values {
			if d := math.Abs(v - math.Ldexp(ref.Values[i], exp)); d > tol {
				t.Fatalf("λ[%d] = %v, reference %v: |Δ| = %g > %g", i, v, math.Ldexp(ref.Values[i], exp), d, tol)
			}
		}
	})
}

// decodeSymmetric reads n = 1 + data[0]%16, a shared exponent from data[1],
// and the upper triangle from 3-byte entries: a 16-bit mantissa and an
// 8-bit exponent offset. Missing entries are zero; an entry that overflows
// is zero too, so the matrix is always finite.
func decodeSymmetric(data []byte) *Matrix {
	n := 1 + int(data[0])%16
	shared := 8 * int(int8(data[1]))
	a := NewMatrix(n, n)
	rest := data[2:]
	for i := 0; i < n; i++ {
		for j := i; j < n && len(rest) >= 3; j++ {
			mant := float64(int16(binary.LittleEndian.Uint16(rest))) / (1 << 15)
			v := math.Ldexp(mant, shared+int(rest[2])%64-48)
			rest = rest[3:]
			if math.IsInf(v, 0) {
				v = 0
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// checkEigenContract asserts EigenSymmetric's contract on e = eig(a): values
// descending, Q·Qᵀ = I, and QᵀΛQ = a, the last measured in units of s, the
// larger of max |aᵢⱼ| and max |λ|, so it holds at any magnitude. Values in
// the subnormal range carry an absolute rounding of up to one subnormal
// step, which the tolerance allows for.
func checkEigenContract(t *testing.T, a *Matrix, e *EigenDecomposition, tol float64) {
	t.Helper()
	n := a.Rows()
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(e.Values))) {
		t.Fatalf("Values not descending: %v", e.Values)
	}
	if !e.Q.Mul(e.Q.T()).EqualApproxMat(Identity(n), tol) {
		t.Fatalf("Q·Qᵀ ≠ I within %g", tol)
	}
	s := a.MaxAbs()
	for _, v := range e.Values {
		s = math.Max(s, math.Abs(v))
	}
	if s == 0 {
		return
	}
	// Rescale by the power of two nearest s: exact, even from subnormals.
	_, exp := math.Frexp(s)
	lam := NewMatrix(n, n)
	for i, v := range e.Values {
		lam.Set(i, i, math.Ldexp(v, -exp))
	}
	unit := a.Clone()
	for i, v := range unit.data {
		unit.data[i] = math.Ldexp(v, -exp)
	}
	recon := e.Q.T().Mul(lam).Mul(e.Q)
	if !recon.EqualApproxMat(unit, tol+math.Ldexp(float64(n), -1074-exp)) {
		t.Fatalf("QᵀΛQ ≠ a within %g·%g", tol, s)
	}
}

// withSpectrum returns QᵀΛQ for Λ = diag(vals) and a random orthogonal Q.
func withSpectrum(rng *rand.Rand, vals []float64) *Matrix {
	n := len(vals)
	q := randomMatrix(rng, n, n)
	// Modified Gram–Schmidt on the rows, twice for orthogonality to
	// round-off.
	for i := 0; i < n; i++ {
		r := q.Row(i)
		for pass := 0; pass < 2; pass++ {
			for j := 0; j < i; j++ {
				AXPY(-Dot(r, q.Row(j)), q.Row(j), r)
			}
		}
		copy(r, Scale(1/Norm2(r), r))
	}
	lam := NewMatrix(n, n)
	for i, v := range vals {
		lam.Set(i, i, v)
	}
	return q.T().Mul(lam).Mul(q).Symmetrize()
}

var eigenSink *EigenDecomposition

func BenchmarkEigenSymmetric(b *testing.B) {
	for _, n := range []int{14, 64, 128} {
		a := randomMatrix(rand.New(rand.NewSource(1)), n, n).Symmetrize()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := EigenSymmetric(a)
				if err != nil {
					b.Fatal(err)
				}
				eigenSink = e
			}
		})
	}
}

// jacobiEigen is the reference the solver is tested against: cyclic Jacobi
// rotations until the off-diagonal Frobenius norm falls below
// jacobiTol·max|aᵢⱼ|. It is slow (O(n³) per sweep through bounds-checked
// At/Set) but simple enough to trust. Its convergence test squares entries,
// so it is only accurate for entries between about 1e-150 and 1e150.
func jacobiEigen(a *Matrix) (*EigenDecomposition, error) {
	n := a.Rows()
	w := a.Clone().Symmetrize()
	if !w.AllFiniteMat() {
		return nil, ErrEigenNoConvergence
	}
	v := Identity(n) // accumulates rotations; columns become eigenvectors

	// Scale of the matrix, for the relative convergence threshold.
	scale := w.MaxAbs()
	if scale == 0 {
		return newEigenFromColumns(make([]float64, n), v), nil
	}

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		off := offDiagonalNorm(w)
		if off <= jacobiTol*scale {
			break
		}
		if sweep == jacobiMaxSweeps-1 {
			return nil, ErrEigenNoConvergence
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= jacobiTol*scale/float64(n*n) {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Rotation angle that annihilates w[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e12 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				applyJacobiRotation(w, v, p, q, c, s)
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	return newEigenFromColumns(vals, v), nil
}

const (
	jacobiMaxSweeps = 100
	jacobiTol       = 1e-12
)

// applyJacobiRotation applies the Givens rotation G(p,q,θ) as A ← GᵀAG and
// accumulates V ← VG.
func applyJacobiRotation(a, v *Matrix, p, q int, c, s float64) {
	n := a.Rows()
	for i := 0; i < n; i++ {
		aip, aiq := a.At(i, p), a.At(i, q)
		a.Set(i, p, c*aip-s*aiq)
		a.Set(i, q, s*aip+c*aiq)
	}
	for j := 0; j < n; j++ {
		apj, aqj := a.At(p, j), a.At(q, j)
		a.Set(p, j, c*apj-s*aqj)
		a.Set(q, j, s*apj+c*aqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func offDiagonalNorm(a *Matrix) float64 {
	var s float64
	n := a.Rows()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s += 2 * a.At(i, j) * a.At(i, j)
		}
	}
	return math.Sqrt(s)
}

// newEigenFromColumns converts (values, V with eigenvector columns) into the
// sorted row-convention EigenDecomposition.
func newEigenFromColumns(vals []float64, v *Matrix) *EigenDecomposition {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })

	sorted := make([]float64, n)
	q := NewMatrix(n, n)
	for r, src := range idx {
		sorted[r] = vals[src]
		for j := 0; j < n; j++ {
			q.Set(r, j, v.At(j, src)) // row r of Q = column src of V
		}
	}
	return &EigenDecomposition{Values: sorted, Q: q}
}
