package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"funcmech/internal/dataset"
	"funcmech/internal/poly"
)

func TestMedianSensitivityGolden(t *testing.T) {
	// Δ = 2(√(1+μ²) + d + d²/(2μ)) with μ = ½ ⇒ 2√1.25 + 2d + 2d².
	for _, d := range []int{1, 4, 13} {
		dd := float64(d)
		want := 2*math.Sqrt(1.25) + 2*dd + 2*dd*dd
		if got := (MedianTask{}).Sensitivity(d); math.Abs(got-want) > 1e-12 {
			t.Errorf("Δ(%d) = %v, want %v", d, got, want)
		}
	}
}

// Property: Δ dominates 2·Σ|λ_φt| over random in-sphere tuples — the
// inequality the median release's privacy proof rests on, checked through
// the same TupleCoefL1 machinery as the built-in tasks.
func TestMedianSensitivityDominatesTupleCoefficientsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(8)
		x, y := randomSphereTuple(rng, d)
		return 2*TupleCoefL1(MedianTask{}, x, y) <= (MedianTask{}).Sensitivity(d)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The accumulated objective must match the pseudo-Huber Taylor coefficients
// computed directly from the closed forms.
func TestMedianObjectiveMatchesAnalyticForm(t *testing.T) {
	ds := dataset.New(unitSchema(2))
	rows := [][]float64{{0.6, -0.2}, {0.1, 0.4}, {-0.5, -0.5}}
	ys := []float64{0.4, -1, 0}
	for i, x := range rows {
		ds.Append(x, ys[i])
	}
	q := ParallelObjective(MedianTask{}, ds, 1)

	const mu2 = 0.25
	var beta float64
	alpha := make([]float64, 2)
	m := [2][2]float64{}
	for i, x := range rows {
		y := ys[i]
		s := math.Sqrt(y*y + mu2)
		beta += s
		for a := 0; a < 2; a++ {
			alpha[a] += -y / s * x[a]
			for b := 0; b < 2; b++ {
				m[a][b] += mu2 / (s * s * s) / 2 * x[a] * x[b]
			}
		}
	}
	if math.Abs(q.Beta-beta) > 1e-12 {
		t.Errorf("β = %v, want %v", q.Beta, beta)
	}
	for a := 0; a < 2; a++ {
		if math.Abs(q.Alpha[a]-alpha[a]) > 1e-12 {
			t.Errorf("α[%d] = %v, want %v", a, q.Alpha[a], alpha[a])
		}
		for b := 0; b < 2; b++ {
			if math.Abs(q.M.At(a, b)-m[a][b]) > 1e-12 {
				t.Errorf("M[%d][%d] = %v, want %v", a, b, q.M.At(a, b), m[a][b])
			}
		}
	}
}

// The blocked fold must be bit-identical to the record-order scalar fold —
// the fold contract every ingest path relies on.
func TestMedianBlockMatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d, n := 5, 64
	xs := make([]float64, 0, n*d)
	ys := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		x, y := randomSphereTuple(rng, d)
		xs = append(xs, x...)
		ys = append(ys, y)
	}
	scalar := poly.NewQuadratic(d)
	for i := 0; i < n; i++ {
		referenceRecord(MedianTask{}, scalar, xs[i*d:(i+1)*d], ys[i])
	}
	acc := NewAccumulator(MedianTask{}, d)
	acc.AddFlat(xs, ys)
	blocked := acc.q
	if blocked.Beta != scalar.Beta {
		t.Errorf("β: %v vs %v", blocked.Beta, scalar.Beta)
	}
	for a := 0; a < d; a++ {
		if blocked.Alpha[a] != scalar.Alpha[a] {
			t.Errorf("α[%d]: %v vs %v", a, blocked.Alpha[a], scalar.Alpha[a])
		}
		for b := a; b < d; b++ {
			if blocked.M.At(a, b) != scalar.M.At(a, b) {
				t.Errorf("M[%d][%d]: %v vs %v", a, b, blocked.M.At(a, b), scalar.M.At(a, b))
			}
		}
	}
}

// minimizer1D solves the d=1 quadratic β + αω + Mω² exactly: ω* = −α/(2M).
func minimizer1D(q *poly.Quadratic) float64 { return -q.Alpha[0] / (2 * q.M.At(0, 0)) }

// The mechanism end-to-end over the median task: at a generous ε the
// released weight must land on the analytic minimizer of the truncated
// pseudo-Huber objective (the Taylor truncation's bias is a property of the
// objective, not of the release path).
func TestMedianMechanismReleasesObjectiveMinimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := dataset.New(unitSchema(1))
	for i := 0; i < 4000; i++ {
		x := rng.Float64()*1.6 - 0.8
		ds.Append([]float64{x}, 0.3*x+0.05*rng.NormFloat64())
	}
	want := minimizer1D(ParallelObjective(MedianTask{}, ds, 1))
	res, err := Run(MedianTask{}, ds, 500, rand.New(rand.NewSource(7)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Weights[0]; math.Abs(w-want) > 0.05 {
		t.Fatalf("released slope = %v, analytic minimizer %v", w, want)
	}
}

// The property that makes the smoothed-L1 objective a median (not mean)
// regression: with a constant regressor, least squares predicts exactly the
// target mean, while the pseudo-Huber objective downweights far targets by
// 1/√(y²+μ²) and lands nearer the target median. Deterministic by
// construction — a two-point target distribution with distinct mean and
// median.
func TestMedianObjectivePredictsMedianNotMean(t *testing.T) {
	const c = 0.8 // constant regressor; prediction is c·ω
	ds := dataset.New(unitSchema(1))
	for i := 0; i < 100; i++ {
		y := -0.2 // 90%: median
		if i%10 == 0 {
			y = 0.8 // 10%: drags the mean to −0.1
		}
		ds.Append([]float64{c}, y)
	}
	const mean, median = -0.1, -0.2
	tMed := c * minimizer1D(ParallelObjective(MedianTask{}, ds, 1))
	tLS := c * minimizer1D(ParallelObjective(LinearTask{}, ds, 1))
	if math.Abs(tLS-mean) > 1e-12 {
		t.Fatalf("least squares predicted %v, want the mean %v", tLS, mean)
	}
	if math.Abs(tMed-median) >= math.Abs(tMed-mean) {
		t.Fatalf("median objective predicted %v — closer to the mean %v than the median %v", tMed, mean, median)
	}
	if math.Abs(tMed-median) >= math.Abs(tLS-median) {
		t.Fatalf("median objective (%v) is no closer to the median %v than least squares (%v)", tMed, median, tLS)
	}
}
