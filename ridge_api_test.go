package funcmech_test

import (
	"math"
	"math/rand"
	"testing"

	"funcmech"
	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/regression"
)

func TestWithRidgeShrinksPublicModel(t *testing.T) {
	ds := incomeDataset(5000, 20)
	plain, _, err := funcmech.LinearRegression(ds, 1e9, funcmech.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ridged, _, err := funcmech.LinearRegression(ds, 1e9, funcmech.WithSeed(1), funcmech.WithRidge(1e5))
	if err != nil {
		t.Fatal(err)
	}
	var np, nr float64
	for i, w := range plain.Weights() {
		np += w * w
		nr += ridged.Weights()[i] * ridged.Weights()[i]
	}
	if nr >= np {
		t.Fatalf("ridge did not shrink weights: ‖ω‖² %v vs %v", nr, np)
	}
}

func TestWithRidgeReportsLinearDelta(t *testing.T) {
	ds := incomeDataset(500, 21)
	_, report, err := funcmech.LinearRegression(ds, 0.8, funcmech.WithSeed(2), funcmech.WithRidge(10))
	if err != nil {
		t.Fatal(err)
	}
	// d=3 ⇒ Δ = 2(3+1)² = 32, unchanged by the penalty.
	if report.Delta != 32 {
		t.Fatalf("Delta = %v, want 32", report.Delta)
	}
}

func TestWithRidgeRejectsNegative(t *testing.T) {
	ds := incomeDataset(100, 22)
	if _, _, err := funcmech.LinearRegression(ds, 1, funcmech.WithRidge(-1)); err == nil {
		t.Fatal("expected error for negative ridge weight")
	}
}

func TestWithRidgeTinyWeightMatchesPlain(t *testing.T) {
	ds := incomeDataset(2000, 23)
	a, _, err := funcmech.LinearRegression(ds, 1e9, funcmech.WithSeed(3), funcmech.WithRidge(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := funcmech.LinearRegression(ds, 1e9, funcmech.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if math.Abs(wa[i]-wb[i]) > 1e-6 {
			t.Fatalf("negligible ridge changed the model: %v vs %v", wa, wb)
		}
	}
}

// TestLinearRegressionExactHonoursRidge: with WithRidge the exact baseline
// minimizes the penalized objective, so its weights are the closed form
// (XᵀX + w·I)⁻¹Xᵀy on the normalized rows; without it they are the
// unpenalized least-squares weights, bit for bit.
func TestLinearRegressionExactHonoursRidge(t *testing.T) {
	schema := funcmech.Schema{
		Features: []funcmech.Attribute{{Name: "x1", Min: 0, Max: 10}, {Name: "x2", Min: 0, Max: 5}},
		Target:   funcmech.Attribute{Name: "y", Min: 0, Max: 50},
	}
	inner := dataset.New(&dataset.Schema{
		Features: []dataset.Attribute{{Name: "x1", Min: 0, Max: 10}, {Name: "x2", Min: 0, Max: 5}},
		Target:   dataset.Attribute{Name: "y", Min: 0, Max: 50},
	})
	ds := funcmech.NewDataset(schema)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 5}
		y := math.Min(50, math.Max(0, 3*x[0]+2*x[1]+rng.NormFloat64()))
		ds.Append(x, y)
		inner.Append(x, y)
	}
	norm := dataset.NewNormalizer(inner.Schema).NormalizeForLinear(inner)
	// closedForm solves (XᵀX + w·I)ω = Xᵀy for the two normalized features.
	closedForm := func(w float64) [2]float64 {
		var a00, a01, a11, b0, b1 float64
		for i := 0; i < norm.N(); i++ {
			x, y := norm.Row(i), norm.Label(i)
			a00, a01, a11 = a00+x[0]*x[0], a01+x[0]*x[1], a11+x[1]*x[1]
			b0, b1 = b0+x[0]*y, b1+x[1]*y
		}
		a00, a11 = a00+w, a11+w
		det := a00*a11 - a01*a01
		return [2]float64{(a11*b0 - a01*b1) / det, (a00*b1 - a01*b0) / det}
	}
	for _, w := range []float64{0, 100} {
		var opts []funcmech.Option
		if w != 0 {
			opts = append(opts, funcmech.WithRidge(w))
		}
		m, err := funcmech.LinearRegressionExact(ds, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := closedForm(w)
		for j, got := range m.Weights() {
			if math.Abs(got-want[j]) > 1e-9*math.Abs(want[j]) {
				t.Errorf("ridge %v: weight %d = %v, closed form %v", w, j, got, want[j])
			}
		}
	}
	// Unpenalized, the baseline minimizes the linear task's fold itself.
	plain, err := regression.MinimizeQuadratic(core.ParallelObjective(core.LinearTask{}, norm, 1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := funcmech.LinearRegressionExact(ds)
	if err != nil {
		t.Fatal(err)
	}
	for j, got := range m.Weights() {
		if math.Float64bits(got) != math.Float64bits(plain[j]) {
			t.Errorf("weight %d = %v without WithRidge, want %v bit for bit", j, got, plain[j])
		}
	}
}
