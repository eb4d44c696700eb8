package funcmech_test

import (
	"math"
	"testing"

	"funcmech"
)

// WithParallelism is a throughput knob: at a fixed seed and fixed n the fit
// is reproducible bit for bit, and across different n the models agree to
// solver tolerance (only the floating-point summation tree of the objective
// changes; the noise stream does not).
func TestWithParallelismReproducibleAcrossRuns(t *testing.T) {
	// 8192 records clears the internal minimum shard size, so parallelism 4
	// genuinely shards the accumulation.
	ds := incomeDataset(8192, 3)
	fit := func(par int) []float64 {
		m, _, err := funcmech.LinearRegression(ds, 0.8,
			funcmech.WithSeed(42), funcmech.WithParallelism(par), funcmech.WithIntercept())
		if err != nil {
			t.Fatal(err)
		}
		return m.Weights()
	}
	serial, para, again := fit(1), fit(4), fit(4)
	for i := range para {
		if para[i] != again[i] {
			t.Fatalf("weight %d differs across identical parallel fits: %v vs %v", i, para[i], again[i])
		}
		if math.Abs(para[i]-serial[i]) > 1e-9*(1+math.Abs(serial[i])) {
			t.Fatalf("weight %d diverges between serial and parallel: %v vs %v", i, para[i], serial[i])
		}
	}
}

func TestWithParallelismLogisticAndSession(t *testing.T) {
	ds := incomeDataset(3000, 5)
	s := funcmech.NewSession(2.0)
	if _, _, err := s.FitTask(ds, "logistic", 1.0,
		funcmech.WithSeed(7), funcmech.WithParallelism(2),
		funcmech.WithBinarizeThreshold(90000)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.FitTask(ds, "linear", 1.0,
		funcmech.WithSeed(7), funcmech.WithParallelism(2)); err != nil {
		t.Fatal(err)
	}
	if s.Remaining() != 0 {
		t.Fatalf("remaining budget %v, want 0", s.Remaining())
	}
}

func TestWithParallelismRejectsNegative(t *testing.T) {
	ds := incomeDataset(50, 9)
	if _, _, err := funcmech.LinearRegression(ds, 0.8, funcmech.WithParallelism(-2)); err == nil {
		t.Fatal("expected error for negative parallelism")
	}
}
