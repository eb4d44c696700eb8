package funcmech_test

import (
	"testing"

	"funcmech"
)

// TestRefitReproducibleAcrossParallelism is the CI reproducibility
// cross-check: a refit from accumulated coefficients is bit-identical at
// every parallelism level. The refit has no record sweep to shard, so
// unlike the one-shot fit (which agrees across parallelism only to solver
// tolerance) the weights must not move by a single bit.
func TestRefitReproducibleAcrossParallelism(t *testing.T) {
	ds := incomeDataset(4096, 9)
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, ds)

	refit := func(par int) []float64 {
		m, _, err := funcmech.FitTaskFromAccumulator(acc, "linear", 0.8,
			funcmech.WithSeed(42), funcmech.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		return m.Weights()
	}
	serial := refit(1)
	for _, par := range []int{2, 4, 8} {
		sameWeights(t, "refit parallelism", serial, refit(par))
	}
}
