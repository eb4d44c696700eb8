package funcmech_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"funcmech"
)

// TestSessionRefusesMalformedReleases: a request the library refuses for its
// task or options is refused before the debit, by every charging entry
// point.
func TestSessionRefusesMalformedReleases(t *testing.T) {
	ds := incomeDataset(200, 72)
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, ds)
	empty, _ := funcmech.NewAccumulator(incomeSchema())
	s := funcmech.NewSession(1)
	fits := map[string]func() error{
		"logistic WithRidge": func() error {
			_, _, err := s.FitTask(ds, "logistic", 0.5, funcmech.WithRidge(1), funcmech.WithBinarizeThreshold(60000))
			return err
		},
		"WithParallelism(-1)": func() error {
			_, _, err := s.FitTask(ds, "linear", 0.5, funcmech.WithParallelism(-1))
			return err
		},
		"median WithBinarizeThreshold": func() error {
			_, _, err := s.FitTask(ds, "median", 0.5, funcmech.WithBinarizeThreshold(60000))
			return err
		},
		"refit WithRidge on median": func() error {
			_, _, err := s.FitTaskFromAccumulator(acc, "median", 0.5, funcmech.WithRidge(1))
			return err
		},
		"refit WithIntercept": func() error {
			_, _, err := s.FitTaskFromAccumulator(acc, "linear", 0.5, funcmech.WithIntercept())
			return err
		},
		"refit of an empty accumulator": func() error {
			_, _, err := s.FitTaskFromAccumulator(empty, "linear", 0.5)
			return err
		},
	}
	for name, fit := range fits {
		if err := fit(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if s.Spent() != 0 {
			t.Fatalf("%s: refused request debited %v", name, s.Spent())
		}
	}
}

// TestNewReleaseDecidesChargeAndFit is the release contract as a property
// over every task × ridge weight × threshold × post-process × parallelism
// × ε: whatever NewRelease refuses, FitTask and Session.FitTask refuse
// with the same error and the session debits nothing; whatever it
// accepts, Session.Charge debits its cost (2ε under Resample), Run
// releases at that cost on a well-conditioned dataset of the task's target
// rule, and so does FitTask. A ridge weight of +Inf, a threshold of NaN or
// ±Inf and an ε whose Laplace scale overflows at d (1e-320) are among the
// refused.
func TestNewReleaseDecidesChargeAndFit(t *testing.T) {
	normalized := incomeDataset(400, 71)
	boolean := funcmech.NewDataset(incomeSchema())
	for i := 0; i < normalized.Len(); i++ {
		x, y := normalized.Record(i)
		label := 0.0
		if y > 60000 {
			label = 1
		}
		boolean.Append(x, label)
	}
	posts := []funcmech.PostProcess{funcmech.RegularizeAndTrim, funcmech.RegularizeOnly, funcmech.Resample, funcmech.NoPostProcess}
	accepted := 0
	for _, info := range funcmech.Tasks() {
		ds := normalized
		if info.Boolean {
			ds = boolean
		}
		for _, ridge := range []float64{-1, 0, 0.5, math.Inf(1)} {
			for _, threshold := range []*float64{nil, ptr(0.5), ptr(math.NaN()), ptr(math.Inf(1)), ptr(math.Inf(-1))} {
				for _, pp := range posts {
					for _, par := range []int{-1, 0, 2} {
						for _, eps := range []float64{-1, 0, 1e6, 1e-320, math.NaN(), math.Inf(1), math.Inf(-1)} {
							name := fmt.Sprintf("%s ridge=%v threshold=%v %v parallelism=%d ε=%v", info.Name, ridge, deref(threshold), pp, par, eps)
							opts := []funcmech.Option{funcmech.WithSeed(1), funcmech.WithPostProcess(pp), funcmech.WithParallelism(par)}
							if ridge != 0 {
								opts = append(opts, funcmech.WithRidge(ridge))
							}
							if threshold != nil {
								opts = append(opts, funcmech.WithBinarizeThreshold(*threshold))
							}
							r, relErr := funcmech.NewRelease(ds, info.Name, eps, opts...)
							s := funcmech.NewSession(1e7)
							_, _, fitErr := funcmech.FitTask(ds, info.Name, eps, opts...)
							if relErr != nil {
								_, _, sessionErr := s.FitTask(ds, info.Name, eps, opts...)
								for caller, err := range map[string]error{"FitTask": fitErr, "Session.FitTask": sessionErr} {
									if err == nil || err.Error() != relErr.Error() {
										t.Errorf("%s: NewRelease refused (%v) but %s returned %v", name, relErr, caller, err)
									}
								}
								if s.Spent() != 0 {
									t.Errorf("%s: refused request debited %v", name, s.Spent())
								}
								continue
							}
							accepted++
							cost := eps
							if pp == funcmech.Resample {
								cost = 2 * eps
							}
							if got, err := s.Charge(r); err != nil || got != cost || s.Spent() != cost {
								t.Errorf("%s: NewRelease accepted but Charge returned (%v, %v), spent %v; want %v", name, got, err, s.Spent(), cost)
							}
							if _, rep, err := r.Run(nil); err != nil || rep.Epsilon != cost {
								t.Errorf("%s: NewRelease accepted but Run returned %+v, %v", name, rep, err)
							}
							if fitErr != nil {
								t.Errorf("%s: NewRelease accepted but FitTask failed: %v", name, fitErr)
							}
						}
					}
				}
			}
		}
	}
	// linear with and without a ridge weight, ridge with one, logistic with
	// and without a threshold, median: 6 × 4 post-processes × 2 valid
	// parallelisms at the one valid ε.
	if accepted != 48 {
		t.Fatalf("%d requests accepted, want 48", accepted)
	}
}

// TestNewReleaseTypesItsRefusals: an unknown task wraps ErrUnknownTask,
// and an ε that is not finite and positive wraps ErrInvalidSpend, from
// both constructors and both fits. They refuse it before they read a
// record: the dataset holds a NaN that the record rule would refuse first.
func TestNewReleaseTypesItsRefusals(t *testing.T) {
	ds := incomeDataset(50, 74)
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, ds)
	ds.Append([]float64{math.NaN(), 12, 40}, 30000)
	_, fitErr := funcmech.NewRelease(ds, "quantile", 1)
	_, refitErr := funcmech.NewReleaseFromAccumulator(acc, "quantile", 1)
	for name, err := range map[string]error{"NewRelease": fitErr, "NewReleaseFromAccumulator": refitErr} {
		if !errors.Is(err, funcmech.ErrUnknownTask) {
			t.Fatalf("%s of an unknown task: err = %v, want ErrUnknownTask", name, err)
		}
	}
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, relErr := funcmech.NewRelease(ds, "linear", eps)
		_, refitRelErr := funcmech.NewReleaseFromAccumulator(acc, "linear", eps)
		_, _, fitErr := funcmech.FitTask(ds, "linear", eps)
		_, _, refitErr := funcmech.FitTaskFromAccumulator(acc, "linear", eps)
		for name, err := range map[string]error{
			"NewRelease":                relErr,
			"NewReleaseFromAccumulator": refitRelErr,
			"FitTask":                   fitErr,
			"FitTaskFromAccumulator":    refitErr,
		} {
			if !errors.Is(err, funcmech.ErrInvalidSpend) {
				t.Errorf("%s at ε = %v: err = %v, want ErrInvalidSpend", name, eps, err)
			}
		}
	}
}

// The exact baselines take their options through the same check as the
// private fits, so a malformed option is an error rather than ignored.
func TestExactBaselinesRejectMalformedOptions(t *testing.T) {
	ds := incomeDataset(200, 73)
	if _, err := funcmech.LinearRegressionExact(ds, funcmech.WithRidge(-1)); err == nil {
		t.Error("LinearRegressionExact accepted a negative ridge weight")
	}
	if _, err := funcmech.LinearRegressionExact(ds, funcmech.WithBinarizeThreshold(60000)); err == nil {
		t.Error("LinearRegressionExact accepted a binarize threshold")
	}
	if _, err := funcmech.LogisticRegressionExact(ds, funcmech.WithBinarizeThreshold(60000), funcmech.WithRidge(1)); err == nil {
		t.Error("LogisticRegressionExact accepted a ridge weight")
	}
	if _, err := funcmech.LogisticRegressionExact(ds, funcmech.WithBinarizeThreshold(60000)); err != nil {
		t.Errorf("LogisticRegressionExact refused a well-formed request: %v", err)
	}
}

func ptr(v float64) *float64 { return &v }

// linearRelease is a linear fit at ε over a small dataset, for tests that
// only charge it.
func linearRelease(t testing.TB, eps float64, opts ...funcmech.Option) *funcmech.Release {
	t.Helper()
	r, err := funcmech.NewRelease(incomeDataset(10, 1), "linear", eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// deref formats an optional threshold for a case name.
func deref(t *float64) string {
	if t == nil {
		return "none"
	}
	return fmt.Sprint(*t)
}

// TestOverflowingNoiseScaleIsAnInvalidSpend: a positive ε so small that the
// Laplace scale Δ/ε overflows to +Inf is refused like any unusable ε, with
// ErrInvalidSpend. Both constructors know the dimensionality before they
// read a record or a fold, and refuse it there, so both fits do: the
// dataset holds a NaN the record rule would refuse first. At d = 2,
// linear's Δ is 18, so ε = 1e-300 (scale 1.8e301) still releases.
func TestOverflowingNoiseScaleIsAnInvalidSpend(t *testing.T) {
	schema := funcmech.Schema{
		Features: []funcmech.Attribute{{Name: "x1", Min: 0, Max: 1}, {Name: "x2", Min: 0, Max: 1}},
		Target:   funcmech.Attribute{Name: "y", Min: -1, Max: 1},
	}
	ds := funcmech.NewDataset(schema)
	acc, err := funcmech.NewAccumulator(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		x1, x2 := float64(i%7)/7, float64(i%11)/11
		ds.Append([]float64{x1, x2}, x1-x2)
		if err := acc.Add([]float64{x1, x2}, x1-x2); err != nil {
			t.Fatal(err)
		}
	}
	if _, rep, err := funcmech.FitTask(ds, "linear", 1e-300, funcmech.WithSeed(1)); err != nil || rep.NoiseScale != 18/1e-300 {
		t.Fatalf("FitTask at ε = 1e-300: report %+v, err %v; want a release at scale 1.8e301", rep, err)
	}
	if _, _, err := funcmech.FitTaskFromAccumulator(acc, "linear", 1e-300, funcmech.WithSeed(1)); err != nil {
		t.Fatalf("FitTaskFromAccumulator at ε = 1e-300: %v", err)
	}
	ds.Append([]float64{math.NaN(), 0}, 0)
	for _, eps := range []float64{1e-320, math.SmallestNonzeroFloat64} {
		_, relErr := funcmech.NewRelease(ds, "linear", eps, funcmech.WithSeed(1))
		_, refitRelErr := funcmech.NewReleaseFromAccumulator(acc, "linear", eps, funcmech.WithSeed(1))
		_, _, fitErr := funcmech.FitTask(ds, "linear", eps, funcmech.WithSeed(1))
		_, _, refitErr := funcmech.FitTaskFromAccumulator(acc, "linear", eps, funcmech.WithSeed(1))
		for name, err := range map[string]error{
			"NewRelease":                relErr,
			"NewReleaseFromAccumulator": refitRelErr,
			"FitTask":                   fitErr,
			"FitTaskFromAccumulator":    refitErr,
		} {
			if !errors.Is(err, funcmech.ErrInvalidSpend) {
				t.Errorf("%s at ε = %v: err = %v, want ErrInvalidSpend", name, eps, err)
			}
		}
	}
}
