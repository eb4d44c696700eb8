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

// TestCheckReleaseDecidesChargeAndFit is the release contract as a
// property over every task × ridge weight × threshold × post-process ×
// parallelism × ε: whatever CheckRelease refuses, Session.Charge refuses
// with the same error and debits nothing, and FitTask refuses too; whatever
// it accepts, Session.Charge debits and FitTask releases on a
// well-conditioned dataset of the task's target rule. A ridge weight of
// +Inf and a threshold of NaN or ±Inf are among the refused.
func TestCheckReleaseDecidesChargeAndFit(t *testing.T) {
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
						for _, eps := range []float64{-1, 0, 1e6, math.NaN(), math.Inf(1), math.Inf(-1)} {
							name := fmt.Sprintf("%s ridge=%v threshold=%v %v parallelism=%d ε=%v", info.Name, ridge, deref(threshold), pp, par, eps)
							opts := []funcmech.Option{funcmech.WithSeed(1), funcmech.WithPostProcess(pp), funcmech.WithParallelism(par)}
							if ridge != 0 {
								opts = append(opts, funcmech.WithRidge(ridge))
							}
							if threshold != nil {
								opts = append(opts, funcmech.WithBinarizeThreshold(*threshold))
							}
							checkErr := funcmech.CheckRelease(info.Name, eps, opts...)
							s := funcmech.NewSession(1e7)
							_, chargeErr := s.Charge(info.Name, eps, opts...)
							_, _, fitErr := funcmech.FitTask(ds, info.Name, eps, opts...)
							if checkErr != nil {
								if chargeErr == nil || chargeErr.Error() != checkErr.Error() {
									t.Errorf("%s: CheckRelease refused (%v) but Charge returned %v", name, checkErr, chargeErr)
								}
								if s.Spent() != 0 {
									t.Errorf("%s: refused request debited %v", name, s.Spent())
								}
								if fitErr == nil {
									t.Errorf("%s: CheckRelease refused (%v) but FitTask released", name, checkErr)
								}
								continue
							}
							accepted++
							if chargeErr != nil || s.Spent() == 0 {
								t.Errorf("%s: CheckRelease accepted but Charge returned %v, spent %v", name, chargeErr, s.Spent())
							}
							if fitErr != nil {
								t.Errorf("%s: CheckRelease accepted but FitTask failed: %v", name, fitErr)
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

// TestCheckReleaseTypesItsRefusals: an unknown task wraps ErrUnknownTask,
// and an ε that is not finite and positive wraps ErrInvalidSpend, from
// CheckRelease and from both fits. The fits refuse it before they read a
// record: the dataset holds a NaN that the record rule would refuse first.
func TestCheckReleaseTypesItsRefusals(t *testing.T) {
	if err := funcmech.CheckRelease("quantile", 1); !errors.Is(err, funcmech.ErrUnknownTask) {
		t.Fatalf("unknown task: err = %v, want ErrUnknownTask", err)
	}
	ds := incomeDataset(50, 74)
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, ds)
	ds.Append([]float64{math.NaN(), 12, 40}, 30000)
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, _, fitErr := funcmech.FitTask(ds, "linear", eps)
		_, _, refitErr := funcmech.FitTaskFromAccumulator(acc, "linear", eps)
		for name, err := range map[string]error{
			"CheckRelease":           funcmech.CheckRelease("linear", eps),
			"FitTask":                fitErr,
			"FitTaskFromAccumulator": refitErr,
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

// deref formats an optional threshold for a case name.
func deref(t *float64) string {
	if t == nil {
		return "none"
	}
	return fmt.Sprint(*t)
}

// TestOverflowingNoiseScaleIsAnInvalidSpend: a positive ε so small that the
// Laplace scale Δ/ε overflows to +Inf is refused like any unusable ε, with
// ErrInvalidSpend. Both fits know the dimensionality before they read a
// record or a fold, and refuse it there: the dataset holds a NaN the record
// rule would refuse first. At d = 2, linear's Δ is 18, so ε = 1e-300
// (scale 1.8e301) still releases.
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
		_, _, fitErr := funcmech.FitTask(ds, "linear", eps, funcmech.WithSeed(1))
		_, _, refitErr := funcmech.FitTaskFromAccumulator(acc, "linear", eps, funcmech.WithSeed(1))
		for name, err := range map[string]error{"FitTask": fitErr, "FitTaskFromAccumulator": refitErr} {
			if !errors.Is(err, funcmech.ErrInvalidSpend) {
				t.Errorf("%s at ε = %v: err = %v, want ErrInvalidSpend", name, eps, err)
			}
		}
	}
}
