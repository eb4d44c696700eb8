package noise_test

// The privacy accountant lives in funcmech.Session; these tests drive it
// from beside the ε rule it enforces (CheckEpsilon), charging releases the
// funcmech constructors accept. An external test package may import
// funcmech, which itself imports this package.

import (
	"errors"
	"math"
	"sync"
	"testing"

	"funcmech"
	"funcmech/internal/noise"
)

// toy is a two-feature dataset for releases the tests only charge.
func toy() *funcmech.Dataset {
	ds := funcmech.NewDataset(funcmech.Schema{
		Features: []funcmech.Attribute{{Name: "x1", Min: 0, Max: 1}, {Name: "x2", Min: 0, Max: 1}},
		Target:   funcmech.Attribute{Name: "y", Min: -1, Max: 1},
	})
	for i := 0; i < 20; i++ {
		x1, x2 := float64(i%4)/4, float64(i%5)/5
		ds.Append([]float64{x1, x2}, x1-x2)
	}
	return ds
}

// release is a linear fit of toy() at ε.
func release(t *testing.T, eps float64, opts ...funcmech.Option) *funcmech.Release {
	t.Helper()
	r, err := funcmech.NewRelease(toy(), "linear", eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBudgetSpend(t *testing.T) {
	s := funcmech.NewSession(1.0)
	if _, err := s.Charge(release(t, 0.4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Charge(release(t, 0.6)); err != nil {
		t.Fatal(err)
	}
	if r := s.Remaining(); math.Abs(r) > 1e-9 {
		t.Fatalf("Remaining = %v, want 0", r)
	}
	if _, err := s.Charge(release(t, 0.01)); !errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}

func TestBudgetOverspendLeavesStateUnchanged(t *testing.T) {
	s := funcmech.NewSession(0.5)
	if _, err := s.Charge(release(t, 1.0)); err == nil {
		t.Fatal("expected overspend error")
	}
	if s.Spent() != 0 {
		t.Fatalf("Spent = %v after failed charge, want 0", s.Spent())
	}
}

// TestBudgetRejectsNonPositiveSpend: no release exists at an ε that is not
// finite and positive, so a Session fit at one is refused, as an invalid
// spend, before the debit.
func TestBudgetRejectsNonPositiveSpend(t *testing.T) {
	s := funcmech.NewSession(1)
	ds := toy()
	for _, eps := range []float64{0, -0.1, math.NaN(), math.Inf(1)} {
		if _, err := funcmech.NewRelease(ds, "linear", eps); !errors.Is(err, noise.ErrInvalidSpend) {
			t.Errorf("NewRelease at ε = %v: %v, want ErrInvalidSpend", eps, err)
		}
		if _, _, err := s.FitTask(ds, "linear", eps); !errors.Is(err, noise.ErrInvalidSpend) {
			t.Errorf("Session.FitTask at ε = %v: %v, want ErrInvalidSpend", eps, err)
		}
	}
	if s.Spent() != 0 {
		t.Errorf("Spent = %v after refused fits, want 0", s.Spent())
	}
	// The two failure modes stay distinguishable: a malformed amount is not
	// an exhausted budget, and vice versa.
	if _, _, err := s.FitTask(ds, "linear", -0.1); errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.Error("invalid spend must not read as exhaustion")
	}
	if _, err := s.Charge(release(t, 2)); !errors.Is(err, funcmech.ErrBudgetExhausted) || errors.Is(err, noise.ErrInvalidSpend) {
		t.Errorf("overspend = %v, want pure ErrBudgetExhausted", err)
	}
}

func TestNewBudgetRejectsNonPositive(t *testing.T) {
	for _, eps := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSession(%v) must panic", eps)
				}
			}()
			funcmech.NewSession(eps)
		}()
	}
}

func TestBudgetLemma5DoubleSpend(t *testing.T) {
	// The resampling variant costs 2ε (paper Lemma 5): two ε charges on a 2ε
	// budget must succeed, a third must not; one Resample charge of ε
	// debits the whole 2ε.
	eps := 0.8
	s := funcmech.NewSession(2 * eps)
	if _, err := s.Charge(release(t, eps)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Charge(release(t, eps)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Charge(release(t, eps)); err == nil {
		t.Fatal("third ε charge must exhaust a 2ε budget")
	}
	s = funcmech.NewSession(2 * eps)
	if cost, err := s.Charge(release(t, eps, funcmech.WithPostProcess(funcmech.Resample))); err != nil || cost != 2*eps {
		t.Fatalf("Resample charge = (%v, %v), want (%v, nil)", cost, err, 2*eps)
	}
	if _, err := s.Charge(release(t, eps)); err == nil {
		t.Fatal("an ε charge after a Resample charge of ε must exhaust a 2ε budget")
	}
}

func TestBudgetConcurrentSpend(t *testing.T) {
	s := funcmech.NewSession(100)
	unit := release(t, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Charge(unit)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	ok := 0
	for err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok != 100 {
		t.Fatalf("%d charges succeeded on a budget of 100 unit charges", ok)
	}
	if r := s.Remaining(); r > 1e-9 {
		t.Fatalf("Remaining = %v, want 0", r)
	}
}

func TestBudgetAccessors(t *testing.T) {
	s := funcmech.NewSession(2)
	if _, err := s.Charge(release(t, 0.5)); err != nil {
		t.Fatal(err)
	}
	if s.Total() != 2 {
		t.Errorf("Total = %v", s.Total())
	}
	if s.Spent() != 0.5 {
		t.Errorf("Spent = %v", s.Spent())
	}
	if s.Remaining() != 1.5 {
		t.Errorf("Remaining = %v", s.Remaining())
	}
}
