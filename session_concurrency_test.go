package funcmech_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"funcmech"
)

// TestSessionConcurrentFits is the serving-layer contract for Session: any
// number of goroutines racing fits against one session (a) never jointly
// spend more than the lifetime ε, (b) lose the race with exactly
// ErrBudgetExhausted, and (c) succeed exactly as many times as the budget
// admits.
func TestSessionConcurrentFits(t *testing.T) {
	const (
		perFit     = 0.25
		fits       = 4 // budget admits exactly 4 …
		goroutines = 12
	)
	s := funcmech.NewSession(perFit * fits)
	ds := incomeDataset(400, 7)

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, _, errs[g] = s.FitTask(ds, "linear", perFit, funcmech.WithSeed(int64(g)))
		}(g)
	}
	wg.Wait()

	ok, exhausted := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, funcmech.ErrBudgetExhausted):
			exhausted++
		default:
			t.Fatalf("unexpected error type: %v", err)
		}
	}
	if ok != fits {
		t.Fatalf("%d fits succeeded, budget admits exactly %d", ok, fits)
	}
	if exhausted != goroutines-fits {
		t.Fatalf("%d fits refused, want %d", exhausted, goroutines-fits)
	}
	if spent := s.Spent(); spent > s.Total()+1e-9 {
		t.Fatalf("Spent = %v exceeds Total = %v", spent, s.Total())
	}
	if r := s.Remaining(); r > 1e-9 {
		t.Fatalf("Remaining = %v, want 0 after exact exhaustion", r)
	}
}

// TestSessionConcurrentMixedModels races linear and logistic fits, including
// a Resample fit that costs 2ε, and checks the accounting stays exact.
func TestSessionConcurrentMixedModels(t *testing.T) {
	s := funcmech.NewSession(1.0)
	ds := incomeDataset(300, 11)

	var wg sync.WaitGroup
	errs := make([]error, 6)
	run := func(i int, f func() error) {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = f() }()
	}
	for i := 0; i < 3; i++ {
		i := i
		run(i, func() error {
			_, _, err := s.FitTask(ds, "linear", 0.2, funcmech.WithSeed(int64(i)))
			return err
		})
	}
	for i := 3; i < 5; i++ {
		i := i
		run(i, func() error {
			_, _, err := s.FitTask(ds, "logistic", 0.1,
				funcmech.WithSeed(int64(i)), funcmech.WithBinarizeThreshold(60000))
			return err
		})
	}
	// Costs 2×0.1 = 0.2 under Resample (Lemma 5).
	run(5, func() error {
		_, _, err := s.FitTask(ds, "linear", 0.1,
			funcmech.WithSeed(99), funcmech.WithPostProcess(funcmech.Resample))
		return err
	})
	wg.Wait()

	for i, err := range errs {
		if err != nil && !errors.Is(err, funcmech.ErrBudgetExhausted) {
			t.Fatalf("fit %d: unexpected error %v", i, err)
		}
	}
	if spent := s.Spent(); spent > s.Total()+1e-9 {
		t.Fatalf("Spent = %v exceeds Total = %v", spent, s.Total())
	}
	// All six costs sum to exactly the 1.0 budget, so under any
	// interleaving every fit must have been admitted.
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fit %d refused although total demand equals the budget: %v", i, err)
		}
	}
	if r := s.Remaining(); r > 1e-9 {
		t.Fatalf("Remaining = %v, want 0", r)
	}
}

// TestSessionConcurrentChargesNeverOversubscribe: whatever mixture of
// charges races against one session, the successful ones never sum past
// the total, and a Snapshot taken mid-race is never torn. Uneven amounts
// make a torn check-then-add far likelier to surface than a uniform one,
// and the concurrent reader gives the race detector reads to chase.
func TestSessionConcurrentChargesNeverOversubscribe(t *testing.T) {
	const (
		total      = 1.0
		goroutines = 64
		charges    = 50
	)
	releases := make([]*funcmech.Release, 7)
	for k := range releases {
		releases[k] = linearRelease(t, 0.001*float64(1+k))
	}
	s := funcmech.NewSession(total)
	done := make(chan struct{})
	torn := make(chan string, 1)
	go func() {
		defer close(torn)
		for {
			select {
			case <-done:
				return
			default:
			}
			tot, spent, remaining := s.Snapshot()
			if tot != total || spent > total+1e-9 || remaining < 0 || math.Abs(spent+remaining-total) > 1e-9 {
				torn <- fmt.Sprintf("Snapshot = (%v, %v, %v)", tot, spent, remaining)
				return
			}
		}
	}()
	granted := make(chan float64, goroutines*charges)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < charges; i++ {
				if cost, err := s.Charge(releases[(g+i)%7]); err == nil {
					granted <- cost
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	close(granted)
	if msg, ok := <-torn; ok {
		t.Fatalf("torn read mid-race: %s", msg)
	}
	var sum float64
	for cost := range granted {
		sum += cost
	}
	if sum > total+1e-9 {
		t.Fatalf("successful charges sum to %v, past the total %v", sum, total)
	}
	if got := s.Spent(); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("Spent = %v, but the granted charges sum to %v", got, sum)
	}
}
