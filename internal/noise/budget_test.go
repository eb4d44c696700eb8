package noise

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestBudgetSpend(t *testing.T) {
	b := NewBudget(1.0)
	if err := b.Spend(0.4); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0.6); err != nil {
		t.Fatal(err)
	}
	if r := b.Remaining(); math.Abs(r) > 1e-9 {
		t.Fatalf("Remaining = %v, want 0", r)
	}
	if err := b.Spend(0.01); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}

func TestBudgetOverspendLeavesStateUnchanged(t *testing.T) {
	b := NewBudget(0.5)
	if err := b.Spend(1.0); err == nil {
		t.Fatal("expected overspend error")
	}
	if b.Spent() != 0 {
		t.Fatalf("Spent = %v after failed spend, want 0", b.Spent())
	}
}

func TestBudgetRejectsNonPositiveSpend(t *testing.T) {
	b := NewBudget(1)
	if err := b.Spend(0); !errors.Is(err, ErrInvalidSpend) {
		t.Errorf("Spend(0) = %v, want ErrInvalidSpend", err)
	}
	for _, eps := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if err := b.Spend(eps); !errors.Is(err, ErrInvalidSpend) {
			t.Errorf("Spend(%v) = %v, want ErrInvalidSpend", eps, err)
		}
	}
	if b.Spent() != 0 {
		t.Errorf("Spent = %v after refused spends, want 0", b.Spent())
	}
	// The two failure modes stay distinguishable: a malformed amount is not
	// an exhausted budget, and vice versa.
	if err := b.Spend(-0.1); errors.Is(err, ErrBudgetExhausted) {
		t.Error("invalid spend must not read as exhaustion")
	}
	if err := b.Spend(2); !errors.Is(err, ErrBudgetExhausted) || errors.Is(err, ErrInvalidSpend) {
		t.Errorf("overspend = %v, want pure ErrBudgetExhausted", err)
	}
}

func TestBudgetReplaySpend(t *testing.T) {
	b := NewBudget(1)
	b.ReplaySpend(0.25)
	b.ReplaySpend(0.25)
	if got := b.Spent(); got != 0.5 {
		t.Fatalf("Spent = %v after two replayed 0.25 charges, want 0.5", got)
	}
	// A replayed charge that was also folded into a snapshot can push the sum
	// past the total; the clamp keeps spent ≤ total (fully exhausted, which
	// errs against utility, never privacy) instead of erroring a boot.
	b.ReplaySpend(0.9)
	if got := b.Spent(); got != 1 {
		t.Fatalf("Spent = %v after over-replay, want clamp at total 1", got)
	}
	if r := b.Remaining(); r != 0 {
		t.Fatalf("Remaining = %v after over-replay, want 0", r)
	}
	// Garbage amounts (a corrupt journal would have failed its CRC anyway)
	// are ignored, never subtracted.
	b2 := NewBudget(1)
	b2.ReplaySpend(-0.5)
	b2.ReplaySpend(0)
	if got := b2.Spent(); got != 0 {
		t.Fatalf("Spent = %v after non-positive replays, want 0", got)
	}
}

func TestNewBudgetRejectsNonPositive(t *testing.T) {
	for _, eps := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBudget(%v) must panic", eps)
				}
			}()
			NewBudget(eps)
		}()
	}
}

func TestBudgetLemma5DoubleSpend(t *testing.T) {
	// The resampling variant costs 2ε (paper Lemma 5): two Spend(ε) calls on
	// a 2ε budget must succeed, a third must not.
	eps := 0.8
	b := NewBudget(2 * eps)
	if err := b.Spend(eps); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(eps); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(eps); err == nil {
		t.Fatal("third ε spend must exhaust a 2ε budget")
	}
}

func TestBudgetConcurrentSpend(t *testing.T) {
	b := NewBudget(100)
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- b.Spend(1)
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
		t.Fatalf("%d spends succeeded on a budget of 100 unit spends", ok)
	}
	if r := b.Remaining(); r > 1e-9 {
		t.Fatalf("Remaining = %v, want 0", r)
	}
}

func TestBudgetConcurrentSpendNeverOversubscribes(t *testing.T) {
	// The serving-layer invariant: whatever mixture of spends races against
	// one budget, the sum of the *successful* ones never exceeds the total.
	// Uneven amounts make torn check-then-add interleavings (the bug a
	// non-atomic Spend would have) far more likely to surface than a uniform
	// unit spend, and concurrent readers give the race detector Load/Spend
	// conflicts to chase.
	const (
		total      = 1.0
		goroutines = 64
		spends     = 50
	)
	b := NewBudget(total)
	done := make(chan struct{})
	go func() { // hammer the read path concurrently with spends
		for {
			select {
			case <-done:
				return
			default:
				if b.Spent() > b.Total()+1e-9 || b.Remaining() < 0 {
					panic("budget invariant violated mid-flight")
				}
			}
		}
	}()
	granted := make(chan float64, goroutines*spends)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < spends; i++ {
				eps := 0.001 * float64(1+(g+i)%7)
				if b.Spend(eps) == nil {
					granted <- eps
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	close(granted)
	var sum float64
	for eps := range granted {
		sum += eps
	}
	if sum > total+1e-9 {
		t.Fatalf("successful spends sum to %v, exceeding the total budget %v", sum, total)
	}
	if got := b.Spent(); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("Spent = %v, but granted spends sum to %v", got, sum)
	}
}

func TestBudgetAccessors(t *testing.T) {
	b := NewBudget(2)
	_ = b.Spend(0.5)
	if b.Total() != 2 {
		t.Errorf("Total = %v", b.Total())
	}
	if b.Spent() != 0.5 {
		t.Errorf("Spent = %v", b.Spent())
	}
	if b.Remaining() != 1.5 {
		t.Errorf("Remaining = %v", b.Remaining())
	}
}
