package noise

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrBudgetExhausted is returned by Budget.Spend when the requested ε exceeds
// what remains.
var ErrBudgetExhausted = errors.New("noise: privacy budget exhausted")

// ErrInvalidSpend is returned by Budget.Spend for a request that is not a
// valid ε amount (not finite and positive). It is typed so a serving layer
// can map it to a client error (the request was malformed) instead of a
// server failure.
var ErrInvalidSpend = errors.New("noise: invalid spend")

// Budget is a sequential-composition privacy accountant: mechanisms draw
// portions of a total ε and the accountant guarantees the sum of successful
// draws never exceeds it. It is safe for concurrent use.
//
// The paper's Lemma 5 observation — that re-running Algorithm 1 until the
// noisy objective is bounded doubles the privacy cost — shows up here as two
// Spend calls of ε each.
type Budget struct {
	mu    sync.Mutex
	total float64
	spent float64
}

// NewBudget returns an accountant for a total budget of eps, which must be
// finite and positive.
func NewBudget(eps float64) *Budget {
	if !(eps > 0) || math.IsInf(eps, 1) { // NaN fails eps > 0
		panic(fmt.Sprintf("noise: total budget %v is not finite and positive", eps))
	}
	return &Budget{total: eps}
}

// Spend consumes eps from the budget or returns ErrBudgetExhausted (leaving
// the budget unchanged).
func (b *Budget) Spend(eps float64) error {
	if !(eps > 0) || math.IsInf(eps, 1) {
		return fmt.Errorf("%w: spend %v is not finite and positive", ErrInvalidSpend, eps)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	const slack = 1e-12 // forgive float round-off on exact exhaustion
	if b.spent+eps > b.total+slack {
		return fmt.Errorf("%w: requested %v, remaining %v", ErrBudgetExhausted, eps, b.total-b.spent)
	}
	b.spent += eps
	return nil
}

// RestoreSpent sets the consumed budget to spent, replacing the current
// value — the restart-recovery path for a serving layer that persists its
// accountants: a process that rebuilt its state from a snapshot restores the
// tenant's lifetime spend before serving, so a restart can never reset
// privacy accounting. The value must lie in [0, Total] (round-off slack
// forgiven).
func (b *Budget) RestoreSpent(spent float64) error {
	const slack = 1e-12
	if !(spent >= 0 && spent <= b.total+slack) { // NaN fails both
		return fmt.Errorf("noise: restored spend %v outside [0, %v]", spent, b.total)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spent = spent
	return nil
}

// ReplaySpend adds eps to the consumed budget unconditionally, clamping at
// the total. It is the crash-recovery path for write-ahead-logged charges:
// a journaled debit may have raced a snapshot that already folded it in, so
// re-applying can push the sum past the total — clamping keeps the invariant
// spent ≤ total while erring on the side of over-counting, which costs
// utility, never privacy. Amounts that are not positive, NaN included, are
// ignored; +Inf exhausts the budget, the conservative reading.
func (b *Budget) ReplaySpend(eps float64) {
	if !(eps > 0) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spent += eps
	if b.spent > b.total {
		b.spent = b.total
	}
}

// Remaining returns the unspent budget.
func (b *Budget) Remaining() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.total - b.spent
	if r < 0 {
		r = 0
	}
	return r
}

// Total returns the configured total budget.
func (b *Budget) Total() float64 { return b.total }

// Spent returns the consumed budget.
func (b *Budget) Spent() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent
}

// Snapshot returns (total, spent, remaining) under one lock acquisition, so
// a metrics scrape reading all three can never observe a torn state where
// spent + remaining ≠ total because a charge landed between calls.
func (b *Budget) Snapshot() (total, spent, remaining float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	remaining = b.total - b.spent
	if remaining < 0 {
		remaining = 0
	}
	return b.total, b.spent, remaining
}
