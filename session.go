package funcmech

import (
	"errors"
	"fmt"
	"sync"

	"funcmech/internal/noise"
)

// Session is the library's privacy accountant: it tracks a total privacy
// budget across multiple analyses of the same underlying population — the
// sequential-composition discipline of differential privacy. Every fit
// debits the session before touching the data; once the budget is exhausted
// further fits fail rather than silently eroding the guarantee. Which ε is
// usable at all — finite and positive — is noise.CheckEpsilon's rule, which
// the Release constructors and NewSession both apply.
//
//	s := funcmech.NewSession(1.0)                   // lifetime ε = 1.0
//	m1, _, err := s.FitTask(ds, "linear", 0.5)      // spends 0.5
//	m2, _, err := s.FitTask(ds2, "logistic", 0.5,   // spends the rest
//	    funcmech.WithBinarizeThreshold(35000))
//	_, _, err = s.FitTask(ds, "median", 0.1)        // ErrBudgetExhausted
//
// Note the Resample post-processing option costs 2ε (Lemma 5); the session
// charges the doubled amount. A request the Release constructors refuse,
// for its task, options or ε at its d, is refused before the debit and
// costs nothing. A fit that fails after the debit (e.g. a record outside
// the target rule) still consumes its budget: whether the pipeline errored
// on the data is itself data-dependent information, so refunding it would
// be unsound.
//
// A Session is safe for concurrent use: the accountant debits atomically
// before any fit touches the data (charge-then-fit), so goroutines racing on
// the same session can never jointly overspend the lifetime ε — losers of
// the race get ErrBudgetExhausted. This is the discipline a multi-tenant
// serving layer leans on; see internal/serve.
type Session struct {
	mu    sync.Mutex
	total float64 // fixed at NewSession
	spent float64
}

// ErrBudgetExhausted is returned when a charge would exceed the session
// budget.
var ErrBudgetExhausted = errors.New("funcmech: privacy budget exhausted")

// ErrInvalidSpend is returned when a release names an ε that is not finite
// and positive (noise.CheckEpsilon, the one rule for a usable ε), or whose
// Laplace scale overflows at the release's d (noise.CheckScale) — a
// malformed request, distinct from an exhausted budget. Serving layers map
// it to a client error (HTTP 400) rather than a server failure.
var ErrInvalidSpend = noise.ErrInvalidSpend

// chargeSlack forgives float round-off when a budget is spent exactly, and
// when a restored spend sits a rounding error above the total.
const chargeSlack = 1e-12

// NewSession returns a session with the given total ε. It panics for a
// budget that is not finite and positive (a programming error).
func NewSession(totalEpsilon float64) *Session {
	if err := noise.CheckEpsilon(totalEpsilon); err != nil {
		panic(fmt.Sprintf("funcmech: session total: %v", err))
	}
	return &Session{total: totalEpsilon}
}

// RestoreSpent sets the session's consumed budget, replacing the current
// value. It exists for serving layers that persist per-tenant accountants
// and restore them on boot (see internal/serve): differential privacy's
// sequential composition is a lifetime property of the data, so a tenant's
// ε-spend must survive process restarts even though the Session itself is
// in-memory. The value must lie in [0, Total()] (round-off slack forgiven).
func (s *Session) RestoreSpent(spent float64) error {
	if !(spent >= 0 && spent <= s.total+chargeSlack) { // NaN fails both
		return fmt.Errorf("funcmech: restored spend %v outside [0, %v]", spent, s.total)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spent = spent
	return nil
}

// Remaining returns the unspent budget.
func (s *Session) Remaining() float64 {
	_, _, remaining := s.Snapshot()
	return remaining
}

// Spent returns the consumed budget.
func (s *Session) Spent() float64 {
	_, spent, _ := s.Snapshot()
	return spent
}

// Total returns the configured lifetime budget.
func (s *Session) Total() float64 { return s.total }

// Snapshot returns (total, spent, remaining) read atomically, so a metrics
// scrape never observes a torn state where spent + remaining ≠ total because
// a concurrent charge landed between reads.
func (s *Session) Snapshot() (total, spent, remaining float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total, s.spent, max(s.total-s.spent, 0)
}

// Charge debits the accountant for r and returns the cost it debited: ε,
// or 2ε under Resample (Lemma 5). A Release's constructor has already
// refused everything the library would refuse of the request, so Charge
// checks only the budget: exhaustion wraps ErrBudgetExhausted and leaves
// the accountant unchanged. It exists for serving layers that must
// interpose a durability step between the debit and the noise — charge,
// journal the returned cost to a write-ahead log, then Run — so a crash
// after the debit can only ever over-count the spend.
func (s *Session) Charge(r *Release) (float64, error) {
	cost := r.cost()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spent+cost > s.total+chargeSlack {
		return 0, fmt.Errorf("%w: requested %v, remaining %v", ErrBudgetExhausted, cost, s.total-s.spent)
	}
	s.spent += cost
	return cost, nil
}

// ReplaySpend re-applies a journaled charge during crash recovery: the
// amount is added to the consumed budget unconditionally, clamped at
// Total(). A journaled debit may have raced a snapshot that already folded
// it in, so over-counting (a charge both snapshotted and replayed) costs
// utility; under-counting would cost privacy, so the clamp is the only
// forgiveness. An amount that is not positive, NaN included, is ignored;
// +Inf exhausts the budget, the conservative reading. See the serving
// layer's write-ahead log.
func (s *Session) ReplaySpend(cost float64) {
	if !(cost > 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spent = min(s.spent+cost, s.total)
}

// FitTask is FitTask debited against the session budget: NewRelease,
// Charge, then Run. What NewRelease refuses is refused before the debit.
func (s *Session) FitTask(ds *Dataset, task string, epsilon float64, opts ...Option) (*TaskModel, *Report, error) {
	return s.run(NewRelease(ds, task, epsilon, opts...))
}

// FitTaskFromAccumulator is FitTaskFromAccumulator debited against the
// session budget: NewReleaseFromAccumulator, Charge, then Run. A refit is
// charged exactly like a one-shot fit: noise is drawn fresh per release,
// so every release costs its full ε under sequential composition even
// though no record is rescanned. What NewReleaseFromAccumulator refuses is
// refused before the debit.
func (s *Session) FitTaskFromAccumulator(a *Accumulator, task string, epsilon float64, opts ...Option) (*TaskModel, *Report, error) {
	return s.run(NewReleaseFromAccumulator(a, task, epsilon, opts...))
}

// run charges a release a constructor accepted and runs it once the debit
// stands.
func (s *Session) run(r *Release, err error) (*TaskModel, *Report, error) {
	if err == nil {
		_, err = s.Charge(r)
	}
	if err != nil {
		return nil, nil, err
	}
	return r.Run(nil)
}
