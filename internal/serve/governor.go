package serve

import (
	"context"
	"runtime"
	"sync/atomic"
)

// Governor is the server's one admission gate: a pool of worker tokens that
// every CPU-bound request draws from, so that
//
//	fits in flight + ingest folds + extra kernel workers ≤ cap
//
// holds at every instant. A fit takes its token with Admit before it is
// charged, so a client that gives up while queued costs no ε; after that,
// nothing waits — the fit's kernel widens only onto tokens that are free at
// that moment (Grant.Acquire).
type Governor struct {
	tokens  chan struct{} // one element per token held
	waiting atomic.Int32  // Admit calls blocked on a full pool (fm_governor_queued)
}

// NewGovernor returns a governor with the given token capacity; cap ≤ 0
// means runtime.GOMAXPROCS(0).
func NewGovernor(capacity int) *Governor {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &Governor{tokens: make(chan struct{}, capacity)}
}

// Cap returns the token capacity.
func (g *Governor) Cap() int { return cap(g.tokens) }

// InUse returns the tokens currently held.
func (g *Governor) InUse() int { return len(g.tokens) }

// Waiting returns how many Admit calls are blocked on a full pool — the
// governor's queue depth, a saturation signal an operator can alert on long
// before latency quantiles move.
func (g *Governor) Waiting() int { return int(g.waiting.Load()) }

// Admit takes one token, waiting until one frees or ctx is done; on
// cancellation it returns ctx's error and holds nothing. The caller must
// Release the grant exactly once.
func (g *Governor) Admit(ctx context.Context) (Grant, error) {
	select {
	case g.tokens <- struct{}{}:
		return Grant{g}, nil
	default:
	}
	g.waiting.Add(1)
	var err error
	select {
	case g.tokens <- struct{}{}:
	case <-ctx.Done():
		err = ctx.Err()
	}
	g.waiting.Add(-1)
	if err != nil {
		return Grant{}, err
	}
	return Grant{g}, nil
}

// take adds up to n tokens without waiting and reports how many it got.
func (g *Governor) take(n int) (got int) {
	for ; got < n; got++ {
		select {
		case g.tokens <- struct{}{}:
		default:
			return got
		}
	}
	return got
}

// put returns n tokens.
func (g *Governor) put(n int) {
	for ; n > 0; n-- {
		<-g.tokens
	}
}

// Grant is one admitted request's token. It implements funcmech.Governor,
// so only an admitted fit can widen its kernel.
type Grant struct{ g *Governor }

// Release returns the admission token.
func (gr Grant) Release() { gr.g.put(1) }

// Acquire implements funcmech.Governor without ever blocking: the admission
// token is the first worker, and the fit widens onto as many of the other
// want−1 as are free right now. The returned release func gives the extra
// tokens back; calling it again is a no-op.
func (gr Grant) Acquire(want int) (int, func()) {
	extra := gr.g.take(want - 1)
	return 1 + extra, func() {
		gr.g.put(extra)
		extra = 0
	}
}
