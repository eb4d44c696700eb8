package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// admitN takes n tokens from g and returns their grants.
func admitN(t *testing.T, g *Governor, n int) []Grant {
	t.Helper()
	grants := make([]Grant, n)
	for i := range grants {
		gr, err := g.Admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		grants[i] = gr
	}
	return grants
}

func TestGovernorGrantsWithinCap(t *testing.T) {
	g := NewGovernor(4)
	a := admitN(t, g, 1)[0]
	n1, rel1 := a.Acquire(3)
	if n1 != 3 {
		t.Fatalf("Acquire(3) on an idle pool granted %d, want 3", n1)
	}
	b := admitN(t, g, 1)[0]
	if got := g.InUse(); got != 4 {
		t.Fatalf("InUse = %d, want 4", got)
	}

	// Every token is held: the grant's own token is its one worker, and
	// Acquire returns at once instead of waiting for more.
	done := make(chan int, 1)
	go func() {
		n, rel := b.Acquire(8)
		rel()
		done <- n
	}()
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("Acquire(8) with every token held granted %d, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire(8) blocked with every token held")
	}

	rel1()
	rel1() // idempotent
	if got := g.InUse(); got != 2 {
		t.Fatalf("InUse after the kernel release = %d, want 2", got)
	}
	a.Release()
	b.Release()
	if got := g.InUse(); got != 0 {
		t.Fatalf("InUse after all releases = %d, want 0", got)
	}
}

func TestGovernorBlocksUntilCapacityFrees(t *testing.T) {
	g := NewGovernor(2)
	held := admitN(t, g, 2)
	admitted := make(chan Grant)
	go func() {
		gr, err := g.Admit(context.Background())
		if err != nil {
			t.Error(err)
			return
		}
		admitted <- gr
	}()
	waitFor(t, "one Admit blocked", func() bool { return g.Waiting() == 1 })
	select {
	case <-admitted:
		t.Fatal("Admit returned while every token was held")
	case <-time.After(20 * time.Millisecond):
	}
	held[0].Release()
	select {
	case gr := <-admitted:
		held[0] = gr
	case <-time.After(2 * time.Second):
		t.Fatal("Admit stayed blocked after a token freed")
	}
	if got := g.Waiting(); got != 0 {
		t.Fatalf("Waiting = %d after admission, want 0", got)
	}

	// A cancelled context gives up without taking a token, whether it was
	// cancelled before the call or while waiting.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expiring, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	for _, c := range []struct {
		ctx  context.Context
		want error
	}{{cancelled, context.Canceled}, {expiring, context.DeadlineExceeded}} {
		errc := make(chan error, 1)
		go func() {
			_, err := g.Admit(c.ctx)
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, c.want) {
				t.Fatalf("Admit = %v, want %v", err, c.want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Admit still waiting with a context that ended in %v", c.want)
		}
	}
	if got := g.InUse(); got != 2 {
		t.Fatalf("InUse = %d after cancelled Admits, want 2", got)
	}
	if got := g.Waiting(); got != 0 {
		t.Fatalf("Waiting = %d after cancelled Admits, want 0", got)
	}
	for _, gr := range held {
		gr.Release()
	}
}

// TestGovernorInvariantUnderLoad is the gate's core promise: across many
// goroutines admitting and widening by random amounts, the tokens held never
// exceed the cap at any instant.
func TestGovernorInvariantUnderLoad(t *testing.T) {
	const (
		capacity   = 4
		goroutines = 16
		rounds     = 200
	)
	g := NewGovernor(capacity)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				gr, err := g.Admit(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				want := 1 + rng.Intn(2*capacity)
				n, rel := gr.Acquire(want)
				if n < 1 || n > want {
					t.Errorf("Acquire(%d) granted %d, want within [1, %d]", want, n, want)
				}
				if used := g.InUse(); used > capacity {
					t.Errorf("%d tokens held, cap %d", used, capacity)
				}
				rel()
				gr.Release()
			}
		}(int64(i))
	}
	wg.Wait()
	if got := g.InUse(); got != 0 {
		t.Fatalf("InUse = %d after all releases, want 0", got)
	}
}

func TestGovernorDefaultsToGOMAXPROCS(t *testing.T) {
	if got := NewGovernor(0).Cap(); got < 1 {
		t.Fatalf("Cap = %d, want ≥ 1", got)
	}
}
