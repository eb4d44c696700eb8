package core

import (
	"math/rand"
	"sync"
	"testing"
)

// recordingGovernor grants a fixed worker count and records what was asked.
type recordingGovernor struct {
	mu       sync.Mutex
	grant    int
	requests []int
	releases int
}

func (g *recordingGovernor) Acquire(want int) (int, func()) {
	g.mu.Lock()
	g.requests = append(g.requests, want)
	g.mu.Unlock()
	return g.grant, func() {
		g.mu.Lock()
		g.releases++
		g.mu.Unlock()
	}
}

func TestGovernedObjectiveHonorsGrant(t *testing.T) {
	// 3×2048 records resolve to 3 workers ungoverned; a governor granting 1
	// must force the serial path, whose result is bit-identical to the
	// reference serial sweep.
	ds := randomTaskDataset(t, LinearTask{}, 3*2048, 3, 99)
	gov := &recordingGovernor{grant: 1}
	got := governedObjective(LinearTask{}, ds, 3, gov, nil)
	want := ParallelObjective(LinearTask{}, ds, 1)
	if len(gov.requests) != 1 || gov.requests[0] != 3 {
		t.Fatalf("governor saw requests %v, want one request for 3 workers", gov.requests)
	}
	if gov.releases != 1 {
		t.Fatalf("governor released %d times, want exactly 1", gov.releases)
	}
	if worst, ok := quadraticsClose(got, want, 0); !ok {
		t.Fatalf("granted-1 objective differs from serial sweep by %v, want bit-identical", worst)
	}
}

func TestGovernedObjectiveNeverWidensBeyondRequest(t *testing.T) {
	// A buggy governor granting more than asked must not widen the pool: a
	// grant only narrows, so the result stays bit-identical to the
	// ungoverned run at the requested parallelism.
	ds := randomTaskDataset(t, LinearTask{}, 2*2048, 3, 5)
	gov := &recordingGovernor{grant: 64}
	got := governedObjective(LinearTask{}, ds, 2, gov, nil)
	want := ParallelObjective(LinearTask{}, ds, 2)
	if worst, ok := quadraticsClose(got, want, 0); !ok {
		t.Fatalf("over-granted objective differs from parallelism-2 run by %v", worst)
	}
}

func TestGovernedObjectiveNilGovernor(t *testing.T) {
	ds := randomTaskDataset(t, LinearTask{}, 100, 3, 1)
	got := governedObjective(LinearTask{}, ds, 1, nil, nil)
	want := ParallelObjective(LinearTask{}, ds, 1)
	if worst, ok := quadraticsClose(got, want, 0); !ok {
		t.Fatalf("nil-governor objective differs from ParallelObjective by %v", worst)
	}
}

func TestRunThreadsGovernorThroughOptions(t *testing.T) {
	ds := randomTaskDataset(t, LinearTask{}, 3*2048, 3, 42)
	gov := &recordingGovernor{grant: 2}
	if _, err := Run(LinearTask{}, ds, 1.0, rand.New(rand.NewSource(1)), Options{Governor: gov, Parallelism: 3}); err != nil {
		t.Fatal(err)
	}
	if len(gov.requests) != 1 {
		t.Fatalf("governor saw %d requests, want 1", len(gov.requests))
	}
	if gov.releases != 1 {
		t.Fatalf("governor released %d times, want 1", gov.releases)
	}
}
