package core

import (
	"math/rand"
	"testing"

	"funcmech/internal/dataset"
)

// These property-style tests pin the algebra the streaming subsystem rests
// on: record-at-a-time accumulation must equal batch accumulation exactly
// (same fold, same bits), and Merge must behave as a commutative monoid up to
// floating-point re-association (≤ 1e-12 relative). If either property broke,
// an incremental refit could silently diverge from a one-shot fit.

func propertyTasks() []Task {
	return []Task{LinearTask{}, LogisticTask{}, RidgeTask{Weight: 0.25}}
}

// addRows folds records [lo, hi) of ds into a through AddFlat, the way
// governedObjective folds a shard.
func addRows(a *Accumulator, ds *dataset.Dataset, lo, hi int) {
	a.AddFlat(ds.FlatRows(lo, hi), ds.Labels()[lo:hi])
}

// TestAddFlatPerRecordEqualsOneBatch: folding n records one AddFlat call
// each is bit-identical to folding them as one batch — both walk the same
// records in the same order through the same fold, so even the float bits
// must agree.
func TestAddFlatPerRecordEqualsOneBatch(t *testing.T) {
	for _, task := range propertyTasks() {
		t.Run(task.Name(), func(t *testing.T) {
			ds := randomTaskDataset(t, task, 257, 6, 11)
			one := NewAccumulator(task, ds.D())
			for i := 0; i < ds.N(); i++ {
				addRows(one, ds, i, i+1)
			}
			batch := NewAccumulator(task, ds.D())
			addRows(batch, ds, 0, ds.N())
			if one.N() != batch.N() {
				t.Fatalf("record counts differ: %d vs %d", one.N(), batch.N())
			}
			qa, qb := one.Quadratic(), batch.Quadratic()
			if worst, ok := quadraticsClose(qa, qb, 0); !ok {
				t.Fatalf("per-record AddFlat ≠ one batch, worst relative discrepancy %v (want exact)", worst)
			}
		})
	}
}

// TestMergeAssociativeAndOrderIndependent: for random 3-way partitions of a
// dataset, (a⊕b)⊕c and a⊕(b⊕c) and every merge order agree to ≤1e-12
// relative. Exact associativity is impossible in floats; the invariant is
// that re-association stays at round-off, never at model scale.
func TestMergeAssociativeAndOrderIndependent(t *testing.T) {
	const tol = 1e-12
	for _, task := range propertyTasks() {
		t.Run(task.Name(), func(t *testing.T) {
			ds := randomTaskDataset(t, task, 600, 5, 23)
			rng := rand.New(rand.NewSource(31))

			// Random partition into three contiguous slices.
			cut1 := 1 + rng.Intn(ds.N()-2)
			cut2 := cut1 + 1 + rng.Intn(ds.N()-cut1-1)
			build := func(lo, hi int) *Accumulator {
				a := NewAccumulator(task, ds.D())
				addRows(a, ds, lo, hi)
				return a
			}
			parts := func() [3]*Accumulator {
				return [3]*Accumulator{build(0, cut1), build(cut1, cut2), build(cut2, ds.N())}
			}

			// (a⊕b)⊕c — the reference.
			ref := parts()
			left := ref[0].Clone()
			left.Merge(ref[1])
			left.Merge(ref[2])
			refQ := left.Quadratic()

			// a⊕(b⊕c).
			p := parts()
			bc := p[1].Clone()
			bc.Merge(p[2])
			right := p[0].Clone()
			right.Merge(bc)
			if worst, ok := quadraticsClose(refQ, right.Quadratic(), tol); !ok {
				t.Fatalf("merge not associative: worst relative discrepancy %v > %v", worst, tol)
			}
			if right.N() != left.N() {
				t.Fatalf("record counts differ across association: %d vs %d", right.N(), left.N())
			}

			// Every permutation of the merge order.
			for _, perm := range [][3]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
				p := parts()
				acc := p[perm[0]].Clone()
				acc.Merge(p[perm[1]])
				acc.Merge(p[perm[2]])
				if worst, ok := quadraticsClose(refQ, acc.Quadratic(), tol); !ok {
					t.Fatalf("merge order %v diverged: worst relative discrepancy %v > %v", perm, worst, tol)
				}
			}
		})
	}
}

// TestCloneIsIndependent: mutating a clone must not leak into the original —
// the property the refit path's consistent-view snapshot depends on.
func TestCloneIsIndependent(t *testing.T) {
	task := LinearTask{}
	ds := randomTaskDataset(t, task, 64, 4, 7)
	a := NewAccumulator(task, ds.D())
	addRows(a, ds, 0, ds.N())
	before := a.Quadratic()

	c := a.Clone()
	addRows(c, ds, 0, 1)
	if c.N() != a.N()+1 {
		t.Fatalf("clone count %d, want %d", c.N(), a.N()+1)
	}
	after := a.Quadratic()
	if worst, ok := quadraticsClose(before, after, 0); !ok {
		t.Fatalf("mutating a clone changed the original (worst discrepancy %v)", worst)
	}
}

// TestAccumulatorStateRoundTrip: StateOver → Restore into a new accumulator
// reproduces the finalized objective bit-for-bit and keeps accumulating
// correctly.
func TestAccumulatorStateRoundTrip(t *testing.T) {
	for _, task := range propertyTasks() {
		t.Run(task.Name(), func(t *testing.T) {
			ds := randomTaskDataset(t, task, 120, 5, 41)
			a := NewAccumulator(task, ds.D())
			addRows(a, ds, 0, 80)

			back := NewAccumulator(task, ds.D())
			if err := back.Restore(a.StateOver(nil)); err != nil {
				t.Fatal(err)
			}
			if back.N() != a.N() || back.Dim() != a.Dim() {
				t.Fatalf("restored shape n=%d d=%d, want n=%d d=%d", back.N(), back.Dim(), a.N(), a.Dim())
			}
			if worst, ok := quadraticsClose(a.Quadratic(), back.Quadratic(), 0); !ok {
				t.Fatalf("state round trip drifted: worst discrepancy %v (want exact)", worst)
			}

			// Continue streaming on both; they must stay in lockstep.
			addRows(a, ds, 80, ds.N())
			addRows(back, ds, 80, ds.N())
			if worst, ok := quadraticsClose(a.Quadratic(), back.Quadratic(), 0); !ok {
				t.Fatalf("post-restore streaming drifted: worst discrepancy %v (want exact)", worst)
			}
		})
	}
}

// TestAccumulatorFromStateRejectsCorruptState: Restore must catch shape
// errors, not panic downstream.
func TestAccumulatorFromStateRejectsCorruptState(t *testing.T) {
	good := NewAccumulator(LinearTask{}, 3)
	good.AddFlat([]float64{0.1, 0.2, 0.3}, []float64{0.5})

	cases := map[string]AccumulatorState{
		"empty":        {},
		"negative n":   func() AccumulatorState { s := good.StateOver(nil); s.N = -1; return s }(),
		"no matrix":    func() AccumulatorState { s := good.StateOver(nil); s.MU = nil; return s }(),
		"short packed": func() AccumulatorState { s := good.StateOver(nil); s.MU = s.MU[:2]; return s }(),
	}
	for name, st := range cases {
		if err := NewAccumulator(LinearTask{}, 3).Restore(st); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestQuadraticAsRidge: finalizing a linear accumulator as RidgeTask equals
// accumulating under RidgeTask directly — the shared-accumulator property
// that lets one stream serve both linear and ridge refits.
func TestQuadraticAsRidge(t *testing.T) {
	ds := randomTaskDataset(t, LinearTask{}, 200, 4, 13)
	lin := NewAccumulator(LinearTask{}, ds.D())
	addRows(lin, ds, 0, ds.N())

	ridge := RidgeTask{Weight: 0.7}
	direct := NewAccumulator(ridge, ds.D())
	addRows(direct, ds, 0, ds.N())

	if worst, ok := quadraticsClose(lin.QuadraticOver(nil, ridge), direct.Quadratic(), 0); !ok {
		t.Fatalf("QuadraticOver(nil, ridge) ≠ ridge accumulation: worst discrepancy %v (want exact)", worst)
	}
}
