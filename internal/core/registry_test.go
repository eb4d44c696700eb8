package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"funcmech/internal/linalg"
	"funcmech/internal/poly"
)

func TestRegistryBuiltins(t *testing.T) {
	want := []string{TaskNameLinear, TaskNameLogistic, TaskNameMedian, TaskNameRidge}
	if got := TaskNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TaskNames() = %v, want %v", got, want)
	}
	var folds []string
	for _, s := range FoldSpecs() {
		folds = append(folds, s.Name)
	}
	if want := []string{TaskNameLinear, TaskNameLogistic, TaskNameMedian}; !reflect.DeepEqual(folds, want) {
		t.Fatalf("fold specs = %v, want %v", folds, want)
	}
	var gram []string
	for _, s := range FoldSpecs() {
		if s.SharesGram {
			gram = append(gram, s.Name)
		}
	}
	if want := []string{TaskNameLinear, TaskNameLogistic}; !reflect.DeepEqual(gram, want) {
		t.Fatalf("folds sharing the Gram = %v, want %v", gram, want)
	}
	ridge, ok := LookupTask(TaskNameRidge)
	if !ok || ridge.Fold != TaskNameLinear {
		t.Fatalf("ridge spec: ok=%v fold=%q, want fold %q", ok, ridge.Fold, TaskNameLinear)
	}
	for _, s := range TaskSpecs() {
		if s.Degree != 2 {
			t.Errorf("task %q: degree=%d, want degree 2", s.Name, s.Degree)
		}
		if s.SensitivityFormula == "" {
			t.Errorf("task %q has no documented sensitivity formula", s.Name)
		}
	}
}

// gramShareError reports why row s may not share the Gram: a label its
// target rule allows — random values in [−1, 1], ±1 and 0, or {0, 1} for a
// boolean target — at which the task's c2 is not 1, or a finalization that
// is not exactly gramScale times the Gram, the scaling StateOver and
// GramFromState apply to a snapshot column. A row without the mark passes.
func gramShareError(s TaskSpec, rng *rand.Rand) error {
	if !s.SharesGram {
		return nil
	}
	labels := []float64{0, 1}
	if s.Target != TargetBoolean {
		labels = append(labels, -1)
		for range 200 {
			labels = append(labels, rng.Float64()*2-1)
		}
	}
	for _, y := range labels {
		if _, _, c2 := s.Task.Coefficients(y); c2 != 1 {
			return fmt.Errorf("c2 = %v at label %v, want 1", c2, y)
		}
	}
	const d = 5
	gram := linalg.NewMatrix(d, d)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := rng.NormFloat64()
			gram.Set(a, b, v)
			gram.Set(b, a, v)
		}
	}
	q := &poly.Quadratic{M: gram.Clone(), Alpha: make([]float64, d)}
	s.Task.FinalizeObjective(q, 1+rng.Intn(1000))
	scale := gramScale(s.Task)
	for a := 0; a < d; a++ {
		for b := 0; b < d; b++ {
			if want := gram.At(a, b) * scale; math.Float64bits(q.M.At(a, b)) != math.Float64bits(want) {
				return fmt.Errorf("finalized M[%d,%d] = %v, not %v × the Gram's %v", a, b, q.M.At(a, b), scale, gram.At(a, b))
			}
		}
	}
	return nil
}

// TestGramShareCheckCatchesLabelDependentCurvature is the negative control
// for gramShareError: a row marked SharesGram whose task is median's, with
// its label-dependent c2, is caught, and so is one whose finalization adds
// a ridge penalty rather than scaling the Gram.
func TestGramShareCheckCatchesLabelDependentCurvature(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, task := range []Task{MedianTask{}, RidgeTask{Weight: 0.5}} {
		row := TaskSpec{Name: "marked", Task: task, Fold: "marked", Target: TargetNormalized, SharesGram: true}
		if err := gramShareError(row, rng); err == nil {
			t.Errorf("a %s row marked SharesGram passed the check", task.Name())
		}
	}
}

// TestTaskTableWellFormed checks the invariants the static table's readers
// rely on: rows sorted by unique name, every fold a row that folds itself
// with the same per-record task, a ridge policy New can honour, and a
// SharesGram mark only where the task's c2 is 1 for every label.
func TestTaskTableWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := TaskSpecs()
	for i, s := range specs {
		if err := gramShareError(s, rng); err != nil {
			t.Errorf("task %q is marked SharesGram, but %v", s.Name, err)
		}
		if s.Name == "" || s.Task == nil || s.Degree <= 0 || s.SensitivityFormula == "" {
			t.Errorf("row %d is incomplete: %+v", i, s)
		}
		if i > 0 && specs[i-1].Name >= s.Name {
			t.Errorf("rows %q and %q are not in strictly increasing name order", specs[i-1].Name, s.Name)
		}
		fold, ok := LookupTask(s.Fold)
		switch {
		case !ok || fold.Fold != fold.Name:
			t.Errorf("task %q folds into %q, which is not a fold-defining row", s.Name, s.Fold)
		case fold.Task != s.Task || fold.Target != s.Target || fold.SharesGram != s.SharesGram:
			t.Errorf("task %q shares fold %q but not its per-record task, target rule and Gram", s.Name, s.Fold)
		}
		if s.Fold == s.Name && s.Task.Name() != s.Name {
			t.Errorf("fold row %q carries task %q", s.Name, s.Task.Name())
		}
		if s.NeedsRidgeWeight && !s.AcceptsRidge {
			t.Errorf("task %q needs a ridge weight it does not accept", s.Name)
		}
		// New turns a ridge weight into a RidgeTask, whose per-record
		// coefficients are linear's.
		if s.AcceptsRidge && s.Task != (LinearTask{}) {
			t.Errorf("task %q accepts a ridge weight but does not fold as linear", s.Name)
		}
	}
	if _, ok := LookupTask(""); ok {
		t.Error("LookupTask resolved the empty name")
	}
}

func TestTaskSpecInstantiation(t *testing.T) {
	lin, _ := LookupTask(TaskNameLinear)
	if task, err := lin.New(TaskParams{}); err != nil || task != (LinearTask{}) {
		t.Errorf("linear.New({}) = %v, %v", task, err)
	}
	if task, err := lin.New(TaskParams{RidgeWeight: 0.3}); err != nil || task != (RidgeTask{Weight: 0.3}) {
		t.Errorf("linear.New(0.3) = %v, %v", task, err)
	}
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := lin.New(TaskParams{RidgeWeight: w}); err == nil {
			t.Errorf("linear.New(%v) accepted the weight", w)
		}
	}
	ridge, _ := LookupTask(TaskNameRidge)
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := ridge.New(TaskParams{RidgeWeight: w}); err == nil {
			t.Errorf("ridge.New(%v) accepted the weight", w)
		}
	}
	for _, name := range []string{TaskNameLogistic, TaskNameMedian} {
		s, _ := LookupTask(name)
		for _, w := range []float64{0.1, -1, math.NaN()} {
			if _, err := s.New(TaskParams{RidgeWeight: w}); err == nil {
				t.Errorf("%s.New accepted ridge weight %v", name, w)
			}
		}
		if task, err := s.New(TaskParams{}); err != nil || task == nil {
			t.Errorf("%s.New({}) = %v, %v", name, task, err)
		}
	}
	if _, ok := LookupTask("no-such-task"); ok {
		t.Error("LookupTask invented a task")
	}
}

// TestFinalizeObjectiveAllocatesNothing: every release finalizes a fresh
// copy of its fold (QuadraticOver clones M), so each row's finalization
// works in place. A factor on M that copies it costs a d×d allocation per
// release, which only an allocs/op gate would otherwise see.
func TestFinalizeObjectiveAllocatesNothing(t *testing.T) {
	for _, s := range TaskSpecs() {
		p := TaskParams{}
		if s.NeedsRidgeWeight {
			p.RidgeWeight = 0.5
		}
		task, err := s.New(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		q := poly.NewQuadratic(14)
		if allocs := testing.AllocsPerRun(10, func() { task.FinalizeObjective(q, 100) }); allocs != 0 {
			t.Errorf("%s: FinalizeObjective makes %v allocs/op, want 0", s.Name, allocs)
		}
	}
}
