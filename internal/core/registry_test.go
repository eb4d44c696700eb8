package core

import (
	"math"
	"reflect"
	"testing"
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

// TestTaskTableWellFormed checks the invariants the static table's readers
// rely on: rows sorted by unique name, every fold a row that folds itself
// with the same per-record task, and a ridge policy New can honour.
func TestTaskTableWellFormed(t *testing.T) {
	specs := TaskSpecs()
	for i, s := range specs {
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
		case fold.Task != s.Task || fold.Target != s.Target:
			t.Errorf("task %q shares fold %q but not its per-record task and target rule", s.Name, s.Fold)
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
	for _, w := range []float64{-1, math.NaN()} {
		if _, err := lin.New(TaskParams{RidgeWeight: w}); err == nil {
			t.Errorf("linear.New(%v) accepted the weight", w)
		}
	}
	ridge, _ := LookupTask(TaskNameRidge)
	for _, w := range []float64{0, -1, math.NaN()} {
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
