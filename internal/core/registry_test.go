package core

import (
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

func TestRegisterTaskRejectsBadSpecs(t *testing.T) {
	if err := RegisterTask(TaskSpec{}); err == nil {
		t.Error("empty spec registered")
	}
	if err := RegisterTask(TaskSpec{Name: "x", Degree: 2}); err == nil {
		t.Error("spec without fold task registered")
	}
	if err := RegisterTask(TaskSpec{
		Name: TaskNameLinear, Degree: 2, Task: LinearTask{},
		New: func(TaskParams) (Task, error) { return LinearTask{}, nil },
	}); err == nil {
		t.Error("duplicate name registered")
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
	if _, err := lin.New(TaskParams{RidgeWeight: -1}); err == nil {
		t.Error("linear.New(-1) accepted a negative weight")
	}
	ridge, _ := LookupTask(TaskNameRidge)
	if _, err := ridge.New(TaskParams{}); err == nil {
		t.Error("ridge.New({}) accepted a zero weight")
	}
	for _, name := range []string{TaskNameLogistic, TaskNameMedian} {
		s, _ := LookupTask(name)
		if _, err := s.New(TaskParams{RidgeWeight: 0.1}); err == nil {
			t.Errorf("%s.New accepted a ridge weight", name)
		}
		if task, err := s.New(TaskParams{}); err != nil || task == nil {
			t.Errorf("%s.New({}) = %v, %v", name, task, err)
		}
	}
	if _, ok := LookupTask("no-such-task"); ok {
		t.Error("LookupTask invented a task")
	}
}
