package experiments

import (
	"strings"
	"testing"

	"funcmech/internal/core"
)

// TestTaskByName: only the paper's two case studies resolve, each to its
// task-table row. Every other name, the registry's median and ridge
// included, fails with an error that names the two the harness evaluates.
func TestTaskByName(t *testing.T) {
	for _, name := range []string{core.TaskNameLinear, core.TaskNameLogistic} {
		want, _ := core.LookupTask(name)
		spec, err := TaskByName(name)
		if err != nil || spec != want {
			t.Errorf("TaskByName(%q) = %+v, %v; want the row %+v", name, spec, err, want)
		}
	}
	for _, name := range []string{core.TaskNameMedian, core.TaskNameRidge, "quantile", "Linear"} {
		_, err := TaskByName(name)
		if err == nil {
			t.Fatalf("TaskByName(%q) resolved a task the harness does not evaluate", name)
		}
		for _, want := range []string{core.TaskNameLinear, core.TaskNameLogistic, name} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("TaskByName(%q) error %q does not name %q", name, err, want)
			}
		}
	}
}
