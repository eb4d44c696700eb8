package experiments

import (
	"strings"
	"testing"

	"funcmech/internal/core"
)

// TestTaskByName: only the paper's two case studies resolve. Every other
// name, the registry's median and ridge included, fails with an error that
// names the two the harness evaluates.
func TestTaskByName(t *testing.T) {
	for name, want := range map[string]TaskKind{
		core.TaskNameLinear:   TaskLinear,
		core.TaskNameLogistic: TaskLogistic,
	} {
		kind, err := TaskByName(name)
		if err != nil || kind != want {
			t.Errorf("TaskByName(%q) = %v, %v; want %v", name, kind, err, want)
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
