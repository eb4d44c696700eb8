package core

import (
	"fmt"
	"math"
	"sort"

	"funcmech/internal/dataset"
)

// Canonical task names. Every task-name string literal in the module lives
// in this package (enforced by the taskreg fmlint analyzer); everything else
// resolves tasks through the task table or references these constants.
const (
	TaskNameLinear   = "linear"
	TaskNameRidge    = "ridge"
	TaskNameLogistic = "logistic"
	TaskNameMedian   = "median"
)

// TargetRule says how a task derives its per-record training label from the
// raw target value. The rule itself — and the record rule that applies it —
// lives with the normalization in internal/dataset; the task table names a
// rule per row.
type TargetRule = dataset.TargetRule

// The target rules, re-exported from internal/dataset.
const (
	TargetNormalized = dataset.TargetNormalized
	TargetBoolean    = dataset.TargetBoolean
)

// TaskParams carries the per-fit parameters a task instantiation may accept.
type TaskParams struct {
	// RidgeWeight is the λ‖ω‖² penalty weight; zero means unpenalized.
	RidgeWeight float64
}

// TaskSpec is one row of the task table: everything the serving stack needs
// to validate, accumulate, refit and document the task without naming it in
// control flow.
type TaskSpec struct {
	// Name is the table key ("linear", "median", …).
	Name string
	// Degree is the polynomial degree of the released objective.
	Degree int
	// Task is the task whose per-record coefficient sums the spec's fold
	// maintains, and the task New releases when no ridge weight is given.
	Task Task
	// Fold names the accumulator fold this task refits from. Tasks whose
	// per-record contributions coincide share a fold: ridge refits from the
	// "linear" fold because its penalty is data-independent.
	Fold string
	// Target is the label-derivation rule the ingestion layers apply.
	Target TargetRule
	// SharesGram marks a task whose per-record c2 is 1 for every label, so
	// that its unfinalized M is the Gram XᵀX: an accumulator folds the Gram
	// once for every such fold, and each keeps only its n, α and β (see
	// NewFold). Any factor on M belongs to the task's FinalizeObjective.
	SharesGram bool
	// AcceptsRidge reports whether the task takes an optional ridge weight,
	// which New turns into a RidgeTask over the row's (linear) fold;
	// NeedsRidgeWeight additionally makes a positive weight mandatory.
	AcceptsRidge     bool
	NeedsRidgeWeight bool
	// SensitivityFormula is the documented closed form of Sensitivity, kept
	// here so scripts/check_docs.sh can machine-check the docs tables
	// against the table source.
	SensitivityFormula string
}

// New instantiates the task for one fit, enforcing the row's ridge policy:
// a weight is refused unless AcceptsRidge, required when NeedsRidgeWeight,
// and must be a finite number ≥ 0.
func (s TaskSpec) New(p TaskParams) (Task, error) {
	w := p.RidgeWeight
	switch {
	case w != 0 && !s.AcceptsRidge:
		return nil, fmt.Errorf("core: task %q takes no ridge weight", s.Name)
	case !finiteNonNegative(w):
		return nil, fmt.Errorf("core: ridge weight %v is not a finite number ≥ 0", w)
	case w == 0 && s.NeedsRidgeWeight:
		return nil, fmt.Errorf("core: task %q requires a positive ridge weight", s.Name)
	case w > 0:
		return RidgeTask{Weight: w}, nil
	}
	return s.Task, nil
}

// finiteNonNegative is the rule for a ridge weight and a λ factor: NaN and
// +Inf fail it, as does a negative number.
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// taskTable is the task registry: one row per task, sorted by name. Adding a
// task means adding a row (and its Task type); TestTaskTableWellFormed
// checks the rows and the sensitivity property checks every row's Δ.
var taskTable = [...]TaskSpec{
	{
		Name:               TaskNameLinear,
		Degree:             2,
		Task:               LinearTask{},
		Fold:               TaskNameLinear,
		Target:             TargetNormalized,
		SharesGram:         true,
		AcceptsRidge:       true,
		SensitivityFormula: "2(d+1)^2",
	},
	{
		Name:               TaskNameLogistic,
		Degree:             2,
		Task:               LogisticTask{},
		Fold:               TaskNameLogistic,
		Target:             TargetBoolean,
		SharesGram:         true,
		SensitivityFormula: "d^2/4 + 3d",
	},
	{
		Name:               TaskNameMedian,
		Degree:             2,
		Task:               MedianTask{},
		Fold:               TaskNameMedian,
		Target:             TargetNormalized,
		SensitivityFormula: "2(sqrt(1+mu^2) + d + d^2/(2mu)), mu = 1/2",
	},
	{
		Name:               TaskNameRidge,
		Degree:             2,
		Task:               LinearTask{},
		Fold:               TaskNameLinear,
		Target:             TargetNormalized,
		SharesGram:         true,
		AcceptsRidge:       true,
		NeedsRidgeWeight:   true,
		SensitivityFormula: "2(d+1)^2",
	},
}

// LookupTask returns the table row for name.
func LookupTask(name string) (TaskSpec, bool) {
	i := sort.Search(len(taskTable), func(i int) bool { return taskTable[i].Name >= name })
	if i < len(taskTable) && taskTable[i].Name == name {
		return taskTable[i], true
	}
	return TaskSpec{}, false
}

// TaskNames returns every task name, sorted.
func TaskNames() []string {
	names := make([]string, len(taskTable))
	for i, s := range taskTable {
		names[i] = s.Name
	}
	return names
}

// TaskSpecs returns a copy of every row in sorted name order.
func TaskSpecs() []TaskSpec { return append([]TaskSpec(nil), taskTable[:]...) }

// FoldSpecs returns the fold-defining specs (Name == Fold) in sorted name
// order — the set of per-record folds an accumulator must maintain to serve
// refits for every task. The order is the canonical fold order used by
// serialization and by deterministic iteration everywhere.
func FoldSpecs() []TaskSpec {
	var folds []TaskSpec
	for _, s := range taskTable {
		if s.Fold == s.Name {
			folds = append(folds, s)
		}
	}
	return folds
}
