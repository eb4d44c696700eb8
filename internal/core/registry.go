package core

import (
	"fmt"
	"sort"
	"sync"
)

// Canonical task names. Every task-name string literal in the module lives
// in this package (enforced by the taskreg fmlint analyzer); everything else
// resolves tasks through the registry or references these constants.
const (
	TaskNameLinear   = "linear"
	TaskNameRidge    = "ridge"
	TaskNameLogistic = "logistic"
	TaskNameMedian   = "median"
)

// TargetRule says how a task derives its per-record training label from the
// raw target value — the property the ingestion layers need so they can fold
// records for a task they know nothing else about.
type TargetRule int

const (
	// TargetNormalized: the raw target is clamped to the schema's public
	// bounds and affinely mapped into [−1, 1] (the §4.2 precondition).
	TargetNormalized TargetRule = iota
	// TargetBoolean: the raw target must be exactly 0 or 1, or a binarize
	// threshold must be configured to derive the label (§5's setting).
	TargetBoolean
)

// String returns the rule's documentation name.
func (r TargetRule) String() string {
	switch r {
	case TargetNormalized:
		return "normalized [−1,1]"
	case TargetBoolean:
		return "boolean {0,1}"
	}
	return fmt.Sprintf("TargetRule(%d)", int(r))
}

// TaskParams carries the per-fit parameters a task instantiation may accept.
type TaskParams struct {
	// RidgeWeight is the λ‖ω‖² penalty weight; zero means unpenalized.
	RidgeWeight float64
}

// TaskSpec describes one registered regression family as data: everything
// the serving stack needs to validate, accumulate, refit and document the
// task without naming it in control flow.
type TaskSpec struct {
	// Name is the registry key ("linear", "median", …).
	Name string
	// Degree is the polynomial degree of the released objective.
	Degree int
	// Task is the task whose per-record coefficient sums the spec's fold
	// maintains.
	Task Task
	// Fold names the accumulator fold this task refits from. Tasks whose
	// per-record contributions coincide share a fold: ridge refits from the
	// "linear" fold because its penalty is data-independent.
	Fold string
	// Target is the label-derivation rule the ingestion layers apply.
	Target TargetRule
	// AcceptsRidge reports whether the task takes an optional ridge weight;
	// NeedsRidgeWeight additionally makes a positive weight mandatory.
	AcceptsRidge     bool
	NeedsRidgeWeight bool
	// SensitivityFormula is the documented closed form of Sensitivity, kept
	// here so scripts/check_docs.sh can machine-check the docs tables
	// against the registry source.
	SensitivityFormula string
	// New instantiates the task for one fit with the given parameters.
	New func(p TaskParams) (Task, error)
}

// registry is the package-level task table. Registration happens in init
// functions (and in tests); lookups vastly dominate, so it is guarded by an
// RWMutex.
var registry = struct {
	sync.RWMutex
	specs map[string]TaskSpec
}{specs: make(map[string]TaskSpec)}

// RegisterTask adds a task to the registry. The name must be unique and the
// spec complete; an empty Fold defaults to the task's own name.
func RegisterTask(s TaskSpec) error {
	if s.Name == "" {
		return fmt.Errorf("core: RegisterTask with empty name")
	}
	if s.Task == nil || s.New == nil {
		return fmt.Errorf("core: task %q registered without a fold task or constructor", s.Name)
	}
	if s.Degree <= 0 {
		return fmt.Errorf("core: task %q registered with degree %d", s.Name, s.Degree)
	}
	if s.Fold == "" {
		s.Fold = s.Name
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.specs[s.Name]; dup {
		return fmt.Errorf("core: task %q already registered", s.Name)
	}
	registry.specs[s.Name] = s
	return nil
}

// MustRegisterTask is RegisterTask for init-time registration; it panics on
// error (a programming mistake, not a runtime condition).
func MustRegisterTask(s TaskSpec) {
	if err := RegisterTask(s); err != nil {
		panic(err)
	}
}

// LookupTask returns the spec registered under name.
func LookupTask(name string) (TaskSpec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.specs[name]
	return s, ok
}

// TaskNames returns every registered task name, sorted.
func TaskNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.specs))
	for n := range registry.specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TaskSpecs returns every registered spec in sorted name order.
func TaskSpecs() []TaskSpec {
	registry.RLock()
	defer registry.RUnlock()
	specs := make([]TaskSpec, 0, len(registry.specs))
	for _, s := range registry.specs {
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// FoldSpecs returns the fold-defining specs (Name == Fold) in sorted name
// order — the set of per-record folds an accumulator must maintain to serve
// refits for every registered task. The order is the canonical fold order
// used by serialization and by deterministic iteration everywhere.
func FoldSpecs() []TaskSpec {
	specs := TaskSpecs()
	folds := specs[:0]
	for _, s := range specs {
		if s.Fold == s.Name {
			folds = append(folds, s)
		}
	}
	return folds
}

func init() {
	MustRegisterTask(TaskSpec{
		Name:               TaskNameLinear,
		Degree:             2,
		Task:               LinearTask{},
		Target:             TargetNormalized,
		AcceptsRidge:       true,
		SensitivityFormula: "2(d+1)^2",
		New: func(p TaskParams) (Task, error) {
			if p.RidgeWeight < 0 {
				return nil, fmt.Errorf("core: negative ridge weight %v", p.RidgeWeight)
			}
			if p.RidgeWeight > 0 {
				return RidgeTask{Weight: p.RidgeWeight}, nil
			}
			return LinearTask{}, nil
		},
	})
	MustRegisterTask(TaskSpec{
		Name:               TaskNameRidge,
		Degree:             2,
		Task:               LinearTask{},
		Fold:               TaskNameLinear,
		Target:             TargetNormalized,
		AcceptsRidge:       true,
		NeedsRidgeWeight:   true,
		SensitivityFormula: "2(d+1)^2",
		New: func(p TaskParams) (Task, error) {
			if p.RidgeWeight <= 0 {
				return nil, fmt.Errorf("core: ridge requires a positive weight, got %v", p.RidgeWeight)
			}
			return RidgeTask{Weight: p.RidgeWeight}, nil
		},
	})
	MustRegisterTask(TaskSpec{
		Name:               TaskNameLogistic,
		Degree:             2,
		Task:               LogisticTask{},
		Target:             TargetBoolean,
		SensitivityFormula: "d^2/4 + 3d",
		New: func(p TaskParams) (Task, error) {
			if p.RidgeWeight != 0 {
				return nil, fmt.Errorf("core: logistic regression does not take a ridge weight")
			}
			return LogisticTask{}, nil
		},
	})
}
