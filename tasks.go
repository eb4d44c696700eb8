package funcmech

import (
	"errors"
	"fmt"
	"strings"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
	"funcmech/internal/regression"
)

// This file is the task-generic fit surface: every regression family the
// mechanism can release is a core.TaskSpec row of the static task table,
// and FitTask / FitTaskFromAccumulator make a Release of a task by name
// (release.go) and run the shared pipeline — one training copy under the
// record rule and the spec's target rule, the spec's degree-2 objective,
// perturb, solve. Every fit returns a TaskModel, and the paper's two case
// studies (LinearRegression, LogisticRegression) are FitTask under their
// task names, so adding a row makes a task fittable, servable and
// persistable everywhere without touching any of the layers above.

// ErrUnknownTask is returned when a task name does not resolve in the
// registry. Callers can match it with errors.Is; the message enumerates the
// registered names.
var ErrUnknownTask = errors.New("funcmech: unknown task")

// unknownTask wraps ErrUnknownTask with the offending name and the
// registered alternatives.
func unknownTask(name string) error {
	return fmt.Errorf("%w %q (registered tasks: %s)", ErrUnknownTask, name, strings.Join(TaskNames(), ", "))
}

// TaskNames returns the registered task names, sorted.
func TaskNames() []string { return core.TaskNames() }

// TaskInfo describes one registered task — the registry's public, read-only
// view.
type TaskInfo struct {
	// Name resolves the task in FitTask and the serving APIs.
	Name string
	// Degree is the polynomial degree of the released objective.
	Degree int
	// Sensitivity is the documented closed form of the task's Δ.
	Sensitivity string
	// TargetRule says how the raw target becomes the training label.
	TargetRule string
	// Boolean reports whether the task trains on a boolean label (so
	// WithBinarizeThreshold applies).
	Boolean bool
	// AcceptsRidge / NeedsRidgeWeight describe the WithRidge surface.
	AcceptsRidge     bool
	NeedsRidgeWeight bool
}

func infoFromSpec(s core.TaskSpec) TaskInfo {
	return TaskInfo{
		Name:             s.Name,
		Degree:           s.Degree,
		Sensitivity:      s.SensitivityFormula,
		TargetRule:       s.Target.String(),
		Boolean:          s.Target == core.TargetBoolean,
		AcceptsRidge:     s.AcceptsRidge,
		NeedsRidgeWeight: s.NeedsRidgeWeight,
	}
}

// Tasks returns every registered task in sorted name order.
func Tasks() []TaskInfo {
	specs := core.TaskSpecs()
	infos := make([]TaskInfo, len(specs))
	for i, s := range specs {
		infos[i] = infoFromSpec(s)
	}
	return infos
}

// LookupTask returns the registered task named name.
func LookupTask(name string) (TaskInfo, bool) {
	s, ok := core.LookupTask(name)
	if !ok {
		return TaskInfo{}, false
	}
	return infoFromSpec(s), true
}

// TaskModel is the model every fit releases: the private weights plus the
// record rule (schema bounds, intercept, binarize threshold) and target
// rule the fit trained under, so one type serves every registered task. It
// predicts in the caller's raw units, and Save persists it for LoadModel.
type TaskModel struct {
	task    TaskInfo
	weights []float64
	rule    *dataset.Normalizer
}

// Task returns the registered task this model was fitted for.
func (m *TaskModel) Task() TaskInfo { return m.task }

// Weights returns the model parameters ω in normalized feature space. When
// the model was fitted WithIntercept, the last entry is the bias weight.
// The slice is a copy.
func (m *TaskModel) Weights() []float64 {
	return append([]float64(nil), m.weights...)
}

// Predict returns the model's estimate for a raw feature vector: the target
// in raw units for normalized-target tasks, P(target = 1) for boolean-target
// tasks.
func (m *TaskModel) Predict(features []float64) float64 {
	return m.predict(m.rule.NormalizeRow(features))
}

// predict is Predict over a feature vector already under the record rule.
func (m *TaskModel) predict(x []float64) float64 {
	t := linalg.Dot(x, m.weights)
	if m.task.Boolean {
		return regression.Sigmoid(t)
	}
	return m.rule.DenormalizeLabel(t)
}

// meanOver returns the mean of f(x, y) over ds's records — NaN over none —
// with x the record's feature vector under the record rule and y its raw
// target. Every record is normalized into one reused row, so an evaluation
// allocates a constant amount whatever the record count.
func (m *TaskModel) meanOver(ds *Dataset, f func(x []float64, y float64) float64) float64 {
	n := ds.Len()
	x := make([]float64, m.rule.D())
	var s float64
	for i := 0; i < n; i++ {
		m.rule.NormalizeRowInto(x, ds.inner.Row(i))
		s += f(x, ds.inner.Label(i))
	}
	return s / float64(n)
}

// MSE returns the mean squared prediction error over ds in raw target units
// (meaningful for normalized-target tasks). An empty dataset gives NaN.
func (m *TaskModel) MSE(ds *Dataset) float64 {
	return m.meanOver(ds, func(x []float64, y float64) float64 {
		r := y - m.predict(x)
		return r * r
	})
}

// MAE returns the mean absolute prediction error over ds in raw target
// units — the loss median regression optimizes. An empty dataset gives NaN.
func (m *TaskModel) MAE(ds *Dataset) float64 {
	return m.meanOver(ds, func(x []float64, y float64) float64 {
		r := y - m.predict(x)
		if r < 0 {
			r = -r
		}
		return r
	})
}

// NormalizedMSE returns the mean squared error in the paper's normalized
// units (target in [−1,1]) — the quantity Figures 4–6 plot. Like MSE it is
// meaningful for normalized-target tasks. An empty dataset gives NaN.
func (m *TaskModel) NormalizedMSE(ds *Dataset) float64 {
	return m.meanOver(ds, func(x []float64, y float64) float64 {
		r := m.rule.NormalizeLabel(y) - linalg.Dot(x, m.weights)
		return r * r
	})
}

// MisclassificationRate returns the fraction of records in ds classified
// incorrectly. Raw targets become labels under the model's record rule:
// binarized with its threshold when one was configured, otherwise they
// must be 0 or 1; a NaN target is refused either way. A normalized-target
// model predicts no class, so it returns an error.
func (m *TaskModel) MisclassificationRate(ds *Dataset) (float64, error) {
	if !m.task.Boolean {
		return 0, fmt.Errorf("funcmech: task %q has a numeric target; misclassification needs a boolean-target task", m.task.Name)
	}
	n := ds.Len()
	if n == 0 {
		return 0, errors.New("funcmech: empty dataset")
	}
	x := make([]float64, m.rule.D())
	wrong := 0
	for i := 0; i < n; i++ {
		y, err := m.rule.Label(core.TargetBoolean, ds.inner.Label(i))
		if err != nil {
			return 0, fmt.Errorf("funcmech: record %d: %w", i, err)
		}
		m.rule.NormalizeRowInto(x, ds.inner.Row(i))
		if (m.predict(x) > 0.5) != (y == 1) {
			wrong++
		}
	}
	return float64(wrong) / float64(n), nil
}

// FitTask fits an ε-differentially private model for the named task over
// ds — the single entry point LinearRegression, LogisticRegression and the
// serving layers resolve every fit through: NewRelease, then Run. It
// refuses whatever NewRelease refuses, before it reads a record, and
// whatever Run refuses of the data. Unknown names wrap ErrUnknownTask.
func FitTask(ds *Dataset, task string, epsilon float64, opts ...Option) (*TaskModel, *Report, error) {
	r, err := NewRelease(ds, task, epsilon, opts...)
	if err != nil {
		return nil, nil, err
	}
	return r.Run(nil)
}

// FitTaskFromAccumulator fits an ε-differentially private model for the
// named task from the accumulated coefficients, with no pass over the
// records: NewReleaseFromAccumulator, then Run. The release costs O(d²)
// regardless of how many records were ingested. Fresh Laplace noise
// calibrated to the same sensitivity Δ is drawn per call, so each release
// independently satisfies ε-differential privacy and repeated releases
// compose sequentially (use a Session to enforce the total).
//
// At a fixed seed the result is bit-identical to FitTask over the same
// records appended in the same order with WithParallelism(1): the
// accumulator performs the identical serial fold the one-shot path performs.
// WithParallelism is accepted but has no effect here — there is no record
// sweep to parallelize. The task's fold must be intact (see Run).
func FitTaskFromAccumulator(a *Accumulator, task string, epsilon float64, opts ...Option) (*TaskModel, *Report, error) {
	r, err := NewReleaseFromAccumulator(a, task, epsilon, opts...)
	if err != nil {
		return nil, nil, err
	}
	return r.Run(nil)
}
