package funcmech

import (
	"errors"
	"fmt"
	"strings"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/regression"
)

// This file is the task-generic fit surface: every regression family the
// mechanism can release is a core.TaskSpec row of the static task table,
// and FitTask / FitTaskFromAccumulator resolve a task by name and run the
// shared pipeline — normalize per the spec's target rule, build the spec's
// degree-2 objective, perturb, solve. Every fit returns a TaskModel, and the
// paper's two case studies (LinearRegression, LogisticRegression) are
// FitTask under their task names, so adding a row makes a task fittable,
// servable and persistable everywhere without touching any of the layers
// above.

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

// release is one release request the library has accepted: the task row,
// the task instantiated for this release, and the options it runs with.
type release struct {
	spec core.TaskSpec
	task core.Task
	cfg  config
}

// resolve is the one place that decides whether a release request is well
// formed, before any data is touched or ε charged: the task must be in the
// table, the core options valid, the ridge weight one the row's policy
// takes, and a binarize threshold only given to a boolean-target task.
// CheckRelease, Session.Charge, the fits and the exact baselines all ask
// it.
func resolve(name string, opts []Option) (release, error) {
	spec, ok := core.LookupTask(name)
	if !ok {
		return release{}, unknownTask(name)
	}
	cfg := buildConfig(opts)
	if err := cfg.opts.Validate(); err != nil {
		return release{}, fmt.Errorf("funcmech: %w", err)
	}
	if cfg.threshold != nil && spec.Target != core.TargetBoolean {
		return release{}, fmt.Errorf("funcmech: WithBinarizeThreshold applies only to boolean-target tasks; %q trains on a %s target", spec.Name, spec.Target)
	}
	task, err := spec.New(core.TaskParams{RidgeWeight: cfg.ridge})
	if err != nil {
		return release{}, fmt.Errorf("funcmech: %w", err)
	}
	return release{spec: spec, task: task, cfg: cfg}, nil
}

// CheckRelease reports whether the library would refuse to release task at
// privacy budget epsilon with opts — an unknown task (wrapping
// ErrUnknownTask), a non-positive ε (wrapping ErrInvalidSpend), or options
// the task does not take — without touching data or budget. Session.Charge
// refuses exactly what it refuses, so a serving layer that checks a request
// here first never charges for a release FitTask would refuse for its task
// or options. An accepted request can still fail on its data.
func CheckRelease(task string, epsilon float64, opts ...Option) error {
	if _, err := resolve(task, opts); err != nil {
		return err
	}
	if !(epsilon > 0) {
		return fmt.Errorf("funcmech: %w: non-positive ε %v", ErrInvalidSpend, epsilon)
	}
	return nil
}

// prepareTask derives the normalized training representation the spec's
// target rule prescribes: boolean targets are binarized (optionally) and
// checked, normalized targets are scaled into [−1, 1].
func prepareTask(ds *Dataset, spec core.TaskSpec, cfg config) (*dataset.Dataset, *dataset.Normalizer, error) {
	inner := ds.inner
	if cfg.threshold != nil {
		inner = inner.BinarizeTarget(*cfg.threshold)
	}
	if cfg.intercept {
		inner = withInterceptColumn(inner)
	}
	nz := dataset.NewNormalizer(inner.Schema)
	if spec.Target != core.TargetBoolean {
		return nz.NormalizeForLinear(inner), nz, nil
	}
	norm, err := nz.NormalizeForLogistic(inner)
	if err != nil {
		return nil, nil, err
	}
	return norm, nz, nil
}

// exactTask prepares ds for the named task exactly as FitTask does, for the
// non-private baselines: it returns the normalized training set, the task
// the options resolve to and a model carrying everything but the weights.
func exactTask(ds *Dataset, task string, opts []Option) (*TaskModel, *dataset.Dataset, core.Task, error) {
	r, err := resolve(task, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	norm, nz, err := prepareTask(ds, r.spec, r.cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return &TaskModel{
		task: infoFromSpec(r.spec), nz: nz, schema: ds.Schema(),
		threshold: r.cfg.threshold, intercept: r.cfg.intercept,
	}, norm, r.task, nil
}

// TaskModel is the model every fit releases: the private weights plus the
// interpretation rules (normalization, target rule, threshold) the task spec
// prescribes, so one type serves every registered task. It predicts in the
// caller's raw units, and Save persists it for LoadModel.
type TaskModel struct {
	task      TaskInfo
	weights   []float64
	nz        *dataset.Normalizer
	schema    Schema
	threshold *float64
	intercept bool
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
	if m.intercept {
		features = augmentRow(features)
	}
	x := m.nz.NormalizeRow(features)
	if m.task.Boolean {
		return (&regression.LogisticModel{Weights: m.weights}).Probability(x)
	}
	return m.nz.DenormalizeLabel((&regression.LinearModel{Weights: m.weights}).Predict(x))
}

// Classify thresholds a boolean-target task's probability at 1/2.
func (m *TaskModel) Classify(features []float64) bool { return m.Predict(features) > 0.5 }

// MSE returns the mean squared prediction error over ds in raw target units
// (meaningful for normalized-target tasks).
func (m *TaskModel) MSE(ds *Dataset) float64 {
	n := ds.Len()
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		r := ds.inner.Label(i) - m.Predict(ds.inner.Row(i))
		s += r * r
	}
	return s / float64(n)
}

// MAE returns the mean absolute prediction error over ds in raw target
// units — the loss median regression optimizes.
func (m *TaskModel) MAE(ds *Dataset) float64 {
	n := ds.Len()
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		r := ds.inner.Label(i) - m.Predict(ds.inner.Row(i))
		if r < 0 {
			r = -r
		}
		s += r
	}
	return s / float64(n)
}

// NormalizedMSE returns the mean squared error in the paper's normalized
// units (target in [−1,1]) — the quantity Figures 4–6 plot. Like MSE it is
// meaningful for normalized-target tasks.
func (m *TaskModel) NormalizedMSE(ds *Dataset) float64 {
	inner := ds.inner
	if m.intercept {
		inner = withInterceptColumn(inner)
	}
	return (&regression.LinearModel{Weights: m.weights}).MSE(m.nz.NormalizeForLinear(inner))
}

// MisclassificationRate returns the fraction of records in ds classified
// incorrectly. Raw targets are binarized with the model's threshold when
// one was configured; otherwise they must be 0 or 1. A normalized-target
// model predicts no class, so it returns an error.
func (m *TaskModel) MisclassificationRate(ds *Dataset) (float64, error) {
	if !m.task.Boolean {
		return 0, fmt.Errorf("funcmech: task %q has a numeric target; misclassification needs a boolean-target task", m.task.Name)
	}
	n := ds.Len()
	if n == 0 {
		return 0, errors.New("funcmech: empty dataset")
	}
	wrong := 0
	for i := 0; i < n; i++ {
		y := ds.inner.Label(i)
		positive := y == 1
		if m.threshold != nil {
			positive = y > *m.threshold
		} else if y != 0 && y != 1 {
			return 0, fmt.Errorf("funcmech: record %d target %v is not boolean; fit with WithBinarizeThreshold or supply 0/1 targets", i, y)
		}
		if m.Classify(ds.inner.Row(i)) != positive {
			wrong++
		}
	}
	return float64(wrong) / float64(n), nil
}

// FitTask fits an ε-differentially private model for the named task over
// ds — the single entry point LinearRegression, LogisticRegression and the
// serving layers resolve every fit through. The dataset stays in raw units;
// the schema's public bounds drive the normalization the privacy analysis
// requires. It refuses whatever CheckRelease refuses; unknown names wrap
// ErrUnknownTask.
func FitTask(ds *Dataset, task string, epsilon float64, opts ...Option) (*TaskModel, *Report, error) {
	r, err := resolve(task, opts)
	if err != nil {
		return nil, nil, err
	}
	norm, nz, err := prepareTask(ds, r.spec, r.cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Run(r.task, norm, epsilon, r.cfg.noiseSource(), r.cfg.opts)
	if err != nil {
		return nil, nil, err
	}
	return &TaskModel{
		task: infoFromSpec(r.spec), weights: res.Weights, nz: nz, schema: ds.Schema(),
		threshold: r.cfg.threshold, intercept: r.cfg.intercept,
	}, reportFrom(res), nil
}

// FitTaskFromAccumulator fits an ε-differentially private model for the
// named task from the accumulated coefficients, with no pass over the
// records: the release costs O(d²) regardless of how many records were
// ingested. Fresh Laplace noise calibrated to the same sensitivity Δ is drawn
// per call, so each release independently satisfies ε-differential privacy
// and repeated releases compose sequentially (use a Session to enforce the
// total).
//
// At a fixed seed the result is bit-identical to FitTask over the same
// records appended in the same order with WithParallelism(1): the
// accumulator performs the identical serial fold the one-shot path performs.
// WithParallelism and WithGovernor are accepted but have no effect here —
// there is no record sweep to parallelize. The task's fold must be intact: a
// fold poisoned during ingestion (a non-boolean target with no binarize
// threshold, for boolean-target tasks) or absent from a restored snapshot
// that predates the task fails with the poisoning error.
func FitTaskFromAccumulator(a *Accumulator, task string, epsilon float64, opts ...Option) (*TaskModel, *Report, error) {
	r, err := a.resolve(task, opts)
	if err != nil {
		return nil, nil, err
	}
	f := a.fold(r.spec.Fold)
	if f == nil {
		return nil, nil, fmt.Errorf("funcmech: accumulator has no fold for task %q", r.spec.Name)
	}
	if f.err != nil {
		return nil, nil, f.err
	}
	res, err := core.RunFromQuadratic(r.task, f.acc.QuadraticAs(r.task), epsilon, r.cfg.noiseSource(), r.cfg.opts)
	if err != nil {
		return nil, nil, err
	}
	return &TaskModel{
		task: infoFromSpec(r.spec), weights: res.Weights, nz: a.nz, schema: a.Schema(),
		threshold: a.threshold, intercept: a.intercept,
	}, reportFrom(res), nil
}
