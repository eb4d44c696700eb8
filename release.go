package funcmech

import (
	"errors"
	"fmt"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/noise"
)

// Release is one release the library has accepted against the data it will
// read: the task row and the task instantiated for it, the options, ε, and
// the record rule, so d, the sensitivity Δ at d and the Laplace scale Δ/ε.
// Those are all Algorithm 1 fixes before it reads a record, so whether a
// release can run, and what it costs under sequential composition, is
// decided once, when it is made. Only NewRelease and
// NewReleaseFromAccumulator make one, Session.Charge debits its cost, and
// Run draws its noise.
type Release struct {
	spec    core.TaskSpec
	task    core.Task
	cfg     config
	rule    *dataset.Normalizer
	epsilon float64
	ds      *Dataset     // a fit's records
	acc     *Accumulator // a refit's folds; nil for a fit
}

// resolve decides whether a release request is well formed, before any
// data is touched or ε charged: the task must be in the table, the core
// options valid, the ridge weight one the row's policy takes, and a
// binarize threshold finite (the record rule's dataset.CheckThreshold) and
// only given to a boolean-target task.
func resolve(name string, opts []Option) (*Release, error) {
	spec, ok := core.LookupTask(name)
	if !ok {
		return nil, unknownTask(name)
	}
	cfg := buildConfig(opts)
	if err := cfg.opts.Validate(); err != nil {
		return nil, fmt.Errorf("funcmech: %w", err)
	}
	if err := dataset.CheckThreshold(cfg.threshold); err != nil {
		return nil, fmt.Errorf("funcmech: %w", err)
	}
	if cfg.threshold != nil && spec.Target != core.TargetBoolean {
		return nil, fmt.Errorf("funcmech: WithBinarizeThreshold applies only to boolean-target tasks; %q trains on a %s target", spec.Name, spec.Target)
	}
	task, err := spec.New(core.TaskParams{RidgeWeight: cfg.ridge})
	if err != nil {
		return nil, fmt.Errorf("funcmech: %w", err)
	}
	return &Release{spec: spec, task: task, cfg: cfg}, nil
}

// resolveFit is resolve for a fit of task over ds, with the record rule
// its training copy is made under: all of NewRelease but ε, which the
// exact baselines do not spend.
func resolveFit(ds *Dataset, task string, opts []Option) (*Release, error) {
	r, err := resolve(task, opts)
	if err != nil {
		return nil, err
	}
	if r.rule, err = dataset.NewRule(*ds.inner.Schema, r.cfg.intercept, r.cfg.threshold); err != nil {
		return nil, err
	}
	r.ds = ds
	return r, nil
}

// price fixes the release's ε once noise.CheckScale accepts it at the
// rule's d.
func (r *Release) price(epsilon float64) (*Release, error) {
	if err := noise.CheckScale(r.task.Sensitivity(r.rule.D()), epsilon); err != nil {
		return nil, err
	}
	r.epsilon = epsilon
	return r, nil
}

// NewRelease accepts, or refuses, an ε-differentially private fit of the
// named task over ds, without reading a record. It refuses an unknown task
// (wrapping ErrUnknownTask), options the task does not take, and an ε
// that is not finite and positive or whose Laplace scale overflows at the
// fit's d (noise.CheckScale, wrapping ErrInvalidSpend). The dataset stays
// in raw units: the record rule (the schema's public bounds,
// WithIntercept, WithBinarizeThreshold) makes the one training copy when
// the release runs.
func NewRelease(ds *Dataset, task string, epsilon float64, opts ...Option) (*Release, error) {
	r, err := resolveFit(ds, task, opts)
	if err != nil {
		return nil, err
	}
	return r.price(epsilon)
}

// NewReleaseFromAccumulator is NewRelease for a refit from a's folds,
// without reading one. It also refuses the options that shape the
// per-record fold, which were fixed when a was created, and an accumulator
// that holds no records.
func NewReleaseFromAccumulator(a *Accumulator, task string, epsilon float64, opts ...Option) (*Release, error) {
	r, err := resolve(task, opts)
	switch {
	case err != nil:
		return nil, err
	case r.cfg.intercept:
		return nil, errors.New("funcmech: WithIntercept is fixed at accumulator creation")
	case r.cfg.threshold != nil:
		return nil, errors.New("funcmech: WithBinarizeThreshold is fixed at accumulator creation")
	case a.n == 0:
		return nil, errors.New("funcmech: accumulator has no records")
	}
	r.rule, r.acc = a.rule, a
	return r.price(epsilon)
}

// cost is what the release spends under sequential composition: ε, or 2ε
// under Resample (Lemma 5).
func (r *Release) cost() float64 {
	if r.cfg.opts.PostProcess == Resample {
		return 2 * r.epsilon
	}
	return r.epsilon
}

// Run draws the release's noise and returns the model it releases. A fit
// makes its one training copy under the record rule and runs the mechanism
// over it; a refit releases from its task's fold as it stands, with no
// pass over the records. Each call draws fresh noise and so spends the
// release's cost again, which Run does not debit: Session.Charge does.
// What Run can still refuse depends on the data: for a fit, no records, a
// target the task's rule cannot label or a NaN anywhere, which the rule
// refuses by record as it makes the copy; for a refit, a fold poisoned
// during ingestion or absent from a restored snapshot that predates the
// task.
//
// gov, when non-nil, arbitrates a fit's accumulation workers against the
// other fits in one process: the fit asks it for its resolved parallelism,
// uses only the workers it grants (≥ 1) and returns them when the pass
// over the records ends. The granted count depends on concurrent load, so
// models fitted under a governor are reproducible only to floating-point
// round-off (as across WithParallelism values); the privacy guarantee is
// unchanged. A refit has no pass over the records to govern.
func (r *Release) Run(gov Governor) (*TaskModel, *Report, error) {
	opts := r.cfg.opts
	opts.Governor = gov
	var (
		res *core.Result
		err error
	)
	if r.acc != nil {
		f := r.acc.fold(r.spec.Fold)
		if f.err != nil {
			return nil, nil, f.err
		}
		res, err = core.RunFromQuadratic(r.task, f.acc.QuadraticOver(r.acc.gram, r.task), r.epsilon, r.cfg.noiseSource(), opts)
	} else {
		var norm *dataset.Dataset
		if norm, err = r.trainingCopy(); err == nil {
			res, err = core.Run(r.task, norm, r.epsilon, r.cfg.noiseSource(), opts)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return r.model(res.Weights), reportFrom(res), nil
}

// trainingCopy makes a fit's one training copy under the record rule and
// the task's target rule, for Run and the exact baselines.
func (r *Release) trainingCopy() (*dataset.Dataset, error) {
	return r.rule.Normalize(r.ds.inner, r.spec.Target)
}

// model is the TaskModel that weights w make under the release's task and
// record rule.
func (r *Release) model(w []float64) *TaskModel {
	return &TaskModel{task: infoFromSpec(r.spec), weights: w, rule: r.rule}
}
