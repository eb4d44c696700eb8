package funcmech

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
)

// taskFold is one per-record coefficient fold the accumulator maintains —
// one per fold-defining task spec in the registry (core.FoldSpecs). Tasks
// that share per-record contributions share a fold: ridge refits from the
// linear fold because its penalty is data-independent.
type taskFold struct {
	key  string            // the fold's registry name
	rule core.TargetRule   // how the raw target becomes this fold's label
	acc  *core.Accumulator // n, α, β, and M unless the fold shares the Gram

	// err, once set, poisons the fold: a record arrived whose label could
	// not be derived under the fold's target rule (or a restored snapshot
	// predates the task). Other folds continue; this one folds no further
	// records, and refits for it fail with the error.
	err error
}

// Accumulator folds raw records into the polynomial coefficients of the
// regression objectives as they arrive, so a model can later be fitted
// without ever materializing the records: the functional mechanism's fit
// step needs only these sums (paper Algorithm 1), and maintaining them is a
// streaming monoid fold. One accumulator maintains a fold per registered
// task family (linear — shared by ridge — logistic, median, …), so every
// registered task can be refitted over the same ingested records. The
// families whose M is the Gram XᵀX up to a constant factor
// (core.TaskSpec.SharesGram) keep only their own n, α and β and finalize
// over one Gram the accumulator folds once per batch; the rest (median,
// which weights x·xᵀ per record) keep a whole fold each.
//
// Records are checked against the schema and go through the record rule the
// one-shot fit paths use, so a fit from an accumulator is bit-identical to
// the corresponding one-shot fit over the same records in the same order
// (at a fixed seed; see FitTaskFromAccumulator).
//
// The accumulated coefficients are raw sums over records with no noise
// added: an Accumulator (and anything serialized from it via Save) is as
// sensitive as the records themselves and must stay in the same trust
// domain. Privacy is only guaranteed for the weights FitTaskFromAccumulator
// releases.
//
// An Accumulator is not safe for concurrent use; guard it with a mutex or
// use one per goroutine and Merge (see internal/stream for the sharded
// serving-layer discipline).
type Accumulator struct {
	rule  *dataset.Normalizer // the record rule: raw schema, intercept, threshold
	n     int                 // records folded
	gram  *core.Accumulator   // XᵀX over every record: the M of every fold that shares it
	folds []*taskFold         // registry fold order (sorted by key)
}

// NewAccumulator returns an empty accumulator for the schema, with one fold
// per registered task family. Of the fit options only WithIntercept and
// WithBinarizeThreshold apply — they shape the record rule, so they are
// fixed for the accumulator's lifetime and must not be passed again at fit
// time. Without a threshold, boolean-target folds are maintained only while
// every target is exactly 0 or 1.
func NewAccumulator(s Schema, opts ...Option) (*Accumulator, error) {
	cfg := buildConfig(opts)
	rule, err := dataset.NewRule(*s.Clone(), cfg.intercept, cfg.threshold)
	if err != nil {
		return nil, err
	}
	specs := core.FoldSpecs()
	folds := make([]*taskFold, 0, len(specs))
	for _, spec := range specs {
		folds = append(folds, &taskFold{key: spec.Name, rule: spec.Target, acc: core.NewFold(spec, rule.D())})
	}
	return &Accumulator{rule: rule, gram: core.NewGram(rule.D()), folds: folds}, nil
}

// fold returns the fold registered under key, or nil.
func (a *Accumulator) fold(key string) *taskFold {
	for _, f := range a.folds {
		if f.key == key {
			return f
		}
	}
	return nil
}

// Add folds one raw record into every fold's coefficients. Features are
// clamped to the schema's public bounds and normalized by the record rule
// the one-shot fit paths use; normalized-target folds clamp the target into
// its domain, boolean-target folds binarize it with the accumulator's
// threshold when one was configured. NaN values are rejected (they would
// poison the sums irreversibly); infinities clamp to the domain edge like
// any other out-of-domain value. The record goes through AddFlat as a batch
// of one.
func (a *Accumulator) Add(features []float64, target float64) error {
	if len(features) != a.NumFeatures() {
		return fmt.Errorf("funcmech: record has %d features, schema has %d", len(features), a.NumFeatures())
	}
	row := make([]float64, len(features)+1)
	copy(row, features)
	row[len(features)] = target
	_, err := a.AddFlat(row)
	return err
}

// flatScratch is the reusable workspace of one AddFlat call: the normalized
// flat feature block and one label column per target rule. Pooling it makes
// batch ingestion allocation-free per record (and, once the pool is warm,
// per batch).
type flatScratch struct {
	xs []float64
	yn []float64 // TargetNormalized labels
	yb []float64 // TargetBoolean labels, up to the first the rule cannot label
}

var flatScratchPool = sync.Pool{New: func() any { return new(flatScratch) }}

func (s *flatScratch) ensure(xs, k int) {
	if cap(s.xs) < xs {
		s.xs = make([]float64, xs)
	}
	s.xs = s.xs[:xs]
	if cap(s.yn) < k {
		s.yn = make([]float64, k)
		s.yb = make([]float64, k)
	}
	s.yn, s.yb = s.yn[:k], s.yb[:k]
}

// AddFlat folds a batch of records given as flat row-major storage — each
// record is its feature vector in schema order with the target appended, so
// the row width is NumFeatures()+1 — and returns how many records were
// folded. Unlike Add, the batch is all-or-nothing: Schema.CheckBatch
// refuses a ragged batch or a NaN anywhere before any record is folded, so
// an error leaves the accumulator untouched. Errors number a record by its
// position in the accumulator: the first record ever added is record 0.
//
// The fold is bit-identical to calling Add on each record in order: records
// go through the same record rule, and the batch then flows through the
// blocked objective kernel, which preserves per-coefficient record order
// exactly. Scratch space is pooled, so steady-state batch ingestion performs
// no per-record allocations.
//
//fm:noalloc
func (a *Accumulator) AddFlat(flat []float64) (int, error) {
	raw := a.rule.Schema()
	k, err := raw.CheckBatch(flat, a.n)
	if err != nil {
		return 0, fmt.Errorf("funcmech: %w", err)
	}
	if k == 0 {
		return 0, nil
	}
	w, d := raw.D()+1, a.rule.D()
	sc := flatScratchPool.Get().(*flatScratch)
	defer flatScratchPool.Put(sc)
	sc.ensure(k*d, k)

	// A boolean label depends only on the record rule and the target, so
	// every boolean fold gets the same labels and the same first record the
	// rule cannot label (cut), which poisons it from that record on, exactly
	// as Add would. Labelling runs only while some boolean fold is intact:
	// with every one poisoned it would fail again, and allocate its error,
	// on every batch.
	labelling := false
	for _, f := range a.folds {
		if f.rule == core.TargetBoolean && f.err == nil {
			labelling = true
		}
	}
	cut := 0
	var labelErr error
	for i := 0; i < k; i++ {
		y := flat[(i+1)*w-1]
		a.rule.NormalizeRowInto(sc.xs[i*d:(i+1)*d], flat[i*w:(i+1)*w-1])
		sc.yn[i] = a.rule.NormalizeLabel(y)
		if labelling {
			if sc.yb[i], labelErr = a.rule.Label(core.TargetBoolean, y); labelErr == nil {
				cut++
			} else {
				labelling = false
			}
		}
	}

	a.gram.AddGram(sc.xs)
	for _, f := range a.folds {
		switch {
		case f.err != nil: // poisoned: folds no further records
		case f.rule == core.TargetBoolean:
			if cut > 0 {
				f.acc.AddFlat(sc.xs[:cut*d], sc.yb[:cut])
			}
			if labelErr != nil {
				f.err = fmt.Errorf("funcmech: record %d: %v; %s refits are unavailable", a.n+cut, labelErr, f.key)
			}
		default:
			f.acc.AddFlat(sc.xs, sc.yn)
		}
	}
	a.n += k
	return k, nil
}

// Len returns the number of records accumulated.
func (a *Accumulator) Len() int { return a.n }

// NumFeatures returns the raw feature dimensionality (without the intercept
// column).
func (a *Accumulator) NumFeatures() int { return a.rule.Schema().D() }

// Schema returns a copy of the accumulator's raw schema.
func (a *Accumulator) Schema() Schema { return *a.rule.Schema().Clone() }

// Intercept reports whether the accumulator folds an intercept column.
func (a *Accumulator) Intercept() bool { return a.rule.Intercept() }

// BinarizeThreshold returns the configured binarize threshold, if any.
func (a *Accumulator) BinarizeThreshold() (float64, bool) {
	if t := a.rule.Threshold(); t != nil {
		return *t, true
	}
	return 0, false
}

// Clone returns a deep copy sharing no mutable state with a.
func (a *Accumulator) Clone() *Accumulator {
	out := *a
	out.gram = a.gram.Clone()
	out.folds = make([]*taskFold, len(a.folds))
	for i, f := range a.folds {
		cp := *f
		cp.acc = f.acc.Clone()
		out.folds[i] = &cp
	}
	return &out
}

// Merge folds o's coefficients into a. Both accumulators must have been
// created with the same schema, intercept and threshold configuration —
// merging across configurations would mix incompatible geometries.
func (a *Accumulator) Merge(o *Accumulator) error {
	if err := a.compatible(o); err != nil {
		return err
	}
	a.gram.Merge(o.gram)
	for i, f := range a.folds {
		of := o.folds[i]
		f.acc.Merge(of.acc)
		if f.err == nil {
			f.err = of.err
		}
	}
	a.n += o.n
	return nil
}

func (a *Accumulator) compatible(o *Accumulator) error {
	if a.rule.Intercept() != o.rule.Intercept() {
		return errors.New("funcmech: merging accumulators with different intercept settings")
	}
	switch at, ot := a.rule.Threshold(), o.rule.Threshold(); {
	case (at == nil) != (ot == nil):
		return errors.New("funcmech: merging accumulators with different binarize thresholds")
	case at != nil && *at != *ot:
		return fmt.Errorf("funcmech: merging accumulators with different binarize thresholds (%v vs %v)", *at, *ot)
	}
	if as, os := a.rule.Schema(), o.rule.Schema(); as.Target != os.Target || !slices.Equal(as.Features, os.Features) {
		return errors.New("funcmech: merging accumulators with different schemas")
	}
	if len(a.folds) != len(o.folds) {
		return errors.New("funcmech: merging accumulators with different fold sets")
	}
	for i, f := range a.folds {
		if f.key != o.folds[i].key {
			return errors.New("funcmech: merging accumulators with different fold sets")
		}
	}
	return nil
}
