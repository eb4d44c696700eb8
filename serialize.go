package funcmech

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/fmbin"
)

// ErrVersionMismatch is returned when a persisted envelope (model or
// accumulator) carries a version this build does not understand. Callers
// migrating snapshot directories can match it with errors.Is.
var ErrVersionMismatch = errors.New("funcmech: unsupported envelope version")

// modelEnvelope is the on-disk format of a TaskModel. The weights are
// differentially private, so persisting them is as safe as releasing them;
// the schema bounds are public by assumption.
type modelEnvelope struct {
	Kind      string    `json:"kind"` // the registered task name
	Schema    Schema    `json:"schema"`
	Weights   []float64 `json:"weights"`
	Intercept bool      `json:"intercept"`
	Threshold *float64  `json:"threshold,omitempty"`
	Version   int       `json:"version"`
}

const envelopeVersion = 1

// Save writes the model as a version-1 JSON envelope whose kind is the task
// name. Everything serialized is already public under the model's ε
// guarantee.
func (m *TaskModel) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(modelEnvelope{
		Kind:      m.task.Name,
		Schema:    m.rule.Schema(),
		Weights:   m.weights,
		Intercept: m.rule.Intercept(),
		Threshold: m.rule.Threshold(),
		Version:   envelopeVersion,
	})
}

// LoadModel reads a model written by TaskModel.Save, for any registered
// task. It rejects a kind this build has not registered (wrapping
// ErrUnknownTask), a version other than 1 (wrapping ErrVersionMismatch), and
// a binarize threshold on a normalized-target kind.
func LoadModel(r io.Reader) (*TaskModel, error) {
	var env modelEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("funcmech: decoding model: %w", err)
	}
	spec, ok := core.LookupTask(env.Kind)
	if !ok {
		return nil, unknownTask(env.Kind)
	}
	if env.Version != envelopeVersion {
		return nil, fmt.Errorf("%w: model envelope version %d, want %d", ErrVersionMismatch, env.Version, envelopeVersion)
	}
	if env.Threshold != nil && spec.Target != core.TargetBoolean {
		return nil, fmt.Errorf("funcmech: %s model carries a binarize threshold, which only boolean-target tasks take", env.Kind)
	}
	rule, err := dataset.NewRule(env.Schema, env.Intercept, env.Threshold)
	if err != nil {
		return nil, fmt.Errorf("funcmech: stored schema invalid: %w", err)
	}
	if len(env.Weights) != rule.D() {
		return nil, fmt.Errorf("funcmech: model has %d weights for %d features", len(env.Weights), rule.D())
	}
	return &TaskModel{task: infoFromSpec(spec), weights: env.Weights, rule: rule}, nil
}

// taskBlock is one fold's scalar state in a version-4 accumulator envelope;
// the coefficient vectors live in the shared fmbin frame, one column per
// fold in sorted fold-name order.
type taskBlock struct {
	N    int     `json:"n"`
	Beta float64 `json:"beta"`
	// Error, when set, is the fold's poisoning error (a record whose label
	// could not be derived, recorded verbatim so restores reproduce it).
	Error string `json:"error,omitempty"`
}

// accumulatorEnvelope is the on-disk format of a streaming Accumulator.
// Unlike modelEnvelope, whose contents are already private, the coefficient
// sums here are raw aggregates of the ingested records: a serialized
// accumulator is as sensitive as the records themselves and must be stored
// in the same trust domain (it exists so an ingestion service can restart
// without re-ingesting, not for publication). See the data-sensitivity
// table in docs/ARCHITECTURE.md.
type accumulatorEnvelope struct {
	Kind      string   `json:"kind"` // "accumulator"
	Schema    Schema   `json:"schema"`
	Intercept bool     `json:"intercept"`
	Threshold *float64 `json:"threshold,omitempty"`
	// Records is the total record count; every fold not poisoned holds
	// exactly this many.
	Records int `json:"records,omitempty"`
	// Tasks is the per-fold state, keyed by registry fold name. The
	// coefficient frame carries one column per entry, ordered by sorted key.
	Tasks map[string]taskBlock `json:"tasks,omitempty"`
	// Coeffs is the coefficient payload: one compressed fmbin frame
	// (docs/FORMAT.md) with a column per fold and d + d(d+1)/2 rows per
	// column ([alpha..., packed upper triangle...]). JSON base64-encodes the
	// bytes.
	Coeffs  []byte `json:"coeffs,omitempty"`
	Version int    `json:"version"`
}

const accumulatorKind = "accumulator"

// accumulatorVersion is the only accumulator envelope version this build
// reads or writes: a named block per fold around one compressed fmbin
// coefficient frame. Any other version fails with ErrVersionMismatch.
const accumulatorVersion = 4

// Save writes the accumulator's full state as a version-4 envelope — JSON
// metadata with a named block per fold around a compressed fmbin coefficient
// frame; LoadAccumulator inverts it bit-exactly. A fold that shares the Gram
// writes the Gram scaled by the factor its task's finalization applies
// (core.Accumulator.StateOver), which is the M a fold that applied the
// factor per record would hold. See accumulatorEnvelope for the
// sensitivity caveat.
func (a *Accumulator) Save(w io.Writer) error {
	cols := len(a.folds)
	states := make([]core.AccumulatorState, cols)
	tasks := make(map[string]taskBlock, cols)
	for j, f := range a.folds {
		st := f.acc.StateOver(a.gram)
		states[j] = st
		tb := taskBlock{N: st.N, Beta: st.Beta}
		if f.err != nil {
			tb.Error = f.err.Error()
		}
		tasks[f.key] = tb
	}
	flat := make([]float64, 0, cols*(len(states[0].Alpha)+len(states[0].MU)))
	for r := range states[0].Alpha {
		for j := range states {
			flat = append(flat, states[j].Alpha[r])
		}
	}
	for r := range states[0].MU {
		for j := range states {
			flat = append(flat, states[j].MU[r])
		}
	}
	frame, err := fmbin.Encode(nil, flat, cols, true)
	if err != nil {
		return fmt.Errorf("funcmech: encoding coefficient frame: %w", err)
	}
	return json.NewEncoder(w).Encode(accumulatorEnvelope{
		Kind:      accumulatorKind,
		Schema:    a.rule.Schema(),
		Intercept: a.rule.Intercept(),
		Threshold: a.rule.Threshold(),
		Records:   a.n,
		Tasks:     tasks,
		Coeffs:    frame,
		Version:   accumulatorVersion,
	})
}

// foldPredates marks a restored fold whose snapshot was written before the
// fold's task was registered: earlier records were never folded for it, so
// refits would silently undercount — they fail with this error instead.
func foldPredates(f *taskFold) {
	f.err = fmt.Errorf("funcmech: snapshot predates task %q; %s refits are unavailable", f.key, f.key)
}

// LoadAccumulator reads an accumulator written by Save and resumes it:
// further Add calls continue the same fold, and fits from the restored
// accumulator are bit-identical to fits from the original. Only version-4
// envelopes load; any other version fails with an error wrapping
// ErrVersionMismatch. Folds an envelope predates (written before their task
// was registered) restore poisoned; envelopes carrying a fold for a task
// this build does not know fail with an error wrapping ErrUnknownTask.
// Unknown envelope fields are ignored, so a snapshot carrying the retired
// "fast_math" flag loads and keeps folding on the reproducible kernel.
func LoadAccumulator(r io.Reader) (*Accumulator, error) {
	var env accumulatorEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("funcmech: decoding accumulator: %w", err)
	}
	if env.Kind != accumulatorKind {
		return nil, fmt.Errorf("funcmech: envelope kind %q, want %q", env.Kind, accumulatorKind)
	}
	if env.Version != accumulatorVersion {
		return nil, fmt.Errorf("%w: accumulator envelope version %d, want %d", ErrVersionMismatch, env.Version, accumulatorVersion)
	}
	opts := []Option{}
	if env.Intercept {
		opts = append(opts, WithIntercept())
	}
	if env.Threshold != nil {
		opts = append(opts, WithBinarizeThreshold(*env.Threshold))
	}
	a, err := NewAccumulator(env.Schema, opts...)
	if err != nil {
		return nil, fmt.Errorf("funcmech: stored accumulator schema invalid: %w", err)
	}
	if err := restoreTaskFolds(a, &env); err != nil {
		return nil, err
	}
	return a, nil
}

// restoreTaskFolds restores the envelope's folds: one named block and one
// frame column per fold, in sorted fold-name order. The Gram comes from the
// first intact column of a fold that shares it, in fold order the linear
// one; the other sharing folds take only their n, α and β.
func restoreTaskFolds(a *Accumulator, env *accumulatorEnvelope) error {
	if env.Records < 0 {
		return fmt.Errorf("funcmech: accumulator envelope has negative record count %d", env.Records)
	}
	names := make([]string, 0, len(env.Tasks))
	for name := range env.Tasks {
		names = append(names, name)
	}
	sort.Strings(names)
	col := make(map[string]int, len(names))
	for j, name := range names {
		if a.fold(name) == nil {
			return fmt.Errorf("%w %q: snapshot carries a coefficient fold this build cannot resume", ErrUnknownTask, name)
		}
		col[name] = j
	}
	d := a.rule.D()
	packed := d * (d + 1) / 2
	flat, err := decodeCoeffFrame(env, len(names), d+packed)
	if err != nil {
		return err
	}
	cols := len(names)
	gram := false
	for _, f := range a.folds {
		j, ok := col[f.key]
		if !ok {
			foldPredates(f)
			continue
		}
		tb := env.Tasks[f.key]
		// Every record reaches every fold, except that a boolean fold
		// poisoned mid-batch stops short.
		if tb.N > env.Records || (tb.Error == "" && tb.N != env.Records) {
			return fmt.Errorf("funcmech: %s fold holds %d records, envelope holds %d", f.key, tb.N, env.Records)
		}
		st := core.AccumulatorState{N: tb.N, Beta: tb.Beta, Alpha: make([]float64, d), MU: make([]float64, packed)}
		for r := 0; r < d; r++ {
			st.Alpha[r] = flat[r*cols+j]
		}
		for r := 0; r < packed; r++ {
			st.MU[r] = flat[(d+r)*cols+j]
		}
		if err := f.acc.Restore(st); err != nil {
			return fmt.Errorf("funcmech: restoring %s coefficients: %w", f.key, err)
		}
		if tb.Error != "" {
			f.err = errors.New(tb.Error)
		}
		// The first intact fold that shares the Gram carries it.
		if f.acc.SharesGram() && f.err == nil && !gram {
			a.gram, gram = core.GramFromState(f.acc.Task(), st), true
		}
	}
	a.n = env.Records
	return nil
}

// decodeCoeffFrame decodes an envelope's fmbin coefficient frame and checks
// its geometry: cols columns of rows rows each.
func decodeCoeffFrame(env *accumulatorEnvelope, cols, rows int) ([]float64, error) {
	if len(env.Coeffs) == 0 {
		return nil, fmt.Errorf("funcmech: version-%d accumulator envelope has no coefficient frame", env.Version)
	}
	flat, got, err := fmbin.Decode(env.Coeffs, nil)
	if err != nil {
		if errors.Is(err, fmbin.ErrVersion) {
			return nil, fmt.Errorf("%w: coefficient frame: %v", ErrVersionMismatch, err)
		}
		return nil, fmt.Errorf("funcmech: decoding coefficient frame: %w", err)
	}
	if got != cols {
		return nil, fmt.Errorf("funcmech: coefficient frame has %d columns, want %d", got, cols)
	}
	if len(flat) != cols*rows {
		return nil, fmt.Errorf("funcmech: coefficient frame has %d rows per column, want %d", len(flat)/cols, rows)
	}
	return flat, nil
}
