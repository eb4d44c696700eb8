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

// modelEnvelope is the on-disk format shared by both model kinds. The
// weights are differentially private, so persisting them is as safe as
// releasing them; the schema bounds are public by assumption.
type modelEnvelope struct {
	Kind      string    `json:"kind"` // "linear" or "logistic"
	Schema    Schema    `json:"schema"`
	Weights   []float64 `json:"weights"`
	Intercept bool      `json:"intercept"`
	Threshold *float64  `json:"threshold,omitempty"`
	Version   int       `json:"version"`
}

const envelopeVersion = 1

// Save writes the model as JSON. Everything serialized is already public
// under the model's ε guarantee.
func (m *LinearModel) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(modelEnvelope{
		Kind:      core.TaskNameLinear,
		Schema:    m.schema,
		Weights:   m.weights,
		Intercept: m.intercept,
		Version:   envelopeVersion,
	})
}

// Save writes the model as JSON.
func (m *LogisticModel) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(modelEnvelope{
		Kind:      core.TaskNameLogistic,
		Schema:    m.schema,
		Weights:   m.weights,
		Intercept: m.intercept,
		Threshold: m.threshold,
		Version:   envelopeVersion,
	})
}

// LoadLinearModel reads a model written by LinearModel.Save.
func LoadLinearModel(r io.Reader) (*LinearModel, error) {
	env, err := decodeEnvelope(r, core.TaskNameLinear)
	if err != nil {
		return nil, err
	}
	nz, err := envelopeNormalizer(env)
	if err != nil {
		return nil, err
	}
	return &LinearModel{
		weights:   env.Weights,
		nz:        nz,
		schema:    env.Schema,
		intercept: env.Intercept,
	}, nil
}

// LoadLogisticModel reads a model written by LogisticModel.Save.
func LoadLogisticModel(r io.Reader) (*LogisticModel, error) {
	env, err := decodeEnvelope(r, core.TaskNameLogistic)
	if err != nil {
		return nil, err
	}
	nz, err := envelopeNormalizer(env)
	if err != nil {
		return nil, err
	}
	return &LogisticModel{
		weights:   env.Weights,
		nz:        nz,
		schema:    env.Schema,
		intercept: env.Intercept,
		threshold: env.Threshold,
	}, nil
}

func decodeEnvelope(r io.Reader, kind string) (*modelEnvelope, error) {
	var env modelEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("funcmech: decoding model: %w", err)
	}
	if env.Kind != kind {
		return nil, fmt.Errorf("funcmech: model kind %q, want %q", env.Kind, kind)
	}
	if env.Version != envelopeVersion {
		return nil, fmt.Errorf("%w: model envelope version %d, want %d", ErrVersionMismatch, env.Version, envelopeVersion)
	}
	want := len(env.Schema.Features)
	if env.Intercept {
		want++
	}
	if len(env.Weights) != want {
		return nil, fmt.Errorf("funcmech: model has %d weights for %d features", len(env.Weights), want)
	}
	return &env, nil
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
	// Records is the total record count (version 4); earlier versions imply
	// it from the linear fold's count.
	Records int `json:"records,omitempty"`
	// Tasks is version 4's per-fold state, keyed by registry fold name. The
	// coefficient frame carries one column per entry, ordered by sorted key.
	Tasks map[string]taskBlock `json:"tasks,omitempty"`
	// Linear and Logistic are the pre-registry per-fold states (versions
	// 1–3), kept for decoding old snapshots; version 4 writes Tasks instead.
	Linear   *core.AccumulatorState `json:"linear,omitempty"`
	Logistic *core.AccumulatorState `json:"logistic,omitempty"`
	// Coeffs is the coefficient payload (versions 3 and 4): one compressed
	// fmbin frame (docs/FORMAT.md) with a column per fold and d + d(d+1)/2
	// rows per column ([alpha..., packed upper triangle...]). Version 3
	// frames carry exactly the linear and logistic columns. JSON
	// base64-encodes the bytes.
	Coeffs        []byte `json:"coeffs,omitempty"`
	LogisticError string `json:"logistic_error,omitempty"`
	Version       int    `json:"version"`
}

const accumulatorKind = "accumulator"

// Accumulator envelope versions. Version 4 replaces the hard-wired
// linear/logistic field pair with named per-task blocks (Tasks) so the
// envelope carries one fold per registered task family, and widens the
// coefficient frame to one column per fold. Version 3 moved the coefficient
// vectors into a compressed fmbin frame (see accumulatorEnvelope.Coeffs and
// docs/FORMAT.md), cutting snapshot size well below the version-2 JSON
// float arrays. Version 2 stores the coefficient matrices as packed upper
// triangles (d(d+1)/2 values) instead of version 1's full d×d matrices
// whose lower halves were structurally zero. Versions 1–3 still decode
// (folds they predate restore poisoned); anything else fails with
// ErrVersionMismatch.
const (
	accumulatorVersion       = 4
	accumulatorVersionFrame  = 3
	accumulatorVersionPacked = 2
	accumulatorVersionLegacy = 1
)

// Save writes the accumulator's full state as a version-4 envelope — JSON
// metadata with a named block per fold around a compressed fmbin coefficient
// frame; LoadAccumulator inverts it bit-exactly. See accumulatorEnvelope for
// the sensitivity caveat.
func (a *Accumulator) Save(w io.Writer) error {
	cols := len(a.folds)
	states := make([]core.AccumulatorState, cols)
	tasks := make(map[string]taskBlock, cols)
	for j, f := range a.folds {
		st := f.acc.State()
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
		Schema:    a.schema,
		Intercept: a.intercept,
		Threshold: a.threshold,
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
// accumulator are bit-identical to fits from the original. Envelopes from
// earlier versions (or written before a task was registered) restore with
// the missing folds poisoned; envelopes carrying a fold for a task this
// build does not know fail with an error wrapping ErrUnknownTask. Unknown
// envelope fields are ignored, so a snapshot carrying the retired
// "fast_math" flag loads and keeps folding on the reproducible kernel.
func LoadAccumulator(r io.Reader) (*Accumulator, error) {
	var env accumulatorEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("funcmech: decoding accumulator: %w", err)
	}
	if env.Kind != accumulatorKind {
		return nil, fmt.Errorf("funcmech: envelope kind %q, want %q", env.Kind, accumulatorKind)
	}
	switch env.Version {
	case accumulatorVersion, accumulatorVersionFrame, accumulatorVersionPacked, accumulatorVersionLegacy:
	default:
		return nil, fmt.Errorf("%w: accumulator envelope version %d, want %d (or earlier %d, %d, %d)",
			ErrVersionMismatch, env.Version, accumulatorVersion, accumulatorVersionFrame, accumulatorVersionPacked, accumulatorVersionLegacy)
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
	if env.Version == accumulatorVersion {
		err = restoreTaskFolds(a, &env)
	} else {
		err = restoreLegacyFolds(a, &env)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// restoreTaskFolds restores a version-4 envelope: one named block and one
// frame column per fold, in sorted fold-name order.
func restoreTaskFolds(a *Accumulator, env *accumulatorEnvelope) error {
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
	packed := a.d * (a.d + 1) / 2
	flat, err := decodeCoeffFrame(env, len(names), a.d+packed)
	if err != nil {
		return err
	}
	cols := len(names)
	for _, f := range a.folds {
		j, ok := col[f.key]
		if !ok {
			foldPredates(f)
			continue
		}
		tb := env.Tasks[f.key]
		st := core.AccumulatorState{N: tb.N, Beta: tb.Beta, Alpha: make([]float64, a.d), MU: make([]float64, packed)}
		for r := 0; r < a.d; r++ {
			st.Alpha[r] = flat[r*cols+j]
		}
		for r := 0; r < packed; r++ {
			st.MU[r] = flat[(a.d+r)*cols+j]
		}
		if f.acc, err = core.AccumulatorFromState(f.acc.Task(), st); err != nil {
			return fmt.Errorf("funcmech: restoring %s coefficients: %w", f.key, err)
		}
		if tb.Error != "" {
			f.err = errors.New(tb.Error)
		}
	}
	a.n = env.Records
	return nil
}

// restoreLegacyFolds restores a version-1/2/3 envelope: the linear and
// logistic folds carry state, every other registered fold predates the
// snapshot and restores poisoned.
func restoreLegacyFolds(a *Accumulator, env *accumulatorEnvelope) error {
	if env.Version == accumulatorVersionFrame {
		if err := unpackCoeffFrame(env, a.d); err != nil {
			return err
		}
	}
	if env.Linear == nil || env.Logistic == nil {
		return fmt.Errorf("funcmech: version-%d accumulator envelope is missing its linear/logistic state", env.Version)
	}
	if len(env.Linear.Alpha) != a.d || len(env.Logistic.Alpha) != a.d {
		return fmt.Errorf("funcmech: accumulator state dimensionality %d/%d does not match schema's %d",
			len(env.Linear.Alpha), len(env.Logistic.Alpha), a.d)
	}
	var err error
	for _, f := range a.folds {
		switch f.key {
		case core.TaskNameLinear:
			if f.acc, err = core.AccumulatorFromState(f.acc.Task(), *env.Linear); err != nil {
				return fmt.Errorf("funcmech: restoring linear coefficients: %w", err)
			}
		case core.TaskNameLogistic:
			if f.acc, err = core.AccumulatorFromState(f.acc.Task(), *env.Logistic); err != nil {
				return fmt.Errorf("funcmech: restoring logistic coefficients: %w", err)
			}
			if env.LogisticError != "" {
				f.err = errors.New(env.LogisticError)
			}
		default:
			foldPredates(f)
		}
	}
	a.n = env.Linear.N
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

// unpackCoeffFrame decodes a version-3 envelope's fmbin coefficient frame
// into the envelope's Linear and Logistic states in place, so the rest of
// the legacy restore is version-agnostic. d is the coefficient count implied
// by the envelope's schema; the frame must carry exactly two columns of
// d + d(d+1)/2 rows (alpha, then the packed upper triangle).
func unpackCoeffFrame(env *accumulatorEnvelope, d int) error {
	if env.Linear == nil || env.Logistic == nil {
		return fmt.Errorf("funcmech: version-%d accumulator envelope is missing its linear/logistic state", env.Version)
	}
	flat, err := decodeCoeffFrame(env, 2, d+d*(d+1)/2)
	if err != nil {
		return err
	}
	rows := len(flat) / 2
	linear := make([]float64, rows)
	logistic := make([]float64, rows)
	for r := 0; r < rows; r++ {
		linear[r], logistic[r] = flat[2*r], flat[2*r+1]
	}
	env.Linear.Alpha, env.Linear.MU = linear[:d], linear[d:]
	env.Logistic.Alpha, env.Logistic.MU = logistic[:d], logistic[d:]
	return nil
}

// envelopeNormalizer rebuilds the normalizer the model was trained with,
// re-deriving the intercept column when present.
func envelopeNormalizer(env *modelEnvelope) (*dataset.Normalizer, error) {
	s := env.Schema
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("funcmech: stored schema invalid: %w", err)
	}
	inner := s.internal()
	if env.Intercept {
		inner.Features = append(inner.Features, dataset.Attribute{Name: interceptName, Min: 0, Max: 1})
	}
	return dataset.NewNormalizer(inner), nil
}
