package dataset

import (
	"fmt"
	"math"
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

// Normalizer is the record rule: the one place a raw record becomes a
// training record, so every fit, fold and evaluation sees the geometry the
// paper's sensitivity analysis assumes (§3, footnote 1). It appends the
// intercept column when configured — an always-one "(intercept)" feature
// with public domain [0, 1], so normalized it is the constant 1/√D, the
// bias basis function — then rescales each feature by the schema's public
// bounds,
//
//	x_ij → (x_ij − α_j) / ((β_j − α_j)·√D)
//
// with D the training dimensionality (d, or d+1 with the intercept), which
// places every feature vector inside the D-dimensional unit sphere (each
// coordinate lands in [0, 1/√D]). The label follows the task's TargetRule:
// a normalized target maps as
//
//	y → 2·(y − α_y)/(β_y − α_y) − 1 ∈ [−1, 1],
//
// a boolean target is (y > t) under a binarize threshold t and must be
// exactly 0 or 1 without one.
//
// The α/β bounds come from the schema — public domain knowledge — so
// applying the rule consumes no privacy budget. Out-of-domain values,
// infinities included, are clamped, a per-record operation that cannot
// reveal anything about other records. A NaN cannot be clamped: Normalize
// refuses it by record as it writes the training copy, and
// Schema.CheckBatch refuses it at ingestion, before NormalizeRowInto.
// Every record the rule accepts therefore lands with ‖x‖₂ ≤ 1 and its
// label in the target rule's range, the domain the tasks' Δ assume.
type Normalizer struct {
	schema    Schema // the raw schema: the caller's public bounds
	threshold *float64
	d         int // training dimensionality D: schema.D(), plus the intercept column
	sqrtD     float64
}

// NewNormalizer returns the plain record rule over s: no intercept column
// and no binarize threshold. It panics on an invalid schema.
func NewNormalizer(s *Schema) *Normalizer {
	nz, err := NewRule(*s, false, nil)
	if err != nil {
		panic(err)
	}
	return nz
}

// NewRule returns the record rule over the raw schema s: with intercept an
// always-one column is appended to every feature vector, and with a
// non-nil threshold boolean-target labels are derived as (y > *threshold).
func NewRule(s Schema, intercept bool, threshold *float64) (*Normalizer, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := CheckThreshold(threshold); err != nil {
		return nil, err
	}
	d := s.D()
	if intercept {
		d++
	}
	return &Normalizer{schema: s, threshold: threshold, d: d, sqrtD: math.Sqrt(float64(d))}, nil
}

// CheckThreshold is the one rule for a binarize threshold: none (nil) or a
// finite one. No target exceeds NaN or +Inf and every one exceeds −Inf, so
// such a threshold would label every record alike.
func CheckThreshold(t *float64) error {
	if t != nil && (math.IsNaN(*t) || math.IsInf(*t, 0)) {
		return fmt.Errorf("dataset: binarize threshold %v is not finite", *t)
	}
	return nil
}

// Schema returns the raw schema the rule was built over (shared, not
// copied).
//
//fm:noalloc
func (nz *Normalizer) Schema() Schema { return nz.schema }

// Intercept reports whether the rule appends the intercept column.
func (nz *Normalizer) Intercept() bool { return nz.d > nz.schema.D() }

// Threshold returns the binarize threshold, or nil.
func (nz *Normalizer) Threshold() *float64 { return nz.threshold }

// D returns the training dimensionality: the raw feature count, plus one
// with the intercept column.
//
//fm:noalloc
func (nz *Normalizer) D() int { return nz.d }

// NormalizeRow maps a raw feature vector into the unit sphere. The result is
// a new slice of length D().
func (nz *Normalizer) NormalizeRow(x []float64) []float64 {
	out := make([]float64, nz.d)
	nz.NormalizeRowInto(out, x)
	return out
}

// NormalizeRowInto is NormalizeRow writing into dst (len D()) instead of
// allocating — the per-record primitive of the flat ingest, fit and
// evaluation paths, which normalize into pooled, pre-sized or reused
// storage. dst may alias x.
//
//fm:noalloc
func (nz *Normalizer) NormalizeRowInto(dst, x []float64) {
	features := nz.schema.Features
	if len(x) != len(features) {
		panic(fmt.Sprintf("dataset: NormalizeRow with %d features, schema has %d", len(x), len(features)))
	}
	if len(dst) != nz.d {
		panic(fmt.Sprintf("dataset: NormalizeRowInto dst has %d entries, want %d", len(dst), nz.d))
	}
	row := dst[:len(x)] // one bounds check here keeps the loop free of them
	for j, a := range features {
		v := clamp(x[j], a.Min, a.Max)
		row[j] = (v - a.Min) / (a.Width() * nz.sqrtD)
	}
	if nz.d > len(x) {
		dst[len(x)] = 1 / nz.sqrtD // the intercept: always one, over its [0, 1] domain
	}
}

// NormalizeLabel maps a raw target value into [−1, 1].
//
//fm:noalloc
func (nz *Normalizer) NormalizeLabel(y float64) float64 {
	a := nz.schema.Target
	v := clamp(y, a.Min, a.Max)
	return 2*(v-a.Min)/a.Width() - 1
}

// DenormalizeLabel inverts NormalizeLabel.
func (nz *Normalizer) DenormalizeLabel(y float64) float64 {
	a := nz.schema.Target
	return a.Min + (y+1)/2*a.Width()
}

// Label derives the training label of raw target y under rule. It refuses
// NaN under either rule — a clamp passes NaN through, and (NaN > t) is
// false, so a threshold alone would quietly make it 0 — and, for a boolean
// label without a threshold, anything but 0 or 1. The error carries no
// record number or package prefix; callers add their own.
//
//fm:noalloc
func (nz *Normalizer) Label(rule TargetRule, y float64) (float64, error) {
	switch {
	case math.IsNaN(y):
		return 0, fmt.Errorf("target %q is NaN", nz.schema.Target.Name)
	case rule == TargetNormalized:
		return nz.NormalizeLabel(y), nil
	case nz.threshold != nil:
		if y > *nz.threshold {
			return 1, nil
		}
		return 0, nil
	case y == 0 || y == 1:
		return y, nil
	}
	return 0, fmt.Errorf("target %v is not boolean and no binarize threshold is set", y)
}

// Normalize returns the training copy of ds under the rule for a task with
// the given target rule: one pass, one n×D allocation. The returned
// dataset's schema carries the normalized domains. It fails, naming the
// record as Schema.CheckBatch does, on a NaN feature and when a label
// cannot be derived (see Label).
func (nz *Normalizer) Normalize(ds *Dataset, rule TargetRule) (*Dataset, error) {
	target := Attribute{Name: nz.schema.Target.Name, Min: -1, Max: 1}
	if rule == TargetBoolean {
		target.Min = 0
	}
	s := &Schema{Target: target, Features: make([]Attribute, 0, nz.d)}
	for _, a := range nz.schema.Features {
		s.Features = append(s.Features, Attribute{Name: a.Name, Min: 0, Max: 1 / nz.sqrtD})
	}
	if nz.Intercept() {
		s.Features = append(s.Features, Attribute{Name: "(intercept)", Min: 0, Max: 1 / nz.sqrtD})
	}
	out := NewWithCapacity(s, ds.N())
	var err error
	for i := 0; i < ds.N(); i++ {
		x, y := ds.Row(i), ds.Label(i)
		for j, v := range x {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("dataset: record %d: feature %q is NaN", i, nz.schema.Features[j].Name)
			}
		}
		if rule == TargetNormalized && !math.IsNaN(y) {
			y = nz.NormalizeLabel(y) // Label's common case, inlined into the fit's one pass
		} else if y, err = nz.Label(rule, y); err != nil {
			return nil, fmt.Errorf("dataset: record %d: %w", i, err)
		}
		nz.NormalizeRowInto(out.AppendAlloc(y), x)
	}
	return out, nil
}

// NormalizeForLinear returns a copy of ds with features in the unit sphere
// and the target mapped into [−1, 1] — the precondition of Definition 1:
// Normalize under TargetNormalized, for data that holds no NaN (generated
// census data): it panics on one, as NewNormalizer panics on an invalid
// schema.
func (nz *Normalizer) NormalizeForLinear(ds *Dataset) *Dataset {
	out, err := nz.Normalize(ds, TargetNormalized)
	if err != nil {
		panic(err)
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
