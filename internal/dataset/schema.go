// Package dataset provides the tabular-data substrate for the functional
// mechanism: attribute schemas with public domain bounds, the record rule
// that turns a raw record into a training record (normalization into the
// geometry the paper's sensitivity analysis requires — every feature vector
// inside the d-dimensional unit sphere, the target in [−1,1] or {0,1} — plus
// the optional intercept column and binarize threshold), CSV serialization,
// subset sampling, dimensionality projection, and k-fold cross-validation
// splits.
//
// Normalization uses the *schema's* domain bounds, never data-derived
// minima/maxima: the bounds are public knowledge (paper §3, footnote 1), so
// using them costs no privacy budget, whereas scanning the data for its
// actual min/max would itself need to be made differentially private.
package dataset

import (
	"fmt"
	"math"
)

// Attribute describes one column: its name and the public [Min, Max] domain
// used for normalization. Values outside the domain are clamped on
// normalization (a record-level operation that cannot leak other records).
// The domain must be non-empty and finite enough that 2·(Max − Min) does not
// overflow: then the record rule maps every clamped value into range with
// no intermediate Inf, and so no NaN.
type Attribute struct {
	Name string
	Min  float64
	Max  float64
}

// Width returns Max − Min.
func (a Attribute) Width() float64 { return a.Max - a.Min }

// Validate reports a descriptive error for an unusable attribute.
func (a Attribute) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("dataset: attribute with empty name")
	}
	if !(a.Max > a.Min) {
		return fmt.Errorf("dataset: attribute %q has empty domain [%v, %v]", a.Name, a.Min, a.Max)
	}
	if math.IsInf(2*a.Width(), 1) {
		return fmt.Errorf("dataset: attribute %q has domain [%v, %v], too wide to normalize", a.Name, a.Min, a.Max)
	}
	return nil
}

// Schema is the column layout of a dataset: d feature attributes plus one
// target attribute (the paper's X₁…X_d, Y).
type Schema struct {
	Features []Attribute
	Target   Attribute
}

// D returns the number of feature attributes d.
func (s Schema) D() int { return len(s.Features) }

// Validate checks every attribute and uniqueness of names.
func (s Schema) Validate() error {
	if len(s.Features) == 0 {
		return fmt.Errorf("dataset: schema has no features")
	}
	seen := map[string]bool{}
	for _, a := range s.Features {
		if err := a.Validate(); err != nil {
			return err
		}
		if seen[a.Name] {
			return fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if err := s.Target.Validate(); err != nil {
		return err
	}
	if seen[s.Target.Name] {
		return fmt.Errorf("dataset: target name %q collides with a feature", s.Target.Name)
	}
	return nil
}

// CheckBatch is the one check of a raw batch: flat row-major records, each
// its feature vector in schema order with the target appended, so the row
// width is D()+1. It refuses a ragged batch and a NaN anywhere — NaN would
// poison coefficient sums irreversibly and slips through every range test —
// and returns the number of records. Infinities pass: the record rule clamps
// them to the domain edge like any out-of-domain value. Errors name a record
// as first plus its index in the batch and carry no package prefix; callers
// add their own context.
//
//fm:noalloc
func (s Schema) CheckBatch(flat []float64, first int) (int, error) {
	w := len(s.Features) + 1
	if len(flat)%w != 0 {
		return 0, fmt.Errorf("batch of %d values is not a multiple of %d (features + target)", len(flat), w)
	}
	for i, v := range flat {
		if !math.IsNaN(v) {
			continue
		}
		if c := i % w; c < w-1 {
			return 0, fmt.Errorf("record %d: feature %q is NaN", first+i/w, s.Features[c].Name)
		}
		return 0, fmt.Errorf("record %d: target %q is NaN", first+i/w, s.Target.Name)
	}
	return len(flat) / w, nil
}

// FeatureIndex returns the position of the named feature, or −1.
func (s Schema) FeatureIndex(name string) int {
	for i, a := range s.Features {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Project returns a new schema restricted to the named features (in the
// given order), keeping the same target. Unknown names are an error.
func (s Schema) Project(names []string) (*Schema, error) {
	out := &Schema{Target: s.Target}
	for _, n := range names {
		i := s.FeatureIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("dataset: unknown feature %q", n)
		}
		out.Features = append(out.Features, s.Features[i])
	}
	return out, nil
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() *Schema {
	out := &Schema{Target: s.Target}
	out.Features = append([]Attribute(nil), s.Features...)
	return out
}
