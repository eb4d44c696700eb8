// Package experiments is the harness that regenerates every figure of the
// paper's evaluation (§7): repeated k-fold cross-validation of the five
// methods (FM, DPME, FP, NoPrivacy, Truncated) over the three sweeps of
// Table 2 — dataset dimensionality, dataset cardinality (sampling rate), and
// privacy budget ε — measuring mean squared error for linear regression,
// misclassification rate for logistic regression, and per-fit wall-clock
// time for the Figures 7–9 timing plots.
//
// The harness names its two case studies by their task-table rows
// (core.TaskSpec), which TaskByName resolves: the row's target rule picks
// the training labels, the score and whether Truncated runs, and each
// method fits the row.
package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"

	"funcmech/internal/baseline"
	"funcmech/internal/census"
	"funcmech/internal/core"
	"funcmech/internal/noise"
)

// TaskByName resolves the task-table row of a task the §7 harness
// evaluates: the paper's two case studies, linear regression (scored by MSE
// over normalized targets) and logistic regression (scored by
// misclassification rate). Every other name fails, registered tasks such as
// median and ridge included: the harness has no measurement protocol for
// them.
func TaskByName(name string) (core.TaskSpec, error) {
	if spec, ok := core.LookupTask(name); ok && (name == core.TaskNameLinear || name == core.TaskNameLogistic) {
		return spec, nil
	}
	return core.TaskSpec{}, fmt.Errorf("experiments: the §7 harness evaluates %s and %s, not %q",
		core.TaskNameLinear, core.TaskNameLogistic, name)
}

// caseStudy resolves one of the two case studies by its table constant.
func caseStudy(name string) core.TaskSpec {
	spec, err := TaskByName(name)
	if err != nil {
		panic(err)
	}
	return spec
}

// TaskTitle is the capitalized task name ("Linear", "Logistic") that panel
// titles print and that the noise and sampling seed labels hash.
func TaskTitle(spec core.TaskSpec) string {
	return strings.ToUpper(spec.Name[:1]) + spec.Name[1:]
}

// EpsilonSweep is the privacy-budget grid of Table 2.
func EpsilonSweep() []float64 { return []float64{0.1, 0.2, 0.4, 0.8, 1.6, 3.2} }

// SamplingRates is the cardinality grid of Table 2.
func SamplingRates() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// DefaultEpsilon is Table 2's bold default ε = 0.8.
const DefaultEpsilon = 0.8

// DefaultDimensionality is Table 2's bold default of 14 attributes.
const DefaultDimensionality = 14

// Config parameterizes a harness run. DefaultConfig is the one source of
// defaults: start from it and change what the run needs. Every field is
// taken as given and validated, except that a nil Profiles or Methods means
// the default set.
type Config struct {
	// Profiles are the census datasets to evaluate (default US and Brazil).
	Profiles []census.Profile
	// Methods are evaluated in order (default FM, DPME, FP, NoPrivacy,
	// Truncated — Truncated is skipped automatically on a normalized-target
	// row, linear regression, as in the paper's plots).
	Methods []baseline.Method
	// Folds is the cross-validation fold count (default 5, as in §7).
	Folds int
	// Repeats is how many times the k-fold protocol re-runs with fresh
	// shuffles and noise (paper: 50; default here 3 — raise for smoother
	// curves).
	Repeats int
	// Records caps the generated dataset cardinality; 0 means the full
	// profile cardinality (370k US / 190k Brazil).
	Records int
	// Epsilon is the default privacy budget for non-ε sweeps.
	Epsilon float64
	// Dimensionality is the attribute count (incl. target) for non-d
	// sweeps; must be one of census.Dimensionalities().
	Dimensionality int
	// BaseSeed makes the whole run deterministic at a fixed Parallelism on
	// a fixed machine; 0 is a seed like any other. Noise streams depend
	// only on the seed, but the FM objective's floating-point summation
	// tree depends on the effective worker count, so last-bit coefficient
	// reproducibility across machines requires Parallelism = 1.
	BaseSeed int64
	// Parallelism bounds the objective-accumulation worker pool of the FM
	// fits (0 means all cores, 1 the serial sweep); forwarded to
	// core.Options.Parallelism. Baselines are unaffected.
	Parallelism int
	// Plot renders each sweep as an ASCII chart after its table.
	Plot bool
	// CSV emits machine-readable rows instead of aligned tables for the
	// sweep figures.
	CSV bool
}

// DefaultConfig returns the paper's experimental grid at reduced scale.
func DefaultConfig() Config {
	return Config{
		Profiles: census.Profiles(),
		Methods:  DefaultMethods(),
		Folds:    5,
		Repeats:  3,
		Records:  30000,
		Epsilon:  DefaultEpsilon,

		Dimensionality: DefaultDimensionality,
		BaseSeed:       1,
	}
}

// DefaultMethods returns the §7 method set in plot order.
func DefaultMethods() []baseline.Method {
	return []baseline.Method{
		baseline.FM{},
		baseline.DPME{},
		baseline.FP{},
		baseline.NoPrivacy{},
		baseline.Truncated{},
	}
}

// withDefaults fills a nil Profiles or Methods and threads Parallelism into
// every FM whose own Options leave it zero.
func (c Config) withDefaults() Config {
	if c.Profiles == nil {
		c.Profiles = census.Profiles()
	}
	if c.Methods == nil {
		c.Methods = DefaultMethods()
	}
	if c.Parallelism != 0 {
		// Copy before rewriting: Methods may be a caller-owned slice.
		ms := append([]baseline.Method(nil), c.Methods...)
		for i, m := range ms {
			if fm, ok := m.(baseline.FM); ok && fm.Options.Parallelism == 0 {
				fm.Options.Parallelism = c.Parallelism
				ms[i] = fm
			}
		}
		c.Methods = ms
	}
	return c
}

func (c Config) validate() error {
	if c.Folds < 2 {
		return fmt.Errorf("experiments: Folds = %d, need ≥ 2", c.Folds)
	}
	if c.Repeats < 1 {
		return fmt.Errorf("experiments: Repeats = %d, need ≥ 1", c.Repeats)
	}
	if err := noise.CheckEpsilon(c.Epsilon); err != nil {
		return fmt.Errorf("experiments: Epsilon: %w", err)
	}
	if _, ok := census.DimensionSubsets()[c.Dimensionality]; !ok {
		return fmt.Errorf("experiments: Dimensionality %d not in %v", c.Dimensionality, census.Dimensionalities())
	}
	if c.Records < 0 {
		return fmt.Errorf("experiments: negative Records %d", c.Records)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("experiments: negative Parallelism %d", c.Parallelism)
	}
	return nil
}

// records resolves the effective cardinality for a profile.
func (c Config) records(p census.Profile) int {
	if c.Records == 0 || c.Records > p.Records {
		return p.Records
	}
	return c.Records
}

// seedFor derives a deterministic sub-seed from the base seed and a label,
// so every (method, repeat, fold, sweep point) consumes an independent,
// reproducible noise stream.
func seedFor(base int64, parts ...interface{}) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", base)
	for _, p := range parts {
		fmt.Fprintf(h, "|%v", p)
	}
	return int64(h.Sum64() & 0x7fffffffffffffff)
}
