package experiments

import (
	"fmt"

	"funcmech/internal/census"
	"funcmech/internal/core"
	"funcmech/internal/noise"
)

// SweepPoint is one x-value of a figure with every method's result there.
type SweepPoint struct {
	// X is the sweep variable: attribute count, sampling rate, or ε.
	X float64
	// Results holds one entry per method, in configuration order.
	Results []MethodResult
}

// Sweep is one panel of a paper figure (e.g. Figure 4a "US-Linear").
type Sweep struct {
	// ID names the paper figure the panel belongs to ("F4", "F5", …).
	ID string
	// Title describes the panel, e.g. "US-Linear".
	Title string
	// XLabel names the sweep variable.
	XLabel string
	// Metric names the accuracy measure ("mean square error" or
	// "misclassification rate").
	Metric string
	// Points are the sweep values in plot order.
	Points []SweepPoint
}

// metricName names score's measure under the target rule.
func metricName(rule core.TargetRule) string {
	if rule == core.TargetBoolean {
		return "misclassification rate"
	}
	return "mean square error"
}

// RunDimensionalitySweep reproduces one panel of Figure 4: accuracy as the
// attribute count ranges over {5, 8, 11, 14} at the default ε and full
// configured cardinality.
func RunDimensionalitySweep(cfg Config, p census.Profile, spec core.TaskSpec) (*Sweep, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	title := TaskTitle(spec)
	sw := &Sweep{
		ID:     "F4",
		Title:  fmt.Sprintf("%s-%s", p.Name, title),
		XLabel: "dimensionality",
		Metric: metricName(spec.Target),
	}
	for _, dim := range census.Dimensionalities() {
		ds, err := PrepareTask(cfg, p, spec, dim)
		if err != nil {
			return nil, err
		}
		res, err := EvaluateMethods(cfg, ds, spec, cfg.Epsilon, fmt.Sprintf("F4/%s/%s/d=%d", p.Name, title, dim))
		if err != nil {
			return nil, err
		}
		sw.Points = append(sw.Points, SweepPoint{X: float64(dim), Results: res})
	}
	return sw, nil
}

// RunCardinalitySweep reproduces one panel of Figure 5: accuracy as the
// sampling rate ranges over {0.1 … 1.0} at the default dimensionality and ε.
func RunCardinalitySweep(cfg Config, p census.Profile, spec core.TaskSpec) (*Sweep, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	title := TaskTitle(spec)
	full, err := PrepareTask(cfg, p, spec, cfg.Dimensionality)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{
		ID:     "F5",
		Title:  fmt.Sprintf("%s-%s", p.Name, title),
		XLabel: "sampling rate",
		Metric: metricName(spec.Target),
	}
	for _, rate := range SamplingRates() {
		sampleRng := noise.NewRand(seedFor(cfg.BaseSeed, "F5", p.Name, title, rate))
		ds := full.Sample(sampleRng, rate)
		if ds.N() < cfg.Folds {
			continue
		}
		res, err := EvaluateMethods(cfg, ds, spec, cfg.Epsilon, fmt.Sprintf("F5/%s/%s/rate=%g", p.Name, title, rate))
		if err != nil {
			return nil, err
		}
		sw.Points = append(sw.Points, SweepPoint{X: rate, Results: res})
	}
	return sw, nil
}

// RunBudgetSweep reproduces one panel of Figure 6: accuracy as ε ranges over
// {0.1, 0.2, 0.4, 0.8, 1.6, 3.2} at the default dimensionality and full
// configured cardinality.
func RunBudgetSweep(cfg Config, p census.Profile, spec core.TaskSpec) (*Sweep, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	title := TaskTitle(spec)
	ds, err := PrepareTask(cfg, p, spec, cfg.Dimensionality)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{
		ID:     "F6",
		Title:  fmt.Sprintf("%s-%s", p.Name, title),
		XLabel: "privacy budget ε",
		Metric: metricName(spec.Target),
	}
	for _, eps := range EpsilonSweep() {
		res, err := EvaluateMethods(cfg, ds, spec, eps, fmt.Sprintf("F6/%s/%s/eps=%g", p.Name, title, eps))
		if err != nil {
			return nil, err
		}
		sw.Points = append(sw.Points, SweepPoint{X: eps, Results: res})
	}
	return sw, nil
}

// RunTimingByDimension reproduces one panel of Figure 7: per-fit wall-clock
// time versus dimensionality on logistic regression (the paper reports only
// logistic; linear is "qualitatively similar").
func RunTimingByDimension(cfg Config, p census.Profile) (*Sweep, error) {
	sw, err := RunDimensionalitySweep(cfg, p, caseStudy(core.TaskNameLogistic))
	if err != nil {
		return nil, err
	}
	return retitle(sw, "F7", "computation time (seconds)"), nil
}

// RunTimingByCardinality reproduces one panel of Figure 8.
func RunTimingByCardinality(cfg Config, p census.Profile) (*Sweep, error) {
	sw, err := RunCardinalitySweep(cfg, p, caseStudy(core.TaskNameLogistic))
	if err != nil {
		return nil, err
	}
	return retitle(sw, "F8", "computation time (seconds)"), nil
}

// RunTimingByBudget reproduces one panel of Figure 9.
func RunTimingByBudget(cfg Config, p census.Profile) (*Sweep, error) {
	sw, err := RunBudgetSweep(cfg, p, caseStudy(core.TaskNameLogistic))
	if err != nil {
		return nil, err
	}
	return retitle(sw, "F9", "computation time (seconds)"), nil
}

func retitle(sw *Sweep, id, metric string) *Sweep {
	sw.ID = id
	sw.Metric = metric
	return sw
}
