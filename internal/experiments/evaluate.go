package experiments

import (
	"fmt"
	"math"
	"time"

	"funcmech/internal/baseline"
	"funcmech/internal/census"
	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/noise"
	"funcmech/internal/regression"
)

// MethodResult aggregates one method's cross-validated performance at one
// sweep point.
type MethodResult struct {
	// Method is the plot label ("FM", "DPME", …).
	Method string
	// Metric is the mean held-out error: MSE (linear) or misclassification
	// rate (logistic).
	Metric float64
	// StdDev is the standard deviation of the per-fold metrics.
	StdDev float64
	// FitSeconds is the mean wall-clock time of one training call — the
	// quantity Figures 7–9 plot.
	FitSeconds float64
	// Failures counts fit calls that returned an error (the fold is then
	// excluded from the mean).
	Failures int
}

// PrepareTask generates, projects and normalizes a profile's data for one
// task-table row and dimensionality: the §7 preprocessing pipeline. One
// record rule makes every training set, with the profile's income threshold
// deriving the boolean labels of a boolean-target row. It refuses an
// invalid cfg before generating anything.
func PrepareTask(cfg Config, p census.Profile, spec core.TaskSpec, dim int) (*dataset.Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	subset, ok := census.DimensionSubsets()[dim]
	if !ok {
		return nil, fmt.Errorf("experiments: no attribute subset for dimensionality %d", dim)
	}
	raw := census.GenerateN(p, cfg.records(p), seedFor(cfg.BaseSeed, "data", p.Name))
	proj, err := raw.Project(subset)
	if err != nil {
		return nil, err
	}
	rule, err := dataset.NewRule(*proj.Schema, false, &p.IncomeThreshold)
	if err != nil {
		return nil, err
	}
	return rule.Normalize(proj, spec.Target)
}

// EvaluateMethods runs the repeated k-fold protocol of §7 on an already
// normalized dataset: for every (repeat, fold, method) it trains on the
// training partition with budget eps and scores on the held-out fold.
// label keys the deterministic noise streams; distinct experiments must pass
// distinct labels. Before any fit it refuses, wrapping noise.ErrInvalidSpend,
// an eps whose Laplace scale at the row's Δ over ds's dimension overflows:
// every method spends the same ε, and FM's Δ is the largest of them.
func EvaluateMethods(cfg Config, ds *dataset.Dataset, spec core.TaskSpec, eps float64, label string) ([]MethodResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := noise.CheckScale(spec.Task.Sensitivity(ds.D()), eps); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	methods := cfg.Methods
	if spec.Target != core.TargetBoolean {
		methods = withoutTruncated(methods)
	}

	type agg struct {
		metrics []float64
		seconds float64
		fits    int
		fails   int
	}
	aggs := make([]agg, len(methods))

	for rep := 0; rep < cfg.Repeats; rep++ {
		// Folds are keyed by cardinality, not by the experiment label, so a
		// budget sweep reuses identical partitions across ε — which is why
		// the non-private baselines come out exactly constant in Figure 6,
		// as the paper observes.
		foldRng := noise.NewRand(seedFor(cfg.BaseSeed, "folds", ds.N(), rep))
		folds := dataset.KFold(ds.N(), cfg.Folds, foldRng)
		for fi, fold := range folds {
			train := ds.Subset(fold.Train)
			test := ds.Subset(fold.Test)
			for mi, m := range methods {
				rng := noise.NewRand(seedFor(cfg.BaseSeed, label, m.Name(), rep, fi))
				start := time.Now()
				w, err := m.Fit(spec, train, eps, rng)
				elapsed := time.Since(start).Seconds()
				if err != nil {
					aggs[mi].fails++
					continue
				}
				aggs[mi].seconds += elapsed
				aggs[mi].fits++
				aggs[mi].metrics = append(aggs[mi].metrics, score(spec.Target, w, test))
			}
		}
	}

	out := make([]MethodResult, len(methods))
	for mi, m := range methods {
		mean, sd := meanStd(aggs[mi].metrics)
		r := MethodResult{
			Method:   m.Name(),
			Metric:   mean,
			StdDev:   sd,
			Failures: aggs[mi].fails,
		}
		if aggs[mi].fits > 0 {
			r.FitSeconds = aggs[mi].seconds / float64(aggs[mi].fits)
		}
		out[mi] = r
	}
	return out, nil
}

// score is the held-out error under the target rule: misclassification rate
// for boolean labels, mean squared error otherwise.
func score(rule core.TargetRule, w []float64, test *dataset.Dataset) float64 {
	if rule == core.TargetBoolean {
		return (&regression.LogisticModel{Weights: w}).MisclassificationRate(test)
	}
	return (&regression.LinearModel{Weights: w}).MSE(test)
}

// withoutTruncated drops the Truncated baseline from a normalized-target
// (linear) evaluation: there it coincides with NoPrivacy (§5 applies only to
// non-polynomial objectives), and the paper's linear plots omit it for the
// same reason.
func withoutTruncated(methods []baseline.Method) []baseline.Method {
	out := make([]baseline.Method, 0, len(methods))
	for _, m := range methods {
		if m.Name() != "Truncated" {
			out = append(out, m)
		}
	}
	return out
}

func meanStd(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) == 1 {
		return mean, 0
	}
	for _, x := range xs {
		d := x - mean
		sd += d * d
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}
