package funcmech

import (
	"math/rand"

	"funcmech/internal/core"
	"funcmech/internal/noise"
)

// PostProcess selects how an unbounded noisy objective is repaired; see
// paper §6 and the core package documentation.
type PostProcess = core.PostProcess

// Post-processing strategies, re-exported from the mechanism core.
const (
	// RegularizeAndTrim is the paper's recommended pipeline (default).
	RegularizeAndTrim = core.PostProcessRegularizeAndTrim
	// RegularizeOnly applies §6.1 ridge regularization alone.
	RegularizeOnly = core.PostProcessRegularizeOnly
	// Resample re-perturbs until bounded, at privacy cost 2ε (Lemma 5).
	Resample = core.PostProcessResample
	// NoPostProcess fails on unbounded noisy objectives.
	NoPostProcess = core.PostProcessNone
)

type config struct {
	opts      core.Options
	rng       *rand.Rand
	seed      int64
	hasSeed   bool
	threshold *float64
	intercept bool
	ridge     float64
}

// Option customizes a regression call.
type Option func(*config)

// WithPostProcess selects the §6 repair strategy.
func WithPostProcess(p PostProcess) Option {
	return func(c *config) { c.opts.PostProcess = p }
}

// WithParallelism bounds the worker pool that accumulates the objective —
// the fit's only pass over the records, and its dominant cost for large
// datasets. n = 0 (the default) uses runtime.GOMAXPROCS(0); n = 1 forces the
// serial sweep. The knob affects throughput only: noise is drawn after
// accumulation from the same deterministic stream, so the privacy guarantee
// and the WithSeed reproducibility contract are unchanged at a fixed n.
// Coefficients accumulated at different parallelism levels agree to
// floating-point round-off (the summation tree differs), so models fitted
// with the same seed but different n can differ in their last bits.
func WithParallelism(n int) Option {
	return func(c *config) { c.opts.Parallelism = n }
}

// Governor arbitrates accumulation workers across concurrent fits sharing
// one process; see Release.Run.
type Governor = core.Governor

// Probe receives phase boundaries (kernel, solve, noise) from a fit; see
// WithProbe.
type Probe = core.Probe

// WithProbe installs a phase probe on the fit: the mechanism reports when
// objective accumulation (kernel), minimization (solve), and Laplace
// perturbation (noise) start and end, so a serving layer can attribute
// per-request time to spans. The probe observes only phase names and
// durations — never coefficients or records — and the mechanism core itself
// never reads a clock; whatever timing the probe does happens on the
// caller's side. A nil probe is ignored.
func WithProbe(p Probe) Option {
	return func(c *config) { c.opts.Probe = p }
}

// WithSeed makes the mechanism's noise deterministic — for reproduction and
// tests. Without a seed (or WithRand), each release draws from a fresh
// ChaCha8 stream keyed from crypto/rand. For models
// that are bit-identical across machines, combine with WithParallelism(1);
// otherwise the objective's summation order follows the core count.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed; c.hasSeed = true }
}

// WithRand supplies the random source directly; it overrides WithSeed.
func WithRand(rng *rand.Rand) Option {
	return func(c *config) { c.rng = rng }
}

// WithBinarizeThreshold makes LogisticRegression derive the boolean target
// as (target > t), the transformation the paper applies to Annual Income.
// Without it the dataset's target must already be 0/1. A NaN or infinite
// t, which would label every record alike, is refused.
func WithBinarizeThreshold(t float64) Option {
	return func(c *config) { c.threshold = &t }
}

// WithRidge adds an L2 penalty weight·‖ω‖² to the linear-regression
// objective before perturbation (Hoerl–Kennard shrinkage as a modelling
// choice, distinct from the §6.1 noise-repair ridge). The penalty involves
// no data, so the privacy calibration is unchanged. Only tasks whose
// TaskInfo.AcceptsRidge is set take it ("linear" optionally, "ridge"
// mandatorily); the weight must be finite and not negative.
func WithRidge(weight float64) Option {
	return func(c *config) { c.ridge = weight }
}

// WithIntercept adds a constant bias term to the model — the "more general
// form" of the paper's footnote 2. Internally an always-one feature column
// is appended before normalization, so the dimensionality (and therefore the
// sensitivity Δ) grows by one; the privacy guarantee is unchanged. Use it
// whenever the target's level is not zero at the feature-space origin, which
// is nearly always for raw data.
func WithIntercept() Option {
	return func(c *config) { c.intercept = true }
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// noiseSource returns the generator a release draws its noise from:
// WithRand's, WithSeed's, or else a fresh ChaCha8 stream keyed from
// crypto/rand. Only a release that draws noise builds one.
func (c config) noiseSource() *rand.Rand {
	switch {
	case c.rng != nil:
		return c.rng
	case c.hasSeed:
		return noise.NewRand(c.seed)
	}
	return noise.NewUnseededRand()
}

// Report describes what one differentially private fit consumed and did.
// Its JSON form is the "report" object of the serving layer's release
// responses.
type Report struct {
	// Epsilon is the privacy budget actually spent: ε, or 2ε under
	// Resample.
	Epsilon float64 `json:"epsilon_spent"`
	// Delta is the coefficient sensitivity (2(d+1)² linear, d²/4+3d
	// logistic).
	Delta float64 `json:"delta"`
	// NoiseScale is Δ/ε, the Laplace scale per coefficient.
	NoiseScale float64 `json:"noise_scale"`
	// Lambda is the §6.1 ridge weight applied (0 when none).
	Lambda float64 `json:"lambda"`
	// Trimmed counts eigenvalues removed by §6.2 spectral trimming.
	Trimmed int `json:"trimmed"`
	// Resamples counts Lemma 5 retries.
	Resamples int `json:"resamples"`
}

func reportFrom(res *core.Result) *Report {
	return &Report{
		Epsilon:    res.EpsilonSpent,
		Delta:      res.Delta,
		NoiseScale: res.NoiseScale,
		Lambda:     res.Lambda,
		Trimmed:    res.Trimmed,
		Resamples:  res.Resamples,
	}
}
