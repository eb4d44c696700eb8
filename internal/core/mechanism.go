package core

import (
	"errors"
	"fmt"
	"math/rand"

	"funcmech/internal/dataset"
	"funcmech/internal/noise"
	"funcmech/internal/poly"
	"funcmech/internal/regression"
)

// ErrUnbounded is returned when the noisy objective has no minimum and the
// selected post-processing cannot (or may not) repair it.
var ErrUnbounded = errors.New("core: noisy objective is unbounded below")

// Result reports everything a mechanism run produced and consumed.
type Result struct {
	// Weights is ω̄ = argmin f̄_D(ω), the differentially private model.
	Weights []float64
	// Delta is the sensitivity Δ used to calibrate the noise.
	Delta float64
	// NoiseScale is Δ/ε, the Laplace scale injected per coefficient.
	NoiseScale float64
	// EpsilonSpent is ε, or 2ε under the Lemma 5 resampling variant.
	EpsilonSpent float64
	// Lambda is the §6.1 regularization weight applied (0 when none).
	Lambda float64
	// Trimmed counts the non-positive eigenvalues removed by §6.2
	// (0 when trimming never ran or removed nothing).
	Trimmed int
	// Resamples counts additional perturbation rounds under Lemma 5.
	Resamples int
	// Noisy is the perturbed objective f̄_D that Weights minimizes, after
	// regularization (but before trimming, which changes representation).
	Noisy *poly.Quadratic
}

// Run executes the functional mechanism (Algorithm 1, plus the Algorithm 2
// approximation embedded in the task's Objective) on ds with privacy budget
// eps, drawing noise from rng.
//
// ds must be a training copy made by the record rule (dataset.Normalizer)
// under the target rule of the task's table row: the task's Δ holds only
// for records in the domain that rule guarantees, and Run does not scan the
// records to check it. Run refuses, before the O(n·d²) objective build, an
// empty dataset, an eps whose Laplace scale Δ/ε is not finite and positive
// (noise.CheckScale) and invalid options.
//
// The returned weights are ε-differentially private (2ε under
// PostProcessResample); everything after the perturbation step is
// post-processing of the noisy coefficients and consumes no further budget.
func Run(task Task, ds *dataset.Dataset, eps float64, rng *rand.Rand, opts Options) (*Result, error) {
	if ds == nil || ds.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	// eps/opts are re-validated inside RunFromQuadratic; checking them here
	// too keeps a bad request from paying for the O(n·d²) objective build.
	if err := noise.CheckScale(task.Sensitivity(ds.D()), eps); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	exact := governedObjective(task, ds, opts.Parallelism, opts.Governor, opts.Probe)
	return RunFromQuadratic(task, exact, eps, rng, opts)
}

// RunFromQuadratic executes the mechanism's release step — perturbation plus
// post-processing — from a pre-built exact objective, skipping the O(n·d²)
// record sweep entirely. This is the incremental-refit path: a streaming
// ingestion layer maintains the objective's polynomial coefficients as
// records arrive (they are sums over records, so maintenance is a monoid
// fold) and every private release costs only O(d²) from the cached sums.
//
// The privacy guarantee is identical to Run's: exact must be built from the
// records by the same accumulation Run would perform (so its coefficients
// have the task's sensitivity Δ), the fresh Laplace draws happen here, and
// only the perturbed minimizer leaves. The exact coefficients themselves are
// never part of the release. As for Run, the records folded into exact must
// be training records made by the record rule (dataset.Normalizer) under the
// task's target rule, which puts each inside the unit sphere with its label
// in range; an ingestion layer applies that rule per record. It refuses
// what Run refuses of eps and opts before the first draw.
func RunFromQuadratic(task Task, exact *poly.Quadratic, eps float64, rng *rand.Rand, opts Options) (*Result, error) {
	delta := task.Sensitivity(exact.Dim())
	if err := noise.CheckScale(delta, eps); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	scale := noise.NewLaplace(delta, eps)

	res := &Result{
		Delta:        delta,
		NoiseScale:   scale.Scale,
		EpsilonSpent: eps,
	}

	// Phase-wrapped steps: perturbation reports PhaseNoise, every
	// minimization (Cholesky solve, and spectral trimming below) reports
	// PhaseSolve. With no probe installed these wrappers reduce to the
	// shared noop end func.
	perturb := func() *poly.Quadratic {
		end := startPhase(opts.Probe, PhaseNoise)
		defer end()
		return Perturb(exact, scale, rng)
	}
	minimize := func(q *poly.Quadratic) ([]float64, error) {
		end := startPhase(opts.Probe, PhaseSolve)
		defer end()
		return regression.MinimizeQuadratic(q)
	}

	switch opts.PostProcess {
	case PostProcessNone:
		noisy := perturb()
		res.Noisy = noisy
		w, err := minimize(noisy)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnbounded, err)
		}
		res.Weights = w
		return res, nil

	case PostProcessResample:
		// Lemma 5: repeating until bounded satisfies 2ε-DP.
		res.EpsilonSpent = 2 * eps
		for attempt := 0; attempt < maxResamples; attempt++ {
			noisy := perturb()
			w, err := minimize(noisy)
			if err == nil {
				res.Noisy = noisy
				res.Weights = w
				res.Resamples = attempt
				return res, nil
			}
		}
		return nil, fmt.Errorf("%w: still unbounded after %d resamples", ErrUnbounded, maxResamples)

	case PostProcessRegularizeOnly, PostProcessRegularizeAndTrim:
		noisy := perturb()
		res.Lambda = opts.LambdaFactor * scale.StdDev()
		noisy.M.AddDiagonal(res.Lambda)
		res.Noisy = noisy

		if w, err := minimize(noisy); err == nil {
			res.Weights = w
			return res, nil
		}
		if opts.PostProcess == PostProcessRegularizeOnly {
			return nil, fmt.Errorf("%w: regularization (λ=%v) was insufficient", ErrUnbounded, res.Lambda)
		}
		endTrim := startPhase(opts.Probe, PhaseSolve)
		w, trimmed, err := SpectralTrim(noisy)
		endTrim()
		if err != nil {
			return nil, err
		}
		res.Weights = w
		res.Trimmed = trimmed
		return res, nil
	}
	return nil, fmt.Errorf("core: unreachable post-process mode %v", opts.PostProcess)
}

// Perturb implements lines 2–7 of Algorithm 1 for a degree-2 objective: one
// independent Lap(Δ/ε) draw per monomial of the complete basis
// Φ₀ ∪ Φ₁ ∪ Φ₂ — including monomials whose data coefficient is zero, since
// skipping them would reveal which coefficients vanish. Cross-term noise is
// split evenly across the two symmetric matrix entries (§6.1's
// perturb-upper-triangle-and-mirror, expressed on monomial coefficients).
// The input is not modified.
func Perturb(q *poly.Quadratic, l noise.Laplace, rng *rand.Rand) *poly.Quadratic {
	d := q.Dim()
	out := q.Clone()
	out.Beta += l.Sample(rng)
	for j := 0; j < d; j++ {
		out.Alpha[j] += l.Sample(rng)
	}
	for j := 0; j < d; j++ {
		out.M.AddAt(j, j, l.Sample(rng))
		for k := j + 1; k < d; k++ {
			eta := l.Sample(rng)
			// The monomial ωⱼωₖ has coefficient M[j][k]+M[k][j]; adding η to
			// the coefficient means η/2 on each mirrored entry.
			out.M.AddAt(j, k, eta/2)
			out.M.AddAt(k, j, eta/2)
		}
	}
	return out
}

// CoefficientCount returns the number of independent Laplace draws Perturb
// makes for dimensionality d: 1 + d + d(d+1)/2.
func CoefficientCount(d int) int { return 1 + d + d*(d+1)/2 }
