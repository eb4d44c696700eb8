package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/histogram"
	"funcmech/internal/noise"
)

// FP is the Filter-Priority baseline (Cormode, Procopiuc, Srivastava, Tran:
// differentially private publication of sparse data, ICDT'12), the paper's
// second competitor in §7. Like DPME it publishes a noisy histogram and
// regresses on synthetic data, but instead of materializing noise for every
// cell it publishes only cells whose noisy count clears a threshold θ:
//
//   - occupied cells: publish count + Lap(2/ε) when the noisy value > θ;
//   - empty cells: each clears the filter independently with probability
//     ρ = ½·exp(−εθ/2); the passing cells are sampled directly from that
//     Bernoulli process and receive a draw from the conditional tail
//     θ + Exp(ε/2).
//
// This "materialize the filter's output distribution, not the noise vector"
// trick is exactly the FP optimization — output-identical to filtering a
// fully perturbed histogram, but proportional in cost to the published size.
//
// The threshold θ = (2/ε)·ln(max(2, #empty)) targets O(1) expected false
// positives per histogram.
type FP struct{}

// Name implements Method.
func (FP) Name() string { return "FP" }

// Private implements Method.
func (FP) Private() bool { return true }

// Fit implements Method.
func (m FP) Fit(spec core.TaskSpec, ds *dataset.Dataset, eps float64, rng *rand.Rand) ([]float64, error) {
	syn, err := m.synthesize(ds, eps, rng)
	if err != nil {
		return nil, err
	}
	return fitOnSynthetic(spec, syn, ds.D()), nil
}

func (FP) synthesize(ds *dataset.Dataset, eps float64, rng *rand.Rand) (*dataset.Dataset, error) {
	if err := noise.CheckScale(histogram.CountSensitivity, eps); err != nil {
		return nil, fmt.Errorf("baseline: FP: %w", err)
	}
	if ds.N() == 0 {
		return nil, fmt.Errorf("baseline: FP on empty dataset")
	}
	grid, err := histogram.GridForCardinality(ds.Schema, ds.N())
	if err != nil {
		return nil, fmt.Errorf("baseline: FP grid: %w", err)
	}
	counts := grid.Count(ds)

	empty := 0
	for _, c := range counts {
		if c == 0 {
			empty++
		}
	}
	scale := histogram.CountSensitivity / eps
	theta := scale * math.Log(math.Max(2, float64(empty)))
	lap := noise.Laplace{Scale: scale}

	published := make([]float64, len(counts))
	// Occupied cells: perturb, then filter.
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if v := c + lap.Sample(rng); v > theta {
			published[i] = v
		}
	}
	// Empty cells: sample the Bernoulli pass process directly.
	rho := 0.5 * math.Exp(-theta/scale)
	if rho > 0 && empty > 0 {
		emptyIdx := make([]int, 0, empty)
		for i, c := range counts {
			if c == 0 {
				emptyIdx = append(emptyIdx, i)
			}
		}
		for _, i := range bernoulliPasses(rng, len(emptyIdx), rho) {
			// Conditional on passing, the noisy count is θ + Exp(scale).
			published[emptyIdx[i]] = theta + rng.ExpFloat64()*scale
		}
	}
	return grid.Synthesize(histogram.RoundNonNegative(published), ds.N())
}

// bernoulliPasses returns the indices i ∈ [0, n) of an i.i.d. Bernoulli(p)
// process that come up true, using geometric gap sampling so the cost is
// proportional to the number of successes, not n.
func bernoulliPasses(rng *rand.Rand, n int, p float64) []int {
	if p <= 0 || n == 0 {
		return nil
	}
	if p >= 1 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	var out []int
	logq := math.Log1p(-p)
	i := -1
	for {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		i += 1 + int(math.Log(u)/logq)
		if i >= n || i < 0 { // i<0 guards int overflow on astronomically small p
			return out
		}
		out = append(out, i)
	}
}
