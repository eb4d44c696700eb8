package baseline

import (
	"fmt"
	"math/rand"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/histogram"
	"funcmech/internal/noise"
)

// DPME is Lei's differentially private M-estimator baseline (NIPS'11; the
// paper's primary competitor in §7). It spends the whole budget on a noisy
// equi-width histogram of the joint (features, target) domain, generates a
// synthetic dataset that matches the noisy counts, and runs ordinary
// regression on the synthetic data.
//
// Because the published histogram is ε-differentially private and everything
// downstream reads only the histogram, the end-to-end procedure is
// ε-differentially private. Its weakness — the reason the paper wins — is
// the granularity collapse: the per-dimension resolution shrinks as
// dimensionality grows, so for d ≥ 8 the synthetic data retains almost none
// of the regression signal.
type DPME struct{}

// Name implements Method.
func (DPME) Name() string { return "DPME" }

// Private implements Method.
func (DPME) Private() bool { return true }

// Fit implements Method.
func (m DPME) Fit(spec core.TaskSpec, ds *dataset.Dataset, eps float64, rng *rand.Rand) ([]float64, error) {
	syn, err := m.synthesize(ds, eps, rng)
	if err != nil {
		return nil, err
	}
	return fitOnSynthetic(spec, syn, ds.D()), nil
}

// synthesize is the privacy-bearing part: noisy histogram → rounded counts →
// synthetic tuples at cell centers.
func (DPME) synthesize(ds *dataset.Dataset, eps float64, rng *rand.Rand) (*dataset.Dataset, error) {
	if err := noise.CheckScale(histogram.CountSensitivity, eps); err != nil {
		return nil, fmt.Errorf("baseline: DPME: %w", err)
	}
	if ds.N() == 0 {
		return nil, fmt.Errorf("baseline: DPME on empty dataset")
	}
	grid, err := histogram.GridForCardinality(ds.Schema, ds.N())
	if err != nil {
		return nil, fmt.Errorf("baseline: DPME grid: %w", err)
	}
	counts := grid.Count(ds)
	noisy := histogram.AddLaplace(counts, histogram.CountSensitivity, eps, rng)
	return grid.Synthesize(histogram.RoundNonNegative(noisy), ds.N())
}
