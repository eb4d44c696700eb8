// Package histogram provides the multi-dimensional equi-width histogram
// substrate behind the two synthetic-data baselines the paper compares
// against (§7): DPME (Lei's differentially private M-estimators, NIPS'11)
// publishes a Laplace-perturbed histogram of the joint (features, target)
// space and regresses on synthetic tuples drawn from it; FP (Cormode et
// al.'s filter-priority publication, ICDT'12) publishes only cells whose
// noisy counts pass a threshold.
//
// The defining behaviour the paper exploits — histogram granularity must
// coarsen as dimensionality grows, destroying the regression signal — falls
// out of the cell-budget rule in GridForCardinality.
package histogram

import (
	"fmt"
	"math"

	"funcmech/internal/dataset"
)

// MaxCells bounds the dense cell array a Grid may allocate. Lei's
// bin-width rule would exceed memory for high-dimensional data; the cap
// forces the per-dimension resolution down instead, which is exactly the
// granularity collapse §7 reports for DPME at d ≥ 8.
const MaxCells = 1 << 20

// Grid is an equi-width partition of the joint (feature, target) domain
// described by a schema. Dimension d+1 (the last) bins the target.
type Grid struct {
	schema *dataset.Schema
	bins   []int // len D()+1; bins[D()] is the target dimension
	cells  int
}

// NewGrid builds a grid with the given per-dimension bin counts
// (len = schema.D()+1). The total cell count must not exceed MaxCells.
func NewGrid(s *dataset.Schema, bins []int) (*Grid, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(bins) != s.D()+1 {
		return nil, fmt.Errorf("histogram: %d bin counts for %d dimensions", len(bins), s.D()+1)
	}
	cells := 1
	for i, b := range bins {
		if b < 1 {
			return nil, fmt.Errorf("histogram: dimension %d has %d bins", i, b)
		}
		if cells > MaxCells/b {
			return nil, fmt.Errorf("histogram: grid exceeds MaxCells=%d", MaxCells)
		}
		cells *= b
	}
	return &Grid{schema: s.Clone(), bins: append([]int(nil), bins...), cells: cells}, nil
}

// GridForCardinality builds the grid DPME uses for a dataset of n records:
// Lei's rule sets the bin width h ∝ n^{−1/(2+dims)}, i.e. about
// n^{1/(2+dims)} bins per dimension, then the resolution is reduced until
// the dense cell array fits MaxCells. Binary dimensions (domain width 1 and
// unit-separated bounds, e.g. indicator attributes) never get more than two
// bins.
func GridForCardinality(s *dataset.Schema, n int) (*Grid, error) {
	if n < 1 {
		return nil, fmt.Errorf("histogram: GridForCardinality with n=%d", n)
	}
	dims := s.D() + 1
	m := int(math.Pow(float64(n), 1/float64(dims+2)))
	if m < 2 {
		m = 2
	}
	for m > 2 && pow(m, dims) > MaxCells {
		m--
	}
	if pow(m, dims) > MaxCells {
		return nil, fmt.Errorf("histogram: %d dimensions exceed MaxCells even at 2 bins each", dims)
	}
	bins := make([]int, dims)
	attrs := append(append([]dataset.Attribute(nil), s.Features...), s.Target)
	for i, a := range attrs {
		bins[i] = m
		if a.Width() <= 1.0000001 && a.Max-a.Min == 1 { // indicator-style domain
			bins[i] = min2(m, 2)
		}
	}
	return NewGrid(s, bins)
}

func pow(base, exp int) int {
	v := 1
	for i := 0; i < exp; i++ {
		if v > MaxCells {
			return v
		}
		v *= base
	}
	return v
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Cells returns the total number of grid cells.
func (g *Grid) Cells() int { return g.cells }

// Bins returns a copy of the per-dimension bin counts.
func (g *Grid) Bins() []int { return append([]int(nil), g.bins...) }

// CellIndex maps one record to its flat cell index.
func (g *Grid) CellIndex(x []float64, y float64) int {
	if len(x) != g.schema.D() {
		panic(fmt.Sprintf("histogram: CellIndex with %d features, schema has %d", len(x), g.schema.D()))
	}
	idx := 0
	for j, a := range g.schema.Features {
		idx = idx*g.bins[j] + g.binOf(x[j], a, g.bins[j])
	}
	tdim := g.schema.D()
	idx = idx*g.bins[tdim] + g.binOf(y, g.schema.Target, g.bins[tdim])
	return idx
}

func (g *Grid) binOf(v float64, a dataset.Attribute, bins int) int {
	if v <= a.Min {
		return 0
	}
	if v >= a.Max {
		return bins - 1
	}
	b := int((v - a.Min) / a.Width() * float64(bins))
	if b >= bins {
		b = bins - 1
	}
	return b
}

// CellCenter inverts CellIndex to the mid-point record of a cell.
func (g *Grid) CellCenter(idx int) ([]float64, float64) {
	if idx < 0 || idx >= g.cells {
		panic(fmt.Sprintf("histogram: cell %d out of range [0,%d)", idx, g.cells))
	}
	d := g.schema.D()
	coords := make([]int, d+1)
	for j := d; j >= 0; j-- {
		coords[j] = idx % g.bins[j]
		idx /= g.bins[j]
	}
	x := make([]float64, d)
	for j, a := range g.schema.Features {
		x[j] = center(coords[j], g.bins[j], a)
	}
	y := center(coords[d], g.bins[d], g.schema.Target)
	return x, y
}

func center(bin, bins int, a dataset.Attribute) float64 {
	w := a.Width() / float64(bins)
	return a.Min + (float64(bin)+0.5)*w
}
