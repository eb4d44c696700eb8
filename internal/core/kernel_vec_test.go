package core

import (
	"math"
	"math/rand"
	"testing"

	"funcmech/internal/poly"
)

// The dispatch tests (columnar_test.go, fuzz_test.go) exercise whichever
// tile kernel the fold selects on the running machine — on amd64
// with AVX2 that is the vector sweep, which would leave the portable
// generic kernel untested exactly where it is not the default. The tests in
// this file therefore drive every tile-kernel variant directly against a
// naive per-record reference, so each stays verified everywhere.

// naiveTileUpper is the reference fold: per record, per cell, in record
// order, M[a,b] += l[a]·x[b], exactly the historical scalar semantics.
func naiveTileUpper(m *poly.Quadratic, left, tile []float64, d int) {
	for r := 0; r+d <= len(tile); r += d {
		l, p := left[r:r+d], tile[r:r+d]
		for a := 0; a < d; a++ {
			row := m.M.Row(a)
			for b := a; b < d; b++ {
				row[b] += l[a] * p[b]
			}
		}
	}
}

// scaledLeft returns tile with record r scaled by 0.1 + (r mod 7) — per-record
// factors that are not powers of two, so every product rounds.
func scaledLeft(tile []float64, d int) []float64 {
	left := make([]float64, len(tile))
	for i, v := range tile {
		left[i] = v * (0.1 + float64(i/d%7))
	}
	return left
}

// tileForTest fills a (rows×d) tile with a deterministic mix of signs,
// magnitudes, and exact zeros.
func tileForTest(rows, d int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	tile := make([]float64, rows*d)
	for i := range tile {
		switch rng.Intn(5) {
		case 0:
			tile[i] = 0
		case 1:
			tile[i] = -rng.Float64()
		case 2:
			tile[i] = rng.Float64() * 1e6
		default:
			tile[i] = rng.NormFloat64()
		}
	}
	return tile
}

// TestTileKernelVariantsBitIdentical pins every tile kernel — generic
// scalar, the vector sweep (when this machine has AVX2), and the dispatch —
// against the naive reference, bitwise, across tile shapes and two left
// operands: the tile itself (linear, ridge) and per-record scaled rows
// (logistic, median).
func TestTileKernelVariantsBitIdentical(t *testing.T) {
	ds := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 14, 16, 17, 31, 32, 33, 64, 100, 128}
	rowCounts := []int{1, 2, 3, 7, 16, 64, 130}
	for _, d := range ds {
		for _, rows := range rowCounts {
			tile := tileForTest(rows, d, int64(d*1000+rows))
			for _, scaled := range []bool{false, true} {
				left := tile
				if scaled {
					left = scaledLeft(tile, d)
				}
				want := poly.NewQuadratic(d)
				naiveTileUpper(want, left, tile, d)

				type variant struct {
					name string
					run  func(*poly.Quadratic)
				}
				variants := []variant{
					{"generic", func(m *poly.Quadratic) { syrkTileUpper(m, left, tile, d) }},
					{"dispatch", func(m *poly.Quadratic) { syrkTileDispatch(m, left, tile, d) }},
				}
				if kernelHasAVX2 && d >= kernelVecMinDim {
					variants = append(variants, variant{"vector", func(m *poly.Quadratic) { syrkTileUpperVec(m, left, tile, d) }})
				}
				for _, v := range variants {
					got := poly.NewQuadratic(d)
					v.run(got)
					for a := 0; a < d; a++ {
						for b := a; b < d; b++ {
							if math.Float64bits(got.M.At(a, b)) != math.Float64bits(want.M.At(a, b)) {
								t.Fatalf("%s d=%d rows=%d scaled=%v cell (%d,%d): %x ≠ reference %x",
									v.name, d, rows, scaled, a, b,
									math.Float64bits(got.M.At(a, b)), math.Float64bits(want.M.At(a, b)))
							}
						}
					}
				}
			}
		}
	}
}
