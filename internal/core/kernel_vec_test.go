package core

import (
	"math"
	"math/rand"
	"testing"

	"funcmech/internal/poly"
)

// The dispatch tests (columnar_test.go, fuzz_test.go) exercise whichever
// tile kernel AccumulateBlock selects on the running machine — on amd64
// with AVX2 that is the vector sweep, which would leave the portable
// generic kernel untested exactly where it is not the default. The tests in
// this file therefore drive every tile-kernel variant directly against a
// naive per-record reference, so each stays verified everywhere.

// naiveTileUpper is the reference fold: per record, per cell, in record
// order, exactly the historical scalar semantics.
func naiveTileUpper(m *poly.Quadratic, tile []float64, d int, div8 bool) {
	for r := 0; r+d <= len(tile); r += d {
		p := tile[r : r+d]
		for a := 0; a < d; a++ {
			row := m.M.Row(a)
			va := p[a]
			if div8 {
				va = va / 8
			}
			for b := a; b < d; b++ {
				row[b] += va * p[b]
			}
		}
	}
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
// against the naive reference, bitwise, across tile shapes and both
// objective scalings.
func TestTileKernelVariantsBitIdentical(t *testing.T) {
	ds := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 14, 16, 17, 31, 32, 33, 64, 100, 128}
	rowCounts := []int{1, 2, 3, 7, 16, 64, 130}
	for _, d := range ds {
		for _, rows := range rowCounts {
			tile := tileForTest(rows, d, int64(d*1000+rows))
			for _, div8 := range []bool{false, true} {
				want := poly.NewQuadratic(d)
				naiveTileUpper(want, tile, d, div8)

				type variant struct {
					name string
					run  func(*poly.Quadratic)
				}
				variants := []variant{
					{"generic", func(m *poly.Quadratic) { syrkTileUpper(m, tile, d, div8) }},
					{"dispatch", func(m *poly.Quadratic) { syrkTileDispatch(m, tile, d, div8) }},
				}
				if kernelHasAVX2 && d >= kernelVecMinDim {
					variants = append(variants, variant{"vector", func(m *poly.Quadratic) { syrkTileUpperVec(m, tile, d, div8) }})
				}
				for _, v := range variants {
					got := poly.NewQuadratic(d)
					v.run(got)
					for a := 0; a < d; a++ {
						for b := a; b < d; b++ {
							if math.Float64bits(got.M.At(a, b)) != math.Float64bits(want.M.At(a, b)) {
								t.Fatalf("%s d=%d rows=%d div8=%v cell (%d,%d): %x ≠ reference %x",
									v.name, d, rows, div8, a, b,
									math.Float64bits(got.M.At(a, b)), math.Float64bits(want.M.At(a, b)))
							}
						}
					}
				}
			}
		}
	}
}
