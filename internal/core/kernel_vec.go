package core

import (
	"funcmech/internal/poly"
)

// This file is the Go half of the hand-vectorized tier: the tile sweep that
// drives the AVX2 block kernels in kernel_avx_amd64.s. The vectorization is
// ACROSS the four cells of a 2×4 register block — VADDPD lane k carries the
// scalar add chain of cell b+k, one IEEE-754 operation per record in record
// order — so syrkTileUpperVec is bit-for-bit identical to syrkTileUpper and
// slots into the same reproducibility contract. The win is throughput: the
// scalar kernel retires at most one multiply-add per cycle (MULSD and ADDSD
// compete for the same two FP ports), the vector block retires four.
//
// Only the full 2×4 and 2×8 interior blocks go through assembly. The
// leading-edge trio and the 1–3 column tails run the portable kernel's
// scalar loops (cells are independent, so covering them in a separate pass
// cannot change any cell's value), which keeps the assembly surface a single
// loop shape.

// syrkTileUpperVec is the AVX2 form of syrkTileUpper: one tile's Σᵣ lᵣ·xᵣᵀ
// into the upper triangle of M, bit-identical to the scalar fold. Callers
// must check kernelHasAVX2.
//
//fm:noalloc
func syrkTileUpperVec(m *poly.Quadratic, left, tile []float64, d int) {
	rows := len(tile) / d
	strideB := d * 8
	a := 0
	for ; a+2 <= d; a += 2 {
		row0, row1 := m.M.Row(a), m.M.Row(a+1)
		syrkPairEdge(left, tile, d, a, row0, row1)
		b := a + 2
		for ; b+8 <= d; b += 8 {
			syrkBlock2x8AVX(&left[0], &tile[0], rows, strideB, a*8, b*8, &row0[b], &row1[b])
		}
		if b+4 <= d {
			syrkBlock2x4AVX(&left[0], &tile[0], rows, strideB, a*8, b*8, &row0[b], &row1[b])
			b += 4
		}
		syrkPairTail(left, tile, d, a, b, row0, row1)
	}
	if a < d {
		syrkRowSingle(left, tile, d, a, m.M.Row(a))
	}
}
