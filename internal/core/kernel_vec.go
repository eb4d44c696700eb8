package core

import (
	"funcmech/internal/poly"
)

// This file is the Go half of the hand-vectorized tier: the tile sweeps that
// drive the AVX2 block kernels in kernel_avx_amd64.s. The vectorization is
// ACROSS the four cells of a 2×4 register block — VADDPD lane k carries the
// scalar add chain of cell b+k, one IEEE-754 operation per record in record
// order — so syrkTileUpperVec is bit-for-bit identical to syrkTileUpper and
// slots into the same reproducibility contract. The win is throughput: the
// scalar kernel retires at most one multiply-add per cycle (MULSD and ADDSD
// compete for the same two FP ports), the vector block retires four.
//
// Only the full 2×4 interior blocks go through assembly. The leading-edge
// trio and the 1–2 column tails run the same scalar loops as the portable
// kernel (cells are independent, so covering them in a separate pass cannot
// change any cell's value), which keeps the assembly surface a single loop
// shape.

// syrkTileUpperVec is the AVX2 form of syrkTileUpper: one tile's Σᵣ xᵣ·xᵣᵀ
// into the upper triangle of M, bit-identical to the scalar fold. Callers
// must check kernelHasAVX2.
//
//fm:noalloc
func syrkTileUpperVec(m *poly.Quadratic, tile []float64, d int, div8 bool) {
	rows := len(tile) / d
	strideB := d * 8
	scale := 1.0
	if div8 {
		// Exact: x/8 and x·0.125 round identically (power-of-two scale).
		scale = 0.125
	}
	a := 0
	for ; a+2 <= d; a += 2 {
		row0, row1 := m.M.Row(a), m.M.Row(a+1)
		syrkPairEdge(tile, d, a, div8, row0, row1)
		b := a + 2
		for ; b+8 <= d; b += 8 {
			syrkBlock2x8AVX(&tile[0], rows, strideB, a*8, b*8, &row0[b], &row1[b], scale)
		}
		if b+4 <= d {
			syrkBlock2x4AVX(&tile[0], rows, strideB, a*8, b*8, &row0[b], &row1[b], scale)
			b += 4
		}
		syrkPairTail(tile, d, a, b, div8, row0, row1)
	}
	if a < d {
		syrkRowSingle(tile, d, a, div8, m.M.Row(a))
	}
}

// syrkPairEdge covers the three leading-edge cells (a,a), (a,a+1), (a+1,a+1)
// of a row pair over one tile — the same register block as syrkRowPair's
// opening pass.
//
//fm:noalloc
func syrkPairEdge(tile []float64, d, a int, div8 bool, row0, row1 []float64) {
	e0, e1, e2 := row0[a], row0[a+1], row1[a+1]
	if div8 {
		for rem := tile; len(rem) >= d; rem = rem[d:] {
			p := rem[:d]
			va, vc := p[a], p[a+1]
			va8, vc8 := va/8, vc/8
			e0 += va8 * va
			e1 += va8 * vc
			e2 += vc8 * vc
		}
	} else {
		for rem := tile; len(rem) >= d; rem = rem[d:] {
			p := rem[:d]
			va, vc := p[a], p[a+1]
			e0 += va * va
			e1 += va * vc
			e2 += vc * vc
		}
	}
	row0[a], row0[a+1], row1[a+1] = e0, e1, e2
}

// syrkPairTail covers the 1–3 columns of a row pair left over after the
// vector blocks, scalar and exact: a joint 2-column pass, then a single
// column if one remains. The grouping differs from syrkRowPair's joint
// 3-column tail, but cells are independent and each still receives its
// contributions in record order, so the results are bit-identical.
//
//fm:noalloc
func syrkPairTail(tile []float64, d, a, b int, div8 bool, row0, row1 []float64) {
	if b+2 <= d {
		s0, s1 := row0[b], row0[b+1]
		u0, u1 := row1[b], row1[b+1]
		if div8 {
			for rem := tile; len(rem) >= d; rem = rem[d:] {
				p := rem[:d]
				va8, vc8 := p[a]/8, p[a+1]/8
				x0, x1 := p[b], p[b+1]
				s0 += va8 * x0
				s1 += va8 * x1
				u0 += vc8 * x0
				u1 += vc8 * x1
			}
		} else {
			for rem := tile; len(rem) >= d; rem = rem[d:] {
				p := rem[:d]
				va, vc := p[a], p[a+1]
				x0, x1 := p[b], p[b+1]
				s0 += va * x0
				s1 += va * x1
				u0 += vc * x0
				u1 += vc * x1
			}
		}
		row0[b], row0[b+1] = s0, s1
		row1[b], row1[b+1] = u0, u1
		b += 2
	}
	if b < d {
		s, u := row0[b], row1[b]
		if div8 {
			for rem := tile; len(rem) >= d; rem = rem[d:] {
				p := rem[:d]
				x := p[b]
				s += p[a] / 8 * x
				u += p[a+1] / 8 * x
			}
		} else {
			for rem := tile; len(rem) >= d; rem = rem[d:] {
				p := rem[:d]
				x := p[b]
				s += p[a] * x
				u += p[a+1] * x
			}
		}
		row0[b], row1[b] = s, u
	}
}
