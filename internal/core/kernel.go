package core

import (
	"funcmech/internal/poly"
)

// This file is the blocked, SYRK-style accumulation kernel behind every
// task's fold. A record contributes c2·x·xᵀ to the quadratic term, so
// accumulating a batch is a symmetric rank-k update — BLAS's SYRK — of a
// left operand of c2-scaled rows against the raw rows. The fold
// (Accumulator.foldBlock) builds the left operand once per tile; while every
// c2 in the tile is 1 (linear, ridge, logistic, and a Gram) the raw tile is
// its own left operand.
// The kernel borrows SYRK's blocking scheme:
//
//   - Records are processed in tiles of kernelTileRows(d) rows, so one tile
//     of flat row-major storage stays cache-resident while the d(d+1)/2
//     upper-triangle entries each stream through it.
//   - Within a tile the triangle is covered in 2×4 register blocks (two M
//     rows × four adjacent columns): eight accumulator cells live in
//     registers for the whole tile — eight independent floating-point add
//     chains, enough to hide ADDSD latency — and each record costs six loads
//     for eight multiplies. Leading-edge and tail cells that don't fill a
//     2×4 block are grouped into smaller register blocks.
//   - The record loop is always innermost and walks one record offset
//     through both operands, which share the row-major layout.
//
// Every M[a,b] cell receives its per-record contributions l[a]·x[b] in exact
// record order, one IEEE-754 addition at a time: the register blocking
// spreads *cells* across registers, it never re-associates the additions
// within a cell, and floating-point addition on distinct cells never
// interacts. The kernel is therefore bit-for-bit identical to a
// record-by-record sweep; kernel_vec_test.go and columnar_test.go pin this
// down.
//
// Only median scales the left operand: its x[a]·c2 is the same single
// rounding its per-record fold made. Every other task's c2 is 1, so its M
// is the Gram XᵀX, which a stream folds once for all of them (NewGram);
// logistic's ⅛ scales the summed Gram in its FinalizeObjective instead of
// each x[a].
//
// On amd64 with AVX2 the interior register blocks run hand-vectorized
// (kernel_vec.go / kernel_avx_amd64.s) with the vector lanes spread across
// cells — the same argument applies, so that path is bit-identical too; this
// file's scalar loops are the portable fallback, the vector tier's edges and
// tails, and the reference the tests pin everything against.
//
// The kernel never skips a record whose x[a] is zero. The added terms are
// ±0.0, and an accumulator cell can never hold -0.0 (cells start at +0.0,
// and IEEE-754 round-to-nearest addition only produces -0.0 from two
// negative-zero operands), so v + ±0.0 == v bitwise and skipping would not
// change a bit.

// The record-block size B is chosen per d so one tile of flat row-major
// storage (B·d·8 bytes) stays within kernelTileBudget. The budget is an L2
// streaming budget, not an L1 one: each register block's tile pass touches
// only the few columns it reads (two or three cache lines per record), the
// hardware stride prefetcher covers the d·8-byte stride, and measurements
// on the reference machine show a 64 KiB tile beating a 16 KiB one at
// d=128 — shrinking the tile multiplies the per-tile accumulator
// spill/reload and call overhead faster than it buys locality. The
// historical constant kernelTile = 128 was hand-tuned for d=14; the
// formula keeps exactly that value through d=64 and shrinks the tile only
// for very wide designs (64 records at d=128) so a tile never outgrows L2.
const (
	// kernelTileBudget is the per-tile working-set budget, in bytes.
	kernelTileBudget = 64 * 1024
	// kernelTileMax caps the tile so the per-tile α/β fusion pass stays
	// fine-grained; it is the historical d=14 tuning point.
	kernelTileMax = 128
	// kernelTileMin keeps a floor under very wide designs: below 8 records
	// the per-tile register spill/reload of the M cells stops amortizing.
	kernelTileMin = 8
	// kernelVecMinDim is the narrowest d the vector sweep accepts: below it
	// row pairs form no full 2×4 interior block and the sweep would be pure
	// scalar with extra call overhead.
	kernelVecMinDim = 6
)

// kernelTileRows returns the record-block size for dimensionality d:
// ⌊kernelTileBudget / (8·d)⌋ clamped to [kernelTileMin, kernelTileMax].
// Tile boundaries never affect results — every M/α/β cell receives its
// per-record contributions in record order regardless of where tiles split —
// so this is purely a cache-shape decision.
func kernelTileRows(d int) int {
	rows := kernelTileBudget / (8 * d)
	if rows > kernelTileMax {
		rows = kernelTileMax
	}
	if rows < kernelTileMin {
		rows = kernelTileMin
	}
	return rows
}

// syrkTileUpper accumulates one tile's Σᵣ lᵣ·xᵣᵀ into the upper triangle of
// M, preserving per-cell record order: left holds the c2-scaled rows (or is
// tile itself), tile the raw rows, both flat with stride d.
//
//fm:noalloc
func syrkTileUpper(m *poly.Quadratic, left, tile []float64, d int) {
	a := 0
	for ; a+2 <= d; a += 2 {
		syrkRowPair(left, tile, d, a, m.M.Row(a), m.M.Row(a+1))
	}
	if a < d {
		syrkRowSingle(left, tile, d, a, m.M.Row(a))
	}
}

// syrkTileDispatch routes one tile's SYRK update: the hand-vectorized AVX2
// sweep when the CPU supports it and d is wide enough to form 2×4 interior
// blocks, else the generic syrkTileUpper. Both branches preserve the exact
// per-cell IEEE addition order, so the dispatch is invisible to the
// bit-identity contract — the same accumulator state is bit-identical
// across machines with and without AVX2.
//
//fm:noalloc
func syrkTileDispatch(m *poly.Quadratic, left, tile []float64, d int) {
	if kernelHasAVX2 && d >= kernelVecMinDim {
		syrkTileUpperVec(m, left, tile, d)
		return
	}
	syrkTileUpper(m, left, tile, d)
}

// syrkRowPair covers rows a and a+1 of the upper triangle over one tile:
// the leading-edge block, then 2×4 blocks from column a+2, then the tail.
//
//fm:noalloc
func syrkRowPair(left, tile []float64, d, a int, row0, row1 []float64) {
	syrkPairEdge(left, tile, d, a, row0, row1)
	b := a + 2
	for ; b+4 <= d; b += 4 {
		s0, s1, s2, s3 := row0[b], row0[b+1], row0[b+2], row0[b+3]
		u0, u1, u2, u3 := row1[b], row1[b+1], row1[b+2], row1[b+3]
		for off := 0; off < len(tile); off += d {
			la, lc := left[off+a], left[off+a+1]
			x0, x1, x2, x3 := tile[off+b], tile[off+b+1], tile[off+b+2], tile[off+b+3]
			s0 += la * x0
			s1 += la * x1
			s2 += la * x2
			s3 += la * x3
			u0 += lc * x0
			u1 += lc * x1
			u2 += lc * x2
			u3 += lc * x3
		}
		row0[b], row0[b+1], row0[b+2], row0[b+3] = s0, s1, s2, s3
		row1[b], row1[b+1], row1[b+2], row1[b+3] = u0, u1, u2, u3
	}
	syrkPairTail(left, tile, d, a, b, row0, row1)
}

// syrkPairEdge covers the three leading-edge cells (a,a), (a,a+1),
// (a+1,a+1) of a row pair over one tile as one register block.
//
//fm:noalloc
func syrkPairEdge(left, tile []float64, d, a int, row0, row1 []float64) {
	e0, e1, e2 := row0[a], row0[a+1], row1[a+1]
	for off := a; off < len(tile); off += d {
		la, lc := left[off], left[off+1]
		xa, xc := tile[off], tile[off+1]
		e0 += la * xa
		e1 += la * xc
		e2 += lc * xc
	}
	row0[a], row0[a+1], row1[a+1] = e0, e1, e2
}

// syrkPairTail covers the 0–3 columns of a row pair left over after the
// 2×4 (or vector) blocks, two rows at a time and all remaining columns in
// one tile pass, so a d=14 triangle never pays a pass that covers fewer
// than four cells.
//
//fm:noalloc
func syrkPairTail(left, tile []float64, d, a, b int, row0, row1 []float64) {
	switch d - b {
	case 3:
		s0, s1, s2 := row0[b], row0[b+1], row0[b+2]
		u0, u1, u2 := row1[b], row1[b+1], row1[b+2]
		for off := 0; off < len(tile); off += d {
			la, lc := left[off+a], left[off+a+1]
			x0, x1, x2 := tile[off+b], tile[off+b+1], tile[off+b+2]
			s0 += la * x0
			s1 += la * x1
			s2 += la * x2
			u0 += lc * x0
			u1 += lc * x1
			u2 += lc * x2
		}
		row0[b], row0[b+1], row0[b+2] = s0, s1, s2
		row1[b], row1[b+1], row1[b+2] = u0, u1, u2
	case 2:
		s0, s1 := row0[b], row0[b+1]
		u0, u1 := row1[b], row1[b+1]
		for off := 0; off < len(tile); off += d {
			la, lc := left[off+a], left[off+a+1]
			x0, x1 := tile[off+b], tile[off+b+1]
			s0 += la * x0
			s1 += la * x1
			u0 += lc * x0
			u1 += lc * x1
		}
		row0[b], row0[b+1] = s0, s1
		row1[b], row1[b+1] = u0, u1
	case 1:
		s, u := row0[b], row1[b]
		for off := 0; off < len(tile); off += d {
			x := tile[off+b]
			s += left[off+a] * x
			u += left[off+a+1] * x
		}
		row0[b], row1[b] = s, u
	}
}

// syrkRowSingle covers the last row of an odd-dimensional triangle over one
// tile — a single diagonal cell.
//
//fm:noalloc
func syrkRowSingle(left, tile []float64, d, a int, row []float64) {
	s := row[a]
	for off := a; off < len(tile); off += d {
		s += left[off] * tile[off]
	}
	row[a] = s
}
