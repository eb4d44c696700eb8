package core

import (
	"funcmech/internal/poly"
)

// This file is the blocked, SYRK-style accumulation kernel behind both
// case-study objectives. The per-record contribution to the quadratic term is
// the rank-1 update M += x·xᵀ (scaled for logistic), so accumulating a batch
// is a symmetric rank-k update — BLAS's SYRK — and the kernel borrows its
// blocking scheme:
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
//   - The record loop is always innermost and walks the tile by reslicing,
//     which keeps every index provably in bounds (len(p) ≥ d, a+1 < d,
//     b+3 < d), so the hot loops run bounds-check-free.
//
// Loop order is the transpose of the scalar AccumulateRecord path, but every
// M[a,b], Alpha[a] and Beta cell still receives its per-record contributions
// in exact record order, one IEEE-754 addition at a time: the register
// blocking spreads *cells* across registers, it never re-associates the
// additions within a cell, and floating-point addition on distinct cells
// never interacts. The kernel is therefore bit-for-bit identical to the
// historical record-by-record sweep; columnar_test.go pins this down.
//
// On amd64 with AVX2 the interior register blocks run hand-vectorized
// (kernel_vec.go / kernel_avx_amd64.s) with the vector lanes spread across
// cells — the same argument applies, so that path is bit-identical too; this
// file's scalar loops are the portable fallback and the reference the tests
// pin everything against.
//
// One deliberate deviation: the scalar path skipped a record's row-a updates
// when x[a] == 0, the kernel does not. The skipped additions are of ±0.0, and
// an accumulator cell can never hold -0.0 (cells start at +0.0, and IEEE-754
// round-to-nearest addition only produces -0.0 from two negative-zero
// operands), so v + ±0.0 == v bitwise and the results agree exactly.

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

// BlockTask is a RecordTask whose per-record fold is also available as a
// blocked kernel over flat row-major storage. All built-in tasks implement
// it; the sharded accumulator uses the block form whenever records arrive as
// a batch and falls back to AccumulateRecord otherwise.
type BlockTask interface {
	RecordTask
	// AccumulateBlock folds len(ys) records, given as flat row-major feature
	// storage xs with stride d, into the partial objective — bit-identically
	// to calling AccumulateRecord on each record in order.
	AccumulateBlock(acc *poly.Quadratic, xs []float64, ys []float64, d int)
}

// syrkTileUpper accumulates one tile's Σᵣ xᵣ·xᵣᵀ into the upper triangle of
// M, preserving per-cell record order. With div8 set each contribution is
// (x[a]/8)·x[b] — the logistic Taylor coefficient f₁⁽²⁾(0)=¼ halved across
// the symmetric pair, applied to x[a] first exactly as the scalar
// AccumulateRecord path applies it, so the two paths stay bit-identical.
//
//fm:noalloc
func syrkTileUpper(m *poly.Quadratic, tile []float64, d int, div8 bool) {
	a := 0
	for ; a+2 <= d; a += 2 {
		syrkRowPair(tile, d, a, div8, m.M.Row(a), m.M.Row(a+1))
	}
	if a < d {
		syrkRowSingle(tile, d, a, div8, m.M.Row(a))
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
func syrkTileDispatch(m *poly.Quadratic, tile []float64, d int, div8 bool) {
	if kernelHasAVX2 && d >= kernelVecMinDim {
		syrkTileUpperVec(m, tile, d, div8)
		return
	}
	syrkTileUpper(m, tile, d, div8)
}

// syrkRowPair covers rows a and a+1 of the upper triangle over one tile:
// the three leading-edge cells (a,a), (a,a+1), (a+1,a+1) as one register
// block, then 2×4 blocks from column a+2, then a joint 2-row tail.
//
//fm:noalloc
func syrkRowPair(tile []float64, d, a int, div8 bool, row0, row1 []float64) {
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

	b := a + 2
	for ; b+4 <= d; b += 4 {
		s0, s1, s2, s3 := row0[b], row0[b+1], row0[b+2], row0[b+3]
		u0, u1, u2, u3 := row1[b], row1[b+1], row1[b+2], row1[b+3]
		if div8 {
			for rem := tile; len(rem) >= d; rem = rem[d:] {
				p := rem[:d]
				va8, vc8 := p[a]/8, p[a+1]/8
				x0, x1, x2, x3 := p[b], p[b+1], p[b+2], p[b+3]
				s0 += va8 * x0
				s1 += va8 * x1
				s2 += va8 * x2
				s3 += va8 * x3
				u0 += vc8 * x0
				u1 += vc8 * x1
				u2 += vc8 * x2
				u3 += vc8 * x3
			}
		} else {
			for rem := tile; len(rem) >= d; rem = rem[d:] {
				p := rem[:d]
				va, vc := p[a], p[a+1]
				x0, x1, x2, x3 := p[b], p[b+1], p[b+2], p[b+3]
				s0 += va * x0
				s1 += va * x1
				s2 += va * x2
				s3 += va * x3
				u0 += vc * x0
				u1 += vc * x1
				u2 += vc * x2
				u3 += vc * x3
			}
		}
		row0[b], row0[b+1], row0[b+2], row0[b+3] = s0, s1, s2, s3
		row1[b], row1[b+1], row1[b+2], row1[b+3] = u0, u1, u2, u3
	}
	// Tail: the 1–3 columns left over after the 2×4 blocks, still two rows
	// at a time and all remaining columns in one tile pass, so a d=14
	// triangle never pays a pass that covers fewer than four cells.
	switch d - b {
	case 3:
		s0, s1, s2 := row0[b], row0[b+1], row0[b+2]
		u0, u1, u2 := row1[b], row1[b+1], row1[b+2]
		if div8 {
			for rem := tile; len(rem) >= d; rem = rem[d:] {
				p := rem[:d]
				va8, vc8 := p[a]/8, p[a+1]/8
				x0, x1, x2 := p[b], p[b+1], p[b+2]
				s0 += va8 * x0
				s1 += va8 * x1
				s2 += va8 * x2
				u0 += vc8 * x0
				u1 += vc8 * x1
				u2 += vc8 * x2
			}
		} else {
			for rem := tile; len(rem) >= d; rem = rem[d:] {
				p := rem[:d]
				va, vc := p[a], p[a+1]
				x0, x1, x2 := p[b], p[b+1], p[b+2]
				s0 += va * x0
				s1 += va * x1
				s2 += va * x2
				u0 += vc * x0
				u1 += vc * x1
				u2 += vc * x2
			}
		}
		row0[b], row0[b+1], row0[b+2] = s0, s1, s2
		row1[b], row1[b+1], row1[b+2] = u0, u1, u2
	case 2:
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
	case 1:
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

// syrkRowSingle covers the last row of an odd-dimensional triangle over one
// tile — a single diagonal cell.
//
//fm:noalloc
func syrkRowSingle(tile []float64, d, a int, div8 bool, row []float64) {
	s := row[a]
	if div8 {
		for rem := tile; len(rem) >= d; rem = rem[d:] {
			va := rem[a]
			s += va / 8 * va
		}
	} else {
		for rem := tile; len(rem) >= d; rem = rem[d:] {
			va := rem[a]
			s += va * va
		}
	}
	row[a] = s
}

// AccumulateBlock implements BlockTask for LinearTask: the SYRK update on M,
// α[a] −= 2y·x[a] and β += y², each cell in record order. The α/β pass runs
// per tile, right after the tile's M pass, while the tile is still
// cache-resident — fusing them saves a second full stream over xs.
//
//fm:noalloc
func (LinearTask) AccumulateBlock(acc *poly.Quadratic, xs []float64, ys []float64, d int) {
	n := len(ys)
	alpha := acc.Alpha
	beta := acc.Beta
	tileRows := kernelTileRows(d)
	for t0 := 0; t0 < n; t0 += tileRows {
		t1 := t0 + tileRows
		if t1 > n {
			t1 = n
		}
		tile := xs[t0*d : t1*d]
		syrkTileDispatch(acc, tile, d, false)
		rem := tile
		for _, y := range ys[t0:t1] {
			row := rem[:d]
			rem = rem[d:]
			c := 2 * y
			for a, va := range row {
				alpha[a] -= c * va
			}
			beta += y * y
		}
	}
	acc.Beta = beta
}

// AccumulateBlock implements BlockTask for LogisticTask: the SYRK update
// scaled by ⅛ on M and α[a] += (½−y)·x[a], fused per tile like LinearTask's;
// the n·log 2 constant stays in FinalizeObjective.
//
//fm:noalloc
func (LogisticTask) AccumulateBlock(acc *poly.Quadratic, xs []float64, ys []float64, d int) {
	n := len(ys)
	alpha := acc.Alpha
	tileRows := kernelTileRows(d)
	for t0 := 0; t0 < n; t0 += tileRows {
		t1 := t0 + tileRows
		if t1 > n {
			t1 = n
		}
		tile := xs[t0*d : t1*d]
		syrkTileDispatch(acc, tile, d, true)
		rem := tile
		for _, y := range ys[t0:t1] {
			row := rem[:d]
			rem = rem[d:]
			c := 0.5 - y
			for a, va := range row {
				alpha[a] += c * va
			}
		}
	}
}

// AccumulateBlock implements BlockTask for RidgeTask by delegating to
// LinearTask, exactly like AccumulateRecord: the penalty involves no data.
//
//fm:noalloc
func (RidgeTask) AccumulateBlock(acc *poly.Quadratic, xs []float64, ys []float64, d int) {
	LinearTask{}.AccumulateBlock(acc, xs, ys, d)
}
