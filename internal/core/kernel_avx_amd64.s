// AVX2 block kernels for the SYRK accumulation sweep. The vector lanes run
// ACROSS the four cells of a 2×4 register block, never across records: each
// cell's per-record additions stay in record order, one IEEE-754 operation
// per record, so VMULPD/VADDPD here produce bit-for-bit the results of the
// scalar MULSD/ADDSD loop (kernel.go) — lane k of the vector is exactly the
// scalar chain for cell b+k.
//
// Each kernel broadcasts from the left operand and streams from the tile.
// The per-record coefficient c2 (logistic's ⅛, median's curvature) already
// lives in the left operand, which the fold scales once per tile; for
// linear and ridge the tile is its own left operand.

#include "textflag.h"

// func x86FeatureProbe() uint64
//
// Bit 0: AVX2 usable (CPU flag + OS has enabled XMM/YMM state via XSAVE).
TEXT ·x86FeatureProbe(SB), NOSPLIT, $0-8
	MOVQ $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8             // feature bits: 27=OSXSAVE, 28=AVX
	BTL  $27, R8
	JNC  probe_done
	BTL  $28, R8
	JNC  probe_done
	XORL CX, CX
	XGETBV                  // XCR0 in DX:AX
	ANDL $6, AX
	CMPL AX, $6             // XMM and YMM state both OS-enabled
	JNE  probe_done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX             // AVX2
	JNC  probe_done
	MOVQ $1, ret+0(FP)
probe_done:
	RET

// func syrkBlock2x4AVX(left, tile *float64, rows, strideB, aOff, bOff int, dst0, dst1 *float64)
//
// One 2×4 cell block over a tile: for each of rows records (byte stride
// strideB in both operands) with l[a] at byte offset aOff of left and
// x[b..b+3] at bOff of tile,
//
//	dst0[0..3] += l[a]   * x[b..b+3]
//	dst1[0..3] += l[a+1] * x[b..b+3]
//
// in record order per cell — bit-identical to the scalar row-pair loop.
TEXT ·syrkBlock2x4AVX(SB), NOSPLIT, $0-64
	MOVQ left+0(FP), SI
	MOVQ tile+8(FP), DI
	MOVQ rows+16(FP), CX
	MOVQ strideB+24(FP), DX
	MOVQ aOff+32(FP), R8
	MOVQ bOff+40(FP), R9
	MOVQ dst0+48(FP), R10
	MOVQ dst1+56(FP), R11
	VMOVUPD (R10), Y0       // accumulators: row0 cells b..b+3
	VMOVUPD (R11), Y1       // accumulators: row1 cells b..b+3
	TESTQ CX, CX
	JLE  avx_done
avx_loop:
	VBROADCASTSD (SI)(R8*1), Y2    // l[a]
	VBROADCASTSD 8(SI)(R8*1), Y3   // l[a+1]
	VMOVUPD (DI)(R9*1), Y4         // x[b..b+3]
	VMULPD Y4, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMULPD Y4, Y3, Y3
	VADDPD Y3, Y1, Y1
	ADDQ DX, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  avx_loop
avx_done:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, (R11)
	VZEROUPPER
	RET

// func syrkBlock2x8AVX(left, tile *float64, rows, strideB, aOff, bOff int, dst0, dst1 *float64)
//
// The wide form of syrkBlock2x4AVX: a 2×8 cell block (columns b..b+7), four
// independent VADDPD chains instead of two, half the broadcast traffic per
// multiply-add. Same bit-identity argument — lanes are cells, per-cell
// record order is the scalar chain.
TEXT ·syrkBlock2x8AVX(SB), NOSPLIT, $0-64
	MOVQ left+0(FP), SI
	MOVQ tile+8(FP), DI
	MOVQ rows+16(FP), CX
	MOVQ strideB+24(FP), DX
	MOVQ aOff+32(FP), R8
	MOVQ bOff+40(FP), R9
	MOVQ dst0+48(FP), R10
	MOVQ dst1+56(FP), R11
	VMOVUPD (R10), Y0       // row0 cells b..b+3
	VMOVUPD 32(R10), Y1     // row0 cells b+4..b+7
	VMOVUPD (R11), Y2       // row1 cells b..b+3
	VMOVUPD 32(R11), Y3     // row1 cells b+4..b+7
	TESTQ CX, CX
	JLE  w_done
w_loop:
	VBROADCASTSD (SI)(R8*1), Y6    // l[a]
	VBROADCASTSD 8(SI)(R8*1), Y7   // l[a+1]
	VMOVUPD (DI)(R9*1), Y4         // x[b..b+3]
	VMOVUPD 32(DI)(R9*1), Y5       // x[b+4..b+7]
	VMULPD Y4, Y6, Y9
	VADDPD Y9, Y0, Y0
	VMULPD Y5, Y6, Y10
	VADDPD Y10, Y1, Y1
	VMULPD Y4, Y7, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y5, Y7, Y12
	VADDPD Y12, Y3, Y3
	ADDQ DX, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  w_loop
w_done:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, 32(R11)
	VZEROUPPER
	RET
