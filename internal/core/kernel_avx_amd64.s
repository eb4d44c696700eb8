// AVX2 block kernels for the SYRK accumulation sweep. The vector lanes run
// ACROSS the four cells of a 2×4 register block, never across records: each
// cell's per-record additions stay in record order, one IEEE-754 operation
// per record, so VMULPD/VADDPD here produce bit-for-bit the results of the
// scalar MULSD/ADDSD loop (kernel.go) — lane k of the vector is exactly the
// scalar chain for cell b+k.
//
// The scale operand folds the logistic ⅛ into the broadcast of x[a]:
// multiplying by 0.125 is bit-identical to the scalar path's x[a]/8 (both
// are exact power-of-two scalings), and multiplying by 1.0 is the identity
// on every finite float, so one kernel serves both objectives.

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

// func syrkBlock2x4AVX(tile *float64, rows, strideB, aOff, bOff int, dst0, dst1 *float64, scale float64)
//
// One 2×4 cell block over a tile: for each of rows records (byte stride
// strideB) with x[a] at byte offset aOff and x[b..b+3] at bOff,
//
//	dst0[0..3] += (x[a]·scale)   * x[b..b+3]
//	dst1[0..3] += (x[a+1]·scale) * x[b..b+3]
//
// in record order per cell — bit-identical to the scalar row-pair loop.
TEXT ·syrkBlock2x4AVX(SB), NOSPLIT, $0-64
	MOVQ tile+0(FP), DI
	MOVQ rows+8(FP), CX
	MOVQ strideB+16(FP), DX
	MOVQ aOff+24(FP), R8
	MOVQ bOff+32(FP), R9
	MOVQ dst0+40(FP), R10
	MOVQ dst1+48(FP), R11
	VBROADCASTSD scale+56(FP), Y5
	VMOVUPD (R10), Y0       // accumulators: row0 cells b..b+3
	VMOVUPD (R11), Y1       // accumulators: row1 cells b..b+3
	TESTQ CX, CX
	JLE  avx_done
avx_loop:
	VBROADCASTSD (DI)(R8*1), Y2    // x[a]
	VBROADCASTSD 8(DI)(R8*1), Y3   // x[a+1]
	VMOVUPD (DI)(R9*1), Y4         // x[b..b+3]
	VMULPD Y5, Y2, Y2              // ·scale (exact: 1.0 or 0.125)
	VMULPD Y5, Y3, Y3
	VMULPD Y4, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMULPD Y4, Y3, Y3
	VADDPD Y3, Y1, Y1
	ADDQ DX, DI
	DECQ CX
	JNZ  avx_loop
avx_done:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, (R11)
	VZEROUPPER
	RET

// func syrkBlock2x8AVX(tile *float64, rows, strideB, aOff, bOff int, dst0, dst1 *float64, scale float64)
//
// The wide form of syrkBlock2x4AVX: a 2×8 cell block (columns b..b+7), four
// independent VADDPD chains instead of two, half the broadcast traffic per
// multiply-add. Same bit-identity argument — lanes are cells, per-cell
// record order is the scalar chain. When scale is exactly 1.0 the loop
// skips the two scale multiplies (the common linear/ridge case).
TEXT ·syrkBlock2x8AVX(SB), NOSPLIT, $0-64
	MOVQ tile+0(FP), DI
	MOVQ rows+8(FP), CX
	MOVQ strideB+16(FP), DX
	MOVQ aOff+24(FP), R8
	MOVQ bOff+32(FP), R9
	MOVQ dst0+40(FP), R10
	MOVQ dst1+48(FP), R11
	VBROADCASTSD scale+56(FP), Y8
	VMOVUPD (R10), Y0       // row0 cells b..b+3
	VMOVUPD 32(R10), Y1     // row0 cells b+4..b+7
	VMOVUPD (R11), Y2       // row1 cells b..b+3
	VMOVUPD 32(R11), Y3     // row1 cells b+4..b+7
	TESTQ CX, CX
	JLE  w_done
	MOVQ $0x3FF0000000000000, AX   // 1.0
	MOVQ scale+56(FP), BX
	CMPQ AX, BX
	JEQ  w_loop1
w_loop:
	VBROADCASTSD (DI)(R8*1), Y6
	VBROADCASTSD 8(DI)(R8*1), Y7
	VMULPD Y8, Y6, Y6
	VMULPD Y8, Y7, Y7
	VMOVUPD (DI)(R9*1), Y4
	VMOVUPD 32(DI)(R9*1), Y5
	VMULPD Y4, Y6, Y9
	VADDPD Y9, Y0, Y0
	VMULPD Y5, Y6, Y10
	VADDPD Y10, Y1, Y1
	VMULPD Y4, Y7, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y5, Y7, Y12
	VADDPD Y12, Y3, Y3
	ADDQ DX, DI
	DECQ CX
	JNZ  w_loop
	JMP  w_done
w_loop1:
	VBROADCASTSD (DI)(R8*1), Y6
	VBROADCASTSD 8(DI)(R8*1), Y7
	VMOVUPD (DI)(R9*1), Y4
	VMOVUPD 32(DI)(R9*1), Y5
	VMULPD Y4, Y6, Y9
	VADDPD Y9, Y0, Y0
	VMULPD Y5, Y6, Y10
	VADDPD Y10, Y1, Y1
	VMULPD Y4, Y7, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y5, Y7, Y12
	VADDPD Y12, Y3, Y3
	ADDQ DX, DI
	DECQ CX
	JNZ  w_loop1
w_done:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, 32(R11)
	VZEROUPPER
	RET
