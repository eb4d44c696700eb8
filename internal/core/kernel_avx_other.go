//go:build !amd64

package core

// Non-amd64 builds have no hand-vectorized kernels: the flag is
// compile-time false, so the stubs below are unreachable (the dispatch
// checks the flag first) and exist only to satisfy the references.

const kernelHasAVX2 = false

func syrkBlock2x4AVX(left, tile *float64, rows, strideB, aOff, bOff int, dst0, dst1 *float64) {
	panic("core: vector kernel called without AVX2")
}

func syrkBlock2x8AVX(left, tile *float64, rows, strideB, aOff, bOff int, dst0, dst1 *float64) {
	panic("core: vector kernel called without AVX2")
}
