package core

// Hand-vectorized AVX2 support for the accumulation kernels
// (kernel_avx_amd64.s). The vector block kernels put the four cells of a
// register block in the four VADDPD lanes — cells are independent, so
// per-cell record order (the bit-identity contract) is untouched. Feature
// detection is one CPUID/XGETBV probe at init; the flag is false on CPUs or
// kernels without AVX2 state support, and the dispatch falls back to the
// portable Go kernel.

// x86FeatureProbe reports AVX2 availability (bit 0), including the
// OS-enabled-YMM-state check.
func x86FeatureProbe() uint64

//go:noescape
func syrkBlock2x4AVX(left, tile *float64, rows, strideB, aOff, bOff int, dst0, dst1 *float64)

//go:noescape
func syrkBlock2x8AVX(left, tile *float64, rows, strideB, aOff, bOff int, dst0, dst1 *float64)

// kernelHasAVX2 gates the bit-identical vector tier.
var kernelHasAVX2 = x86FeatureProbe()&1 != 0
