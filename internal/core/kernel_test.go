package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestKernelTileRows pins the adaptive tile formula: rows = B/(8d) for the
// documented 64 KiB L2 streaming budget, clamped to [8, 128]. The pinned
// values are part of the bit-identity story — d=14 (the paper's case-study
// width) must keep the historical 128-row tile, and changing the formula
// silently re-tiles every generic-path fold.
func TestKernelTileRows(t *testing.T) {
	cases := []struct{ d, want int }{
		{1, 128},  // clamp high: tiny d would fit thousands of rows
		{4, 128},  // below the vector tier's minimum d, same formula
		{14, 128}, // historical tile preserved at the case-study width
		{16, 128}, // clamp high still
		{17, 128}, // odd width just past 16
		{33, 128}, // odd generic width, still clamped
		{64, 128}, // 65536/(8·64) = 128 exactly, boundary of the clamp
		{65, 126}, // first width that shrinks the tile
		{100, 81}, // non-power-of-two division
		{128, 64}, // benchmark sweep width
		{256, 32}, // a row still far from the budget
		{1024, 8}, // 65536/(8·1024) = 8, boundary with the clamp
		{2048, 8}, // clamp low: the budget no longer fits 8 rows
		{8192, 8}, // clamp low: a single row now outgrows the budget
	}
	for _, c := range cases {
		if got := kernelTileRows(c.d); got != c.want {
			t.Errorf("kernelTileRows(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// The formula itself, for arbitrary d.
	for d := 1; d <= 300; d++ {
		want := kernelTileBudget / (8 * d)
		if want > kernelTileMax {
			want = kernelTileMax
		}
		if want < kernelTileMin {
			want = kernelTileMin
		}
		if got := kernelTileRows(d); got != want {
			t.Fatalf("kernelTileRows(%d) = %d, want clamp(B/8d) = %d", d, got, want)
		}
	}
}

// TestKernelTierNames pins the tier vocabulary the kernel span attribute and
// the docs dispatch table share. The tier depends on d and the machine:
// with AVX2, every d wide enough to form vector blocks reports "vector";
// everything else runs the portable generic kernel.
func TestKernelTierNames(t *testing.T) {
	vectorOr := func(d int) string {
		if kernelHasAVX2 && d >= kernelVecMinDim {
			return TierVector
		}
		return TierGeneric
	}
	cases := []struct {
		d    int
		want string
	}{
		{4, TierGeneric}, // below kernelVecMinDim on any machine
		{5, TierGeneric},
		{6, vectorOr(6)},
		{14, vectorOr(14)},
		{17, vectorOr(17)},
		{128, vectorOr(128)},
	}
	for _, c := range cases {
		if got := KernelTier(c.d); got != c.want {
			t.Errorf("KernelTier(%d) = %q, want %q", c.d, got, c.want)
		}
	}
}

// tierRecorder is a TierProbe mapping each phase a run reports to the tier
// it was tagged with, or to untagged.
type tierRecorder map[string]string

const untagged = "(untagged)"

func (r tierRecorder) Phase(name string) func() {
	r[name] = untagged
	return func() {}
}

func (r tierRecorder) PhaseTier(name, tier string) func() {
	r[name] = tier
	return func() {}
}

// TestKernelSpanTier: every task's fold runs the SYRK dispatch, so every
// run's kernel span carries KernelTier(d) — the median fold included.
func TestKernelSpanTier(t *testing.T) {
	const d = 14
	for _, tc := range []struct {
		task     Task
		wantTier string
	}{
		{LinearTask{}, KernelTier(d)},
		{RidgeTask{Weight: 0.3}, KernelTier(d)},
		{LogisticTask{}, KernelTier(d)},
		{MedianTask{}, KernelTier(d)},
	} {
		probe := tierRecorder{}
		ds := sparseDataset(tc.task, 300, d, 5)
		if _, err := Run(tc.task, ds, 1, rand.New(rand.NewSource(1)), Options{Probe: probe}); err != nil {
			t.Fatalf("%s: %v", tc.task.Name(), err)
		}
		if got := probe[PhaseKernel]; got != tc.wantTier {
			t.Errorf("%s: kernel phase tier %q, want %q", tc.task.Name(), got, tc.wantTier)
		}
	}
}

// BenchmarkFold folds 1,024 unit-sphere records per iteration through each
// fold-defining task's accumulator with AddFlat, at the paper's case-study
// width (d=14) and the width of the fmbin refit workload (d=64).
func BenchmarkFold(b *testing.B) {
	const n = 1024
	for _, task := range []Task{LinearTask{}, LogisticTask{}, MedianTask{}} {
		for _, d := range []int{14, 64} {
			rng := rand.New(rand.NewSource(int64(d)))
			xs := make([]float64, n*d)
			ys := make([]float64, n)
			for i := 0; i < n; i++ {
				row := xs[i*d : (i+1)*d]
				norm := 0.0
				for j := range row {
					row[j] = rng.Float64()*2 - 1
					norm += row[j] * row[j]
				}
				for j := range row {
					row[j] /= math.Sqrt(norm)
				}
				ys[i] = rng.Float64()*2 - 1
				if task.Name() == TaskNameLogistic {
					ys[i] = float64(rng.Intn(2))
				}
			}
			b.Run(fmt.Sprintf("%s/d=%d", task.Name(), d), func(b *testing.B) {
				acc := NewAccumulator(task, d)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					acc.AddFlat(xs, ys)
				}
			})
		}
	}
}
