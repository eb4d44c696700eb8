package funcmech

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
	"funcmech/internal/poly"
)

// TestAccumulatorLogisticIsEighthOfGram: through the stream fold, logistic's
// finalized M is ⅛ of linear's bit for bit, at scale 1 and with every
// feature scaled by 1e-160, because both finalize the one Gram the
// accumulator folds. It holds for a serial fold, after a merge (as a
// two-shard stream merges) and after a Save/LoadAccumulator round trip,
// which restores the serial fold's logistic objective bit for bit; and the
// serial fold's logistic objective is the one-shot fit's, bit for bit.
func TestAccumulatorLogisticIsEighthOfGram(t *testing.T) {
	for _, scale := range []float64{1, 1e-160} {
		for _, d := range []int{1, 3, 13, 14, 63, 64} {
			for _, n := range []int{1, 7, 129, 1000} {
				name := fmt.Sprintf("scale=%g d=%d n=%d", scale, d, n)
				var s Schema
				for j := 0; j < d; j++ {
					s.Features = append(s.Features, Attribute{Name: fmt.Sprintf("x%d", j), Min: 0, Max: 1})
				}
				s.Target = Attribute{Name: "y", Min: 0, Max: 1}
				flat := unitBallFlat(rand.New(rand.NewSource(int64(d*10000+n))), n, d, scale)
				half := n / 2 * (d + 1)
				serial := foldedAccumulator(t, s, flat[:half], flat[half:])
				merged := foldedAccumulator(t, s, flat[:half])
				if err := merged.Merge(foldedAccumulator(t, s, flat[half:])); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := serial.Save(&buf); err != nil {
					t.Fatal(err)
				}
				restored, err := LoadAccumulator(&buf)
				if err != nil {
					t.Fatal(err)
				}
				for _, acc := range []*Accumulator{serial, merged, restored} {
					eighth := objective(acc, core.LinearTask{})
					eighth.M.ScaleMat(0.125)
					if err := sameCoefficients(objective(acc, core.LogisticTask{}).M, eighth.M, nil, nil); err != nil {
						t.Fatalf("%s: logistic M ≠ ⅛ linear M: %v", name, err)
					}
				}
				raw := dataset.NewWithCapacity(&s, n)
				for r := 0; r < n; r++ {
					raw.Append(flat[r*(d+1):][:d], flat[r*(d+1)+d])
				}
				norm, err := serial.rule.Normalize(raw, core.TargetBoolean)
				if err != nil {
					t.Fatal(err)
				}
				want := objective(serial, core.LogisticTask{})
				for what, got := range map[string]*poly.Quadratic{
					"one-shot": core.ParallelObjective(core.LogisticTask{}, norm, 1),
					"restored": objective(restored, core.LogisticTask{}),
				} {
					if err := sameCoefficients(got.M, want.M, append(got.Alpha, got.Beta), append(want.Alpha, want.Beta)); err != nil {
						t.Fatalf("%s: %s logistic objective ≠ the stream fold's: %v", name, what, err)
					}
				}
			}
		}
	}
}

// foldedAccumulator returns an accumulator over s that has folded each
// flat batch in turn.
func foldedAccumulator(t *testing.T, s Schema, batches ...[]float64) *Accumulator {
	t.Helper()
	acc, err := NewAccumulator(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := acc.AddFlat(b); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// objective is the objective task releases from acc: its fold finalized
// over the accumulator's Gram.
func objective(acc *Accumulator, task core.Task) *poly.Quadratic {
	return acc.fold(task.Name()).acc.QuadraticOver(acc.gram, task)
}

// sameCoefficients reports the first entry where the matrices a and b, or
// the vectors u and v, differ in any bit.
func sameCoefficients(a, b *linalg.Matrix, u, v []float64) error {
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return fmt.Errorf("M[%d,%d] %v vs %v", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
	for i := range u {
		if math.Float64bits(u[i]) != math.Float64bits(v[i]) {
			return fmt.Errorf("α/β entry %d %v vs %v", i, u[i], v[i])
		}
	}
	return nil
}

// unitBallFlat returns n flat rows of d features and a boolean target: the
// absolute values of a uniform draw from the unit ball, times scale. Under
// a [0, 1] schema the record rule divides each feature by √d, so the
// training records stay in the unit ball.
func unitBallFlat(rng *rand.Rand, n, d int, scale float64) []float64 {
	flat := make([]float64, 0, n*(d+1))
	x := make([]float64, d)
	for i := 0; i < n; i++ {
		norm := 0.0
		for j := range x {
			x[j] = rng.NormFloat64()
			norm += x[j] * x[j]
		}
		r := math.Pow(rng.Float64(), 1/float64(d)) / math.Sqrt(norm)
		for j := range x {
			flat = append(flat, math.Abs(x[j])*r*scale)
		}
		flat = append(flat, float64(rng.Intn(2)))
	}
	return flat
}
