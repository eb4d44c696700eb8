package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"funcmech/internal/dataset"
	"funcmech/internal/poly"
)

// gramRecords returns n boolean-labelled records drawn uniformly from the
// unit ball in d dimensions, every feature then multiplied by scale. At
// scale 1e-160 the products xₐ·x_b are subnormal.
func gramRecords(rng *rand.Rand, n, d int, scale float64) *dataset.Dataset {
	ds := dataset.NewWithCapacity(unitSchema(d), n)
	x := make([]float64, d)
	for i := 0; i < n; i++ {
		norm := 0.0
		for j := range x {
			x[j] = rng.NormFloat64()
			norm += x[j] * x[j]
		}
		r := math.Pow(rng.Float64(), 1/float64(d)) / math.Sqrt(norm)
		for j := range x {
			x[j] *= r * scale
		}
		ds.Append(x, float64(rng.Intn(2)))
	}
	return ds
}

// perRecordLogistic is logistic's fold as it ran while its ⅛ was a
// per-record c2: row a of M takes (xₐ·0.125)·x_b for b ≥ a, α takes
// (½ − y)·x and β takes 0, record by record; finalization mirrors M and
// adds n·log 2.
func perRecordLogistic(ds *dataset.Dataset) *poly.Quadratic {
	d := ds.D()
	q := poly.NewQuadratic(d)
	for i := 0; i < ds.N(); i++ {
		x, y := ds.Row(i), ds.Label(i)
		for a, va := range x {
			l := va * 0.125
			row := q.M.Row(a)
			for b := a; b < d; b++ {
				row[b] += l * x[b]
			}
			q.Alpha[a] += (0.5 - y) * va
		}
	}
	q.MaterializeSymmetric()
	q.Beta += float64(ds.N()) * math.Ln2
	return q
}

// sameM and sameAlphaBeta report the first coefficient where a and b
// differ in any bit.
func sameM(a, b *poly.Quadratic) error {
	for i := 0; i < a.Dim(); i++ {
		for j := 0; j < a.Dim(); j++ {
			if math.Float64bits(a.M.At(i, j)) != math.Float64bits(b.M.At(i, j)) {
				return fmt.Errorf("M[%d,%d] %v vs %v", i, j, a.M.At(i, j), b.M.At(i, j))
			}
		}
	}
	return nil
}

func sameAlphaBeta(a, b *poly.Quadratic) error {
	for i := range a.Alpha {
		if math.Float64bits(a.Alpha[i]) != math.Float64bits(b.Alpha[i]) {
			return fmt.Errorf("α[%d] %v vs %v", i, a.Alpha[i], b.Alpha[i])
		}
	}
	if math.Float64bits(a.Beta) != math.Float64bits(b.Beta) {
		return fmt.Errorf("β %v vs %v", a.Beta, b.Beta)
	}
	return nil
}

// TestLogisticObjectiveIsEighthOfLinearGram pins the shared Gram on the
// one-shot path: over the same records, logistic's finalized M is ⅛ of
// linear's M bit for bit at every scale — subnormal products included —
// because both fold XᵀX with c2 = 1 and logistic scales the sum. At scale 1
// logistic's M also equals the per-record (xₐ·0.125)·x_b fold bit for bit,
// and α and β equal that fold's at every scale.
func TestLogisticObjectiveIsEighthOfLinearGram(t *testing.T) {
	for _, scale := range []float64{1, 1e-160} {
		for _, d := range []int{1, 3, 13, 14, 63, 64} {
			for _, n := range []int{1, 7, 129, 1000} {
				name := fmt.Sprintf("scale=%g d=%d n=%d", scale, d, n)
				ds := gramRecords(rand.New(rand.NewSource(int64(d*10000+n))), n, d, scale)
				lin := ParallelObjective(LinearTask{}, ds, 1)
				logit := ParallelObjective(LogisticTask{}, ds, 1)
				if err := sameM(logit, &poly.Quadratic{M: lin.M.Clone().ScaleMat(0.125)}); err != nil {
					t.Fatalf("%s: logistic M ≠ ⅛ linear M: %v", name, err)
				}
				ref := perRecordLogistic(ds)
				if err := sameAlphaBeta(logit, ref); err != nil {
					t.Fatalf("%s: logistic ≠ the per-record fold: %v", name, err)
				}
				if err := sameM(logit, ref); scale == 1 && err != nil {
					t.Fatalf("%s: logistic ≠ the per-record fold: %v", name, err)
				}
			}
		}
	}
}
