package core

import (
	"math"
	"testing"

	"funcmech/internal/poly"
)

// referenceRecord is the per-record reference fold the blocked kernel is
// pinned against, built from the task's coefficients in the historical
// scalar shape: row a of M takes (x[a]·c2)·x[b] for b ≥ a and is skipped
// when x[a] == 0, then α takes c1·x and β takes c0.
func referenceRecord(task Task, q *poly.Quadratic, x []float64, y float64) {
	c0, c1, c2 := task.Coefficients(y)
	for a, va := range x {
		if va != 0 {
			l := va * c2
			row := q.M.Row(a)
			for b := a; b < len(x); b++ {
				row[b] += l * x[b]
			}
		}
		q.Alpha[a] += c1 * va
	}
	q.Beta += c0
}

// FuzzAccumulateBlockBitIdentity fuzzes the contract the SYRK-style blocked
// fold is allowed to exist under: AddFlat must produce coefficients
// byte-identical to folding the same records one at a time through
// referenceRecord, for every task, on arbitrary finite inputs.
func FuzzAccumulateBlockBitIdentity(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(make([]byte, 200))
	// Seeds steering d onto 4 (below the vector tier's minimum width), onto
	// 8, 14 and 16 (whole and partial 2×8/2×4 vector blocks) — data[0] of
	// 3, 7, 13, 15 — and onto 17, the widest d the fuzzer reaches
	// (data[0]=16).
	f.Add(append([]byte{3}, make([]byte, 5*8)...))
	f.Add(append([]byte{7}, make([]byte, 9*8)...))
	f.Add(append([]byte{13}, make([]byte, 15*8)...))
	f.Add(append([]byte{15}, make([]byte, 2*17*8)...))
	f.Add(append([]byte{16}, make([]byte, 3*18*8)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+8 {
			return
		}
		d := 1 + int(data[0])%17
		vals := bytesToFinite(data[1:])
		n := len(vals) / (d + 1)
		if n == 0 {
			return
		}
		if n > 64 {
			n = 64
		}
		xs := make([]float64, 0, n*d)
		ys := make([]float64, 0, n)
		for r := 0; r < n; r++ {
			row := vals[r*(d+1) : (r+1)*(d+1)]
			xs = append(xs, row[:d]...)
			ys = append(ys, row[d])
		}
		for _, task := range []Task{LinearTask{}, LogisticTask{}, MedianTask{}, RidgeTask{Weight: 0.3}} {
			scalar := poly.NewQuadratic(d)
			for r := 0; r < n; r++ {
				referenceRecord(task, scalar, xs[r*d:(r+1)*d], ys[r])
			}
			blocked := NewAccumulator(task, d)
			blocked.AddFlat(xs, ys)
			requireBitIdentical(t, task.Name(), scalar, blocked.q)
		}
	})
}

// bytesToFinite reinterprets 8-byte chunks as float64s, replacing NaN and
// ±Inf with small bounded values so the comparison exercises arithmetic, not
// NaN propagation quirks.
func bytesToFinite(b []byte) []float64 {
	out := make([]float64, 0, len(b)/8)
	for len(b) >= 8 {
		bits := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(int64(bits%2001)-1000) / 1000
		}
		out = append(out, v)
		b = b[8:]
	}
	return out
}

func requireBitIdentical(t *testing.T, name string, a, b *poly.Quadratic) {
	t.Helper()
	d := a.Dim()
	if math.Float64bits(a.Beta) != math.Float64bits(b.Beta) {
		t.Fatalf("%s: Beta diverged: % x vs % x", name, a.Beta, b.Beta)
	}
	for i := 0; i < d; i++ {
		if math.Float64bits(a.Alpha[i]) != math.Float64bits(b.Alpha[i]) {
			t.Fatalf("%s: Alpha[%d] diverged: %v vs %v", name, i, a.Alpha[i], b.Alpha[i])
		}
		for j := 0; j < d; j++ {
			if math.Float64bits(a.M.At(i, j)) != math.Float64bits(b.M.At(i, j)) {
				t.Fatalf("%s: M[%d,%d] diverged: %v vs %v", name, i, j, a.M.At(i, j), b.M.At(i, j))
			}
		}
	}
}
