package funcmech_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"funcmech"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// flatRecords generates n raw records for incomeSchema() as one flat buffer
// (features + target per row) plus the equivalent per-record view.
func flatRecords(n int, seed int64) ([]float64, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	w := 4 // 3 features + target
	flat := make([]float64, 0, n*w)
	rows := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		row := []float64{
			16 + rng.Float64()*79, // age
			rng.Float64() * 16,    // education
			rng.Float64() * 99,    // hours
			rng.Float64() * 100000,
		}
		flat = append(flat, row...)
		rows = append(rows, row)
	}
	return flat, rows
}

// TestAddFlatBitIdenticalToAddLoop: the pooled flat batch fold must equal a
// per-record Add loop exactly — the bridge between the serve layer's flat
// decode path and the historical per-record semantics — for both objectives,
// with intercept and threshold in play.
func TestAddFlatBitIdenticalToAddLoop(t *testing.T) {
	cases := []struct {
		name string
		opts []funcmech.Option
	}{
		{"plain", nil},
		{"intercept+threshold", []funcmech.Option{funcmech.WithIntercept(), funcmech.WithBinarizeThreshold(35000)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flat, rows := flatRecords(500, 7)
			one, err := funcmech.NewAccumulator(incomeSchema(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				if err := one.Add(row[:3], row[3]); err != nil {
					t.Fatal(err)
				}
			}
			batch, err := funcmech.NewAccumulator(incomeSchema(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Split the flat buffer at awkward, unroll-hostile offsets.
			for _, cut := range [][2]int{{0, 1}, {1, 130}, {130, 131}, {131, 500}} {
				n, err := batch.AddFlat(flat[cut[0]*4 : cut[1]*4])
				if err != nil {
					t.Fatal(err)
				}
				if n != cut[1]-cut[0] {
					t.Fatalf("AddFlat accepted %d records, want %d", n, cut[1]-cut[0])
				}
			}
			if one.Len() != batch.Len() {
				t.Fatalf("record counts differ: %d vs %d", one.Len(), batch.Len())
			}

			lin1, _, err := funcmech.FitTaskFromAccumulator(one, "linear", 0.8, funcmech.WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			lin2, _, err := funcmech.FitTaskFromAccumulator(batch, "linear", 0.8, funcmech.WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			sameWeights(t, "linear", lin1.Weights(), lin2.Weights())

			if tc.opts != nil { // logistic needs the threshold variant
				log1, _, err := funcmech.FitTaskFromAccumulator(one, "logistic", 0.8, funcmech.WithSeed(5))
				if err != nil {
					t.Fatal(err)
				}
				log2, _, err := funcmech.FitTaskFromAccumulator(batch, "logistic", 0.8, funcmech.WithSeed(5))
				if err != nil {
					t.Fatal(err)
				}
				sameWeights(t, "logistic", log1.Weights(), log2.Weights())
			}
		})
	}
}

// TestAddFlatLogisticPoisoningMidBatch: a non-boolean target halfway through
// a flat batch must poison logistic refits from that record on — records
// before it still count — exactly like the per-record path.
func TestAddFlatLogisticPoisoningMidBatch(t *testing.T) {
	build := func(fold func(a *funcmech.Accumulator)) *funcmech.Accumulator {
		a, err := funcmech.NewAccumulator(incomeSchema())
		if err != nil {
			t.Fatal(err)
		}
		fold(a)
		return a
	}
	rows := [][]float64{
		{30, 10, 40, 1},
		{40, 12, 38, 0},
		{50, 14, 20, 17}, // poisons logistic from here on
		{60, 15, 10, 1},
	}
	flat := make([]float64, 0, 16)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	one := build(func(a *funcmech.Accumulator) {
		for _, r := range rows {
			if err := a.Add(r[:3], r[3]); err != nil {
				t.Fatal(err)
			}
		}
	})
	batch := build(func(a *funcmech.Accumulator) {
		if _, err := a.AddFlat(flat); err != nil {
			t.Fatal(err)
		}
	})
	if batch.Len() != 4 {
		t.Fatalf("poisoned batch folded %d records into linear, want 4", batch.Len())
	}
	_, _, errOne := funcmech.FitTaskFromAccumulator(one, "logistic", 0.5)
	_, _, errBatch := funcmech.FitTaskFromAccumulator(batch, "logistic", 0.5)
	if errOne == nil || errBatch == nil {
		t.Fatalf("poisoned accumulators must refuse logistic refits (one=%v batch=%v)", errOne, errBatch)
	}
	if errOne.Error() != errBatch.Error() {
		t.Fatalf("poisoning errors differ:\n  one:   %v\n  batch: %v", errOne, errBatch)
	}
	// Linear refits stay bit-identical despite the poisoning.
	lin1, _, err := funcmech.FitTaskFromAccumulator(one, "linear", 0.8, funcmech.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	lin2, _, err := funcmech.FitTaskFromAccumulator(batch, "linear", 0.8, funcmech.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "linear after poisoning", lin1.Weights(), lin2.Weights())
}

// TestAddFlatAllOrNothing: a NaN or a ragged buffer rejects the whole batch
// and leaves the accumulator byte-identical to its pre-call state.
func TestAddFlatAllOrNothing(t *testing.T) {
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.AddFlat([]float64{30, 10, 40, 20000}); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := acc.Save(&before); err != nil {
		t.Fatal(err)
	}

	if _, err := acc.AddFlat([]float64{30, 10, 40}); err == nil {
		t.Fatal("ragged flat buffer: expected error")
	}
	if _, err := acc.AddFlat([]float64{30, math.NaN(), 40, 20000, 31, 10, 41, 21000}); err == nil {
		t.Fatal("NaN feature: expected error")
	}
	if _, err := acc.AddFlat([]float64{30, 10, 40, math.NaN()}); err == nil {
		t.Fatal("NaN target: expected error")
	}
	if n, err := acc.AddFlat(nil); n != 0 || err != nil {
		t.Fatalf("empty batch: n=%d err=%v, want 0/nil", n, err)
	}

	var after bytes.Buffer
	if err := acc.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("rejected batches mutated the accumulator")
	}
}

// TestAddFlatNumbersRecordsInAccumulator: a NaN error names the record by its
// position in the accumulator, whether it arrives through Add or AddFlat, and
// the rejected record or batch is still not folded.
func TestAddFlatNumbersRecordsInAccumulator(t *testing.T) {
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := flatRecords(10, 7)
	if _, err := acc.AddFlat(flat); err != nil {
		t.Fatal(err)
	}

	err = acc.Add([]float64{30, math.NaN(), 40}, 20000)
	if err == nil || !strings.Contains(err.Error(), "record 10:") {
		t.Errorf("Add of a NaN feature after 10 records: err = %v, want record 10", err)
	}
	batch := []float64{30, 10, 40, 20000, 31, 10, 41, 21000, 32, 10, 42, math.NaN()}
	_, err = acc.AddFlat(batch)
	if err == nil || !strings.Contains(err.Error(), "record 12:") {
		t.Errorf("AddFlat with a NaN target in its third row: err = %v, want record 12", err)
	}
	if acc.Len() != 10 {
		t.Fatalf("rejected records were folded: Len = %d, want 10", acc.Len())
	}
}

// TestAddFlatAllocationFree: a warm AddFlat allocates nothing, whether every
// fold is intact or an earlier batch poisoned the logistic fold. A poisoned
// fold's labels are not derived again: each failure would allocate its error.
func TestAddFlatAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch")
	}
	flat, _ := flatRecords(64, 3)
	for _, tc := range []struct {
		name     string
		opts     []funcmech.Option
		poisoned bool
	}{
		{"intact", []funcmech.Option{funcmech.WithBinarizeThreshold(35000)}, false},
		{"logistic poisoned", nil, true}, // continuous targets, no threshold
	} {
		acc, err := funcmech.NewAccumulator(incomeSchema(), tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := acc.AddFlat(flat); err != nil { // warm the scratch pools
			t.Fatal(err)
		}
		if _, _, err := funcmech.FitTaskFromAccumulator(acc, "logistic", 1); (err != nil) != tc.poisoned {
			t.Fatalf("%s: test setup: logistic refit err = %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := acc.AddFlat(flat); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AddFlat = %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
