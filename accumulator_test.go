package funcmech_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"funcmech"
	"funcmech/internal/fmbin"
)

// ingest feeds every record of ds into acc, failing the test on error.
func ingest(t *testing.T, acc *funcmech.Accumulator, ds *funcmech.Dataset) {
	t.Helper()
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Record(i)
		if err := acc.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
}

func sameWeights(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: weight count %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: weight %d differs: %v vs %v (want bit-identical)", what, i, a[i], b[i])
		}
	}
}

// TestLinearFitFromAccumulatorBitIdentical is the streaming design's
// acceptance invariant: a refit from accumulated coefficients must be
// bit-identical to a one-shot fit over the same records in the same order at
// a fixed seed and serial accumulation — same fold, same noise stream, same
// minimizer.
func TestLinearFitFromAccumulatorBitIdentical(t *testing.T) {
	ds := incomeDataset(1500, 51)
	for _, tc := range []struct {
		name string
		opts []funcmech.Option
	}{
		{"plain", nil},
		{"intercept", []funcmech.Option{funcmech.WithIntercept()}},
		{"ridge", []funcmech.Option{funcmech.WithRidge(0.4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var accOpts, fitOpts []funcmech.Option
			for _, o := range tc.opts {
				// Intercept shapes the fold (accumulator-side); ridge shapes
				// only the finalization (fit-side).
				if tc.name == "intercept" {
					accOpts = append(accOpts, o)
				} else {
					fitOpts = append(fitOpts, o)
				}
			}
			acc, err := funcmech.NewAccumulator(incomeSchema(), accOpts...)
			if err != nil {
				t.Fatal(err)
			}
			ingest(t, acc, ds)

			oneShot := append([]funcmech.Option{funcmech.WithSeed(9), funcmech.WithParallelism(1)}, tc.opts...)
			m1, r1, err := funcmech.LinearRegression(ds, 0.8, oneShot...)
			if err != nil {
				t.Fatal(err)
			}
			streamed := append([]funcmech.Option{funcmech.WithSeed(9)}, fitOpts...)
			m2, r2, err := funcmech.FitTaskFromAccumulator(acc, "linear", 0.8, streamed...)
			if err != nil {
				t.Fatal(err)
			}
			sameWeights(t, tc.name, m1.Weights(), m2.Weights())
			if r1.Delta != r2.Delta || r1.NoiseScale != r2.NoiseScale || r1.Epsilon != r2.Epsilon {
				t.Fatalf("reports diverge: %+v vs %+v", r1, r2)
			}
			// The models must also predict identically in raw units.
			x := []float64{40, 12, 35}
			if p1, p2 := m1.Predict(x), m2.Predict(x); p1 != p2 {
				t.Fatalf("prediction differs: %v vs %v", p1, p2)
			}
		})
	}
}

func TestLogisticFitFromAccumulatorBitIdentical(t *testing.T) {
	ds := incomeDataset(2000, 52)
	acc, err := funcmech.NewAccumulator(incomeSchema(),
		funcmech.WithIntercept(), funcmech.WithBinarizeThreshold(60000))
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, ds)

	m1, _, err := funcmech.LogisticRegression(ds, 1.2, funcmech.WithSeed(3),
		funcmech.WithParallelism(1), funcmech.WithIntercept(), funcmech.WithBinarizeThreshold(60000))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := funcmech.FitTaskFromAccumulator(acc, "logistic", 1.2, funcmech.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "logistic", m1.Weights(), m2.Weights())
	x := []float64{55, 16, 60}
	if p1, p2 := m1.Predict(x), m2.Predict(x); p1 != p2 {
		t.Fatalf("probability differs: %v vs %v", p1, p2)
	}
}

// TestAccumulatorMergeMatchesSequential: ingesting through k accumulators
// and merging approximates the sequential fold to round-off — the property
// sharded ingestion relies on.
func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	ds := incomeDataset(900, 53)
	seq, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, seq, ds)

	parts := make([]*funcmech.Accumulator, 3)
	for i := range parts {
		if parts[i], err = funcmech.NewAccumulator(incomeSchema()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Record(i)
		if err := parts[i%3].Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	merged := parts[0].Clone()
	if err := merged.Merge(parts[1]); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(parts[2]); err != nil {
		t.Fatal(err)
	}
	if merged.Len() != seq.Len() {
		t.Fatalf("merged count %d, want %d", merged.Len(), seq.Len())
	}

	// Same seed ⇒ same noise; the only difference is the summation tree of
	// the exact coefficients, so weights agree to round-off.
	m1, _, err := funcmech.FitTaskFromAccumulator(seq, "linear", 1.0, funcmech.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := funcmech.FitTaskFromAccumulator(merged, "linear", 1.0, funcmech.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := m1.Weights(), m2.Weights()
	for i := range w1 {
		if d := math.Abs(w1[i] - w2[i]); d > 1e-9*math.Max(1, math.Abs(w1[i])) {
			t.Fatalf("weight %d: sharded %v vs sequential %v (diff %v)", i, w2[i], w1[i], d)
		}
	}
}

func TestAccumulatorMergeRejectsMismatchedConfig(t *testing.T) {
	base, _ := funcmech.NewAccumulator(incomeSchema())
	withIcpt, _ := funcmech.NewAccumulator(incomeSchema(), funcmech.WithIntercept())
	withThresh, _ := funcmech.NewAccumulator(incomeSchema(), funcmech.WithBinarizeThreshold(1))
	otherSchema, _ := funcmech.NewAccumulator(funcmech.Schema{
		Features: []funcmech.Attribute{{Name: "x", Min: 0, Max: 1}},
		Target:   funcmech.Attribute{Name: "y", Min: 0, Max: 1},
	})
	for name, o := range map[string]*funcmech.Accumulator{
		"intercept": withIcpt, "threshold": withThresh, "schema": otherSchema,
	} {
		if err := base.Clone().Merge(o); err == nil {
			t.Errorf("%s mismatch: expected merge error", name)
		}
	}
}

func TestAccumulatorRejectsBadRecords(t *testing.T) {
	acc, _ := funcmech.NewAccumulator(incomeSchema())
	if err := acc.Add([]float64{1, 2}, 3); err == nil {
		t.Fatal("expected error for wrong feature count")
	}
	if err := acc.Add([]float64{1, math.NaN(), 3}, 4); err == nil {
		t.Fatal("expected error for NaN feature")
	}
	if err := acc.Add([]float64{1, 2, 3}, math.NaN()); err == nil {
		t.Fatal("expected error for NaN target")
	}
	if acc.Len() != 0 {
		t.Fatalf("rejected records must not count; Len = %d", acc.Len())
	}
	if _, _, err := funcmech.FitTaskFromAccumulator(acc, "linear", 1); err == nil {
		t.Fatal("expected error fitting an empty accumulator")
	}
}

func TestAccumulatorFitRejectsCreationTimeOptions(t *testing.T) {
	acc, _ := funcmech.NewAccumulator(incomeSchema())
	if err := acc.Add([]float64{30, 10, 40}, 20000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := funcmech.FitTaskFromAccumulator(acc, "linear", 1, funcmech.WithIntercept()); err == nil {
		t.Fatal("expected error: WithIntercept at fit time")
	}
	if _, _, err := funcmech.FitTaskFromAccumulator(acc, "logistic", 1, funcmech.WithBinarizeThreshold(1)); err == nil {
		t.Fatal("expected error: WithBinarizeThreshold at fit time")
	}
}

// TestAccumulatorLogisticPoisoning: non-boolean targets without a threshold
// disable logistic refits with a descriptive error, while linear refits keep
// working over every record.
func TestAccumulatorLogisticPoisoning(t *testing.T) {
	acc, _ := funcmech.NewAccumulator(incomeSchema())
	if err := acc.Add([]float64{30, 10, 40}, 1); err != nil { // boolean so far
		t.Fatal(err)
	}
	if err := acc.Add([]float64{40, 12, 45}, 25000); err != nil { // poisons logistic
		t.Fatal(err)
	}
	if acc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", acc.Len())
	}
	if _, _, err := funcmech.FitTaskFromAccumulator(acc, "logistic", 1, funcmech.WithSeed(1)); err == nil {
		t.Fatal("expected logistic refit to fail after a non-boolean target")
	}
	if _, _, err := funcmech.FitTaskFromAccumulator(acc, "linear", 1, funcmech.WithSeed(1)); err != nil {
		t.Fatalf("linear refit must keep working: %v", err)
	}
}

// TestAccumulatorSaveLoadRoundTrip: a restored accumulator refits
// bit-identically and continues ingesting — the snapshot/restore contract —
// with the logistic threshold and intercept configuration surviving.
func TestAccumulatorSaveLoadRoundTrip(t *testing.T) {
	ds := incomeDataset(800, 54)
	acc, err := funcmech.NewAccumulator(incomeSchema(),
		funcmech.WithIntercept(), funcmech.WithBinarizeThreshold(55000))
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, ds)

	var buf bytes.Buffer
	if err := acc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	back, err := funcmech.LoadAccumulator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != acc.Len() {
		t.Fatalf("restored Len = %d, want %d", back.Len(), acc.Len())
	}
	if !back.Intercept() {
		t.Fatal("intercept flag lost in round trip")
	}
	if th, ok := back.BinarizeThreshold(); !ok || th != 55000 {
		t.Fatalf("threshold lost in round trip: %v %v", th, ok)
	}

	m1, _, err := funcmech.FitTaskFromAccumulator(acc, "linear", 0.9, funcmech.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := funcmech.FitTaskFromAccumulator(back, "linear", 0.9, funcmech.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "linear after restore", m1.Weights(), m2.Weights())

	l1, _, err := funcmech.FitTaskFromAccumulator(acc, "logistic", 0.9, funcmech.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := funcmech.FitTaskFromAccumulator(back, "logistic", 0.9, funcmech.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "logistic after restore", l1.Weights(), l2.Weights())

	// Ingestion resumes: both accumulators fold one more record identically.
	extra := incomeDataset(5, 55)
	ingest(t, acc, extra)
	ingest(t, back, extra)
	m3, _, _ := funcmech.FitTaskFromAccumulator(acc, "linear", 0.9, funcmech.WithSeed(9))
	m4, _, _ := funcmech.FitTaskFromAccumulator(back, "linear", 0.9, funcmech.WithSeed(9))
	sameWeights(t, "post-restore streaming", m3.Weights(), m4.Weights())

	// Snapshots written while a fast-math kernel tier existed may carry
	// "fast_math": true. The decoder ignores the field: such an envelope
	// loads, refits bit-identically to the accumulator it came from, and
	// its later batch folds match the original's bit for bit.
	retired := strings.Replace(saved, `"version":4`, `"fast_math":true,"version":4`, 1)
	if !strings.Contains(retired, `"fast_math":true`) {
		t.Fatal("test setup: version field not found in envelope")
	}
	old, err := funcmech.LoadAccumulator(strings.NewReader(retired))
	if err != nil {
		t.Fatalf("envelope with fast_math: %v", err)
	}
	m5, _, err := funcmech.FitTaskFromAccumulator(old, "linear", 0.9, funcmech.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "linear after restoring a fast_math envelope", m1.Weights(), m5.Weights())
	ingest(t, old, extra)
	batch, _ := flatRecords(300, 57)
	for _, a := range []*funcmech.Accumulator{acc, old} {
		if _, err := a.AddFlat(batch); err != nil {
			t.Fatal(err)
		}
	}
	m6, _, _ := funcmech.FitTaskFromAccumulator(acc, "linear", 0.9, funcmech.WithSeed(10))
	m7, _, _ := funcmech.FitTaskFromAccumulator(old, "linear", 0.9, funcmech.WithSeed(10))
	sameWeights(t, "batch folds after restoring a fast_math envelope", m6.Weights(), m7.Weights())
}

// TestSaveWritesSharedFoldColumns: Save writes the logistic column as ⅛ of
// the linear column bit for bit — the one Gram both share, scaled as
// logistic's finalization scales it, which over normal-range records is
// what logistic's per-record ⅛ fold wrote — so snapshots keep their
// meaning whichever way the folds are kept. A loaded snapshot refits all
// four tasks bit-identically at fixed seeds.
func TestSaveWritesSharedFoldColumns(t *testing.T) {
	acc, err := funcmech.NewAccumulator(incomeSchema(),
		funcmech.WithIntercept(), funcmech.WithBinarizeThreshold(55000))
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, incomeDataset(800, 58))
	var buf bytes.Buffer
	if err := acc.Save(&buf); err != nil {
		t.Fatal(err)
	}

	var env struct {
		Tasks  map[string]json.RawMessage `json:"tasks"`
		Coeffs []byte                     `json:"coeffs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	flat, cols, err := fmbin.Decode(env.Coeffs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range env.Tasks {
		names = append(names, name)
	}
	slices.Sort(names)
	lin, logit := slices.Index(names, "linear"), slices.Index(names, "logistic")
	d := acc.NumFeatures() + 1 // the intercept column
	rows := d + d*(d+1)/2
	if lin < 0 || logit < 0 || cols != len(names) || len(flat) != cols*rows {
		t.Fatalf("envelope folds %v, frame %d×%d values", names, cols, len(flat)/max(cols, 1))
	}
	for r := d; r < rows; r++ {
		want := flat[r*cols+lin] * 0.125
		if got := flat[r*cols+logit]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("logistic M entry %d = %v, want ⅛ of linear's, %v", r-d, got, want)
		}
	}

	back, err := funcmech.LoadAccumulator(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		task string
		opts []funcmech.Option
	}{
		{"linear", nil},
		{"ridge", []funcmech.Option{funcmech.WithRidge(0.5)}},
		{"logistic", nil},
		{"median", nil},
	} {
		opts := append(tc.opts, funcmech.WithSeed(21))
		m1, _, err := funcmech.FitTaskFromAccumulator(acc, tc.task, 0.9, opts...)
		if err != nil {
			t.Fatal(err)
		}
		m2, _, err := funcmech.FitTaskFromAccumulator(back, tc.task, 0.9, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sameWeights(t, tc.task+" after restore", m1.Weights(), m2.Weights())
	}
}

// TestVersionMismatchIsTyped: both envelope kinds reject unknown versions
// with the errors.Is-able ErrVersionMismatch — for accumulators that
// includes the retired versions 1–3, which no longer decode.
func TestVersionMismatchIsTyped(t *testing.T) {
	model := `{"kind":"linear","version":99,"schema":{"Features":[{"Name":"x","Min":0,"Max":1}],"Target":{"Name":"y","Min":0,"Max":1}},"weights":[1]}`
	if _, err := funcmech.LoadModel(strings.NewReader(model)); !errors.Is(err, funcmech.ErrVersionMismatch) {
		t.Fatalf("model load: err = %v, want ErrVersionMismatch", err)
	}

	acc, _ := funcmech.NewAccumulator(incomeSchema())
	if err := acc.Add([]float64{30, 10, 40}, 20000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := acc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{1, 2, 3, 99} {
		field := fmt.Sprintf(`"version":%d`, version)
		tampered := strings.Replace(buf.String(), `"version":4`, field, 1)
		if !strings.Contains(tampered, field) {
			t.Fatal("test setup: version field not found in envelope")
		}
		if _, err := funcmech.LoadAccumulator(strings.NewReader(tampered)); !errors.Is(err, funcmech.ErrVersionMismatch) {
			t.Errorf("accumulator load of version %d: err = %v, want ErrVersionMismatch", version, err)
		}
	}
}

// TestLoadAccumulatorChecksRecordCounts: an envelope's record count must be
// non-negative and agree with its folds. Every fold not poisoned holds
// exactly that many records; a poisoned fold holds at most that many.
func TestLoadAccumulatorChecksRecordCounts(t *testing.T) {
	raw := string(readGoldenEnvelope(t))
	cases := map[string][2]string{
		"negative records":       {`"records":40`, `"records":-5`},
		"records beyond folds":   {`"records":40`, `"records":1000000`},
		"intact fold short":      {`"logistic":{"n":40`, `"logistic":{"n":39`},
		"poisoned fold too long": {`"median":{"n":0`, `"median":{"n":41`},
	}
	for name, edit := range cases {
		tampered := strings.Replace(raw, edit[0], edit[1], 1)
		if tampered == raw {
			t.Fatalf("%s: test setup: %s not found in the golden envelope", name, edit[0])
		}
		acc, err := funcmech.LoadAccumulator(strings.NewReader(tampered))
		switch {
		case err == nil:
			t.Errorf("%s: loaded with Len() = %d, want an error", name, acc.Len())
		case errors.Is(err, funcmech.ErrVersionMismatch):
			t.Errorf("%s: err = %v, want a record-count error, not ErrVersionMismatch", name, err)
		}
	}

	// A boolean fold poisoned mid-batch legitimately stops short of the
	// record count; its envelope still round-trips.
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.AddFlat([]float64{30, 10, 40, 1, 50, 14, 20, 17, 60, 15, 10, 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := acc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := funcmech.LoadAccumulator(&buf)
	if err != nil {
		t.Fatalf("envelope with a fold poisoned mid-batch: %v", err)
	}
	_, _, errAcc := funcmech.FitTaskFromAccumulator(acc, "logistic", 0.5)
	_, _, errBack := funcmech.FitTaskFromAccumulator(back, "logistic", 0.5)
	if back.Len() != 3 || errAcc == nil || errBack == nil || errAcc.Error() != errBack.Error() {
		t.Fatalf("restored Len() = %d, logistic errors %v / %v; want 3 and the same poisoning", back.Len(), errAcc, errBack)
	}
}

func TestSessionChargesAccumulatorRefits(t *testing.T) {
	acc, _ := funcmech.NewAccumulator(incomeSchema())
	ingest(t, acc, incomeDataset(300, 56))
	s := funcmech.NewSession(1.0)
	if _, _, err := s.FitTaskFromAccumulator(acc, "linear", 0.7, funcmech.WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if s.Spent() != 0.7 {
		t.Fatalf("Spent = %v, want 0.7", s.Spent())
	}
	if _, _, err := s.FitTaskFromAccumulator(acc, "linear", 0.7, funcmech.WithSeed(2)); !errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}

// TestNewAccumulatorRefusesNonFiniteThreshold: a NaN or infinite binarize
// threshold would label every record alike, so the record rule refuses it
// when the accumulator is made, before any record is read.
func TestNewAccumulatorRefusesNonFiniteThreshold(t *testing.T) {
	for _, th := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := funcmech.NewAccumulator(incomeSchema(), funcmech.WithBinarizeThreshold(th)); err == nil {
			t.Errorf("NewAccumulator accepted binarize threshold %v", th)
		}
	}
	if _, err := funcmech.NewAccumulator(incomeSchema(), funcmech.WithBinarizeThreshold(60000)); err != nil {
		t.Fatalf("NewAccumulator refused a finite threshold: %v", err)
	}
}
