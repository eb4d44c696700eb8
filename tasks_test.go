package funcmech_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"funcmech"
	"funcmech/internal/fmbin"
)

func TestTaskRegistrySurface(t *testing.T) {
	names := funcmech.TaskNames()
	if len(names) < 4 {
		t.Fatalf("TaskNames() = %v, want at least the four built-ins", names)
	}
	for _, want := range []string{"linear", "ridge", "logistic", "median"} {
		info, ok := funcmech.LookupTask(want)
		if !ok {
			t.Fatalf("LookupTask(%q) missed", want)
		}
		if info.Name != want || info.Degree != 2 || info.Sensitivity == "" || info.TargetRule == "" {
			t.Errorf("task %q info incomplete: %+v", want, info)
		}
	}
	if infos := funcmech.Tasks(); len(infos) != len(names) {
		t.Fatalf("Tasks() returned %d entries for %d names", len(infos), len(names))
	}
	if _, ok := funcmech.LookupTask("quantile"); ok {
		t.Fatal("LookupTask invented a task")
	}
}

// TestFitTaskUnknownName: the sentinel is errors.Is-able and the message
// enumerates every registered task.
func TestFitTaskUnknownName(t *testing.T) {
	ds := incomeDataset(30, 1)
	_, _, err := funcmech.FitTask(ds, "quantile", 0.5)
	if !errors.Is(err, funcmech.ErrUnknownTask) {
		t.Fatalf("err = %v, want ErrUnknownTask", err)
	}
	for _, name := range funcmech.TaskNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered task %q", err, name)
		}
	}
	acc, _ := funcmech.NewAccumulator(incomeSchema())
	ingest(t, acc, incomeDataset(10, 2))
	if _, _, err := funcmech.FitTaskFromAccumulator(acc, "quantile", 0.5); !errors.Is(err, funcmech.ErrUnknownTask) {
		t.Fatalf("accumulator err = %v, want ErrUnknownTask", err)
	}
}

// TestFitTaskMatchesNamedEntryPoints: the named wrappers and the generic
// surface release bit-identical weights at a fixed seed — they are the same
// path.
func TestFitTaskMatchesNamedEntryPoints(t *testing.T) {
	ds := incomeDataset(200, 31)
	lin, _, err := funcmech.LinearRegression(ds, 0.8, funcmech.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	gLin, _, err := funcmech.FitTask(ds, "linear", 0.8, funcmech.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "linear vs FitTask", lin.Weights(), gLin.Weights())

	ridge, _, err := funcmech.LinearRegression(ds, 0.8, funcmech.WithSeed(6), funcmech.WithRidge(0.05))
	if err != nil {
		t.Fatal(err)
	}
	gRidge, _, err := funcmech.FitTask(ds, "ridge", 0.8, funcmech.WithSeed(6), funcmech.WithRidge(0.05))
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "ridge vs FitTask", ridge.Weights(), gRidge.Weights())

	logit, _, err := funcmech.LogisticRegression(ds, 0.8, funcmech.WithSeed(7), funcmech.WithBinarizeThreshold(35000))
	if err != nil {
		t.Fatal(err)
	}
	gLog, _, err := funcmech.FitTask(ds, "logistic", 0.8, funcmech.WithSeed(7), funcmech.WithBinarizeThreshold(35000))
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "logistic vs FitTask", logit.Weights(), gLog.Weights())
}

// TestTaskModelSaveLoadRoundTrip: every registered task's model survives
// Save and LoadModel with the same task, weights and raw-unit prediction.
// Boolean-target models keep their threshold, so their misclassification
// rate survives too; normalized-target models have none to report, even on
// 0/1 targets.
func TestTaskModelSaveLoadRoundTrip(t *testing.T) {
	ds := incomeDataset(400, 61)
	binary := funcmech.NewDataset(incomeSchema())
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Record(i)
		if y > 60000 {
			y = 1
		} else {
			y = 0
		}
		binary.Append(x, y)
	}
	row := []float64{41, 13, 45}
	for _, name := range funcmech.TaskNames() {
		t.Run(name, func(t *testing.T) {
			info, _ := funcmech.LookupTask(name)
			opts := []funcmech.Option{funcmech.WithSeed(7), funcmech.WithIntercept()}
			if info.NeedsRidgeWeight {
				opts = append(opts, funcmech.WithRidge(0.05))
			}
			if info.Boolean {
				opts = append(opts, funcmech.WithBinarizeThreshold(60000))
			}
			m, _, err := funcmech.FitTask(ds, name, 0.8, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := funcmech.LoadModel(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if back.Task() != m.Task() {
				t.Fatalf("Task() = %+v after round trip, want %+v", back.Task(), m.Task())
			}
			sameWeights(t, name+" round trip", m.Weights(), back.Weights())
			if a, b := m.Predict(row), back.Predict(row); a != b {
				t.Fatalf("prediction drift after round trip: %v vs %v", a, b)
			}
			if !info.Boolean {
				if r, err := back.MisclassificationRate(binary); err == nil {
					t.Fatalf("a numeric-target model reported a misclassification rate %v", r)
				}
				return
			}
			r1, err1 := m.MisclassificationRate(ds)
			r2, err2 := back.MisclassificationRate(ds)
			if err1 != nil || err2 != nil || r1 != r2 {
				t.Fatalf("misclassification %v (%v) vs %v (%v) after round trip", r1, err1, r2, err2)
			}
		})
	}
}

// TestMedianTaskEndToEnd: the median task — registered entirely through the
// core extension surface — fits one-shot, refits from an accumulator
// bit-identically at a fixed seed, and predicts in raw target units.
func TestMedianTaskEndToEnd(t *testing.T) {
	ds := incomeDataset(300, 17)
	m, rep, err := funcmech.FitTask(ds, "median", 0.8, funcmech.WithSeed(101), funcmech.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Task().Name != "median" || rep.Epsilon != 0.8 {
		t.Fatalf("task %q, ε %v", m.Task().Name, rep.Epsilon)
	}
	if got := len(m.Weights()); got != 3 {
		t.Fatalf("weights = %d, want 3", got)
	}
	if mse, mae := m.MSE(ds), m.MAE(ds); mse < 0 || mae < 0 {
		t.Fatalf("negative errors: mse=%v mae=%v", mse, mae)
	}

	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, ds)
	m2, _, err := funcmech.FitTaskFromAccumulator(acc, "median", 0.8, funcmech.WithSeed(101))
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "median one-shot vs accumulator", m.Weights(), m2.Weights())

	// Ridge weights don't apply to median regression.
	if _, _, err := funcmech.FitTask(ds, "median", 0.8, funcmech.WithRidge(0.1)); err == nil {
		t.Fatal("median accepted a ridge weight")
	}
}

// TestMedianFoldSurvivesLogisticPoisoning: the per-task folds are
// independent — continuous targets poison the logistic fold of a
// threshold-less accumulator but leave median (and linear) refits intact.
func TestMedianFoldSurvivesLogisticPoisoning(t *testing.T) {
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, incomeDataset(50, 3)) // continuous income targets
	if _, _, err := funcmech.FitTaskFromAccumulator(acc, "logistic", 0.5, funcmech.WithSeed(1)); err == nil {
		t.Fatal("poisoned logistic fold refitted")
	}
	if _, _, err := funcmech.FitTaskFromAccumulator(acc, "median", 0.5, funcmech.WithSeed(1)); err != nil {
		t.Fatalf("median refit failed alongside poisoned logistic fold: %v", err)
	}
}

// TestMedianFoldRoundTripsThroughEnvelope: a saved accumulator restores the
// median fold bit-exactly (version-4 envelopes carry every fold).
func TestMedianFoldRoundTripsThroughEnvelope(t *testing.T) {
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, incomeDataset(60, 21))
	var buf bytes.Buffer
	if err := acc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := funcmech.LoadAccumulator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := funcmech.FitTaskFromAccumulator(acc, "median", 0.7, funcmech.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := funcmech.FitTaskFromAccumulator(back, "median", 0.7, funcmech.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "median envelope round-trip", m1.Weights(), m2.Weights())
}

// TestEnvelopePredatingTaskPoisonsFold: an envelope written before a task
// was registered restores its other folds intact, but the fold it predates
// refuses to refit — its coefficient sums are missing records. The envelope
// is the golden one with the median block and its frame column removed.
func TestEnvelopePredatingTaskPoisonsFold(t *testing.T) {
	var env map[string]json.RawMessage
	if err := json.Unmarshal(readGoldenEnvelope(t), &env); err != nil {
		t.Fatal(err)
	}
	var tasks map[string]json.RawMessage
	if err := json.Unmarshal(env["tasks"], &tasks); err != nil {
		t.Fatal(err)
	}
	var frame []byte
	if err := json.Unmarshal(env["coeffs"], &frame); err != nil {
		t.Fatal(err)
	}
	flat, cols, err := fmbin.Decode(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Columns follow the sorted fold names: linear, logistic, median.
	if _, ok := tasks["median"]; !ok || cols != 3 || len(tasks) != 3 {
		t.Fatalf("test setup: golden envelope has folds %v in %d columns", tasks, cols)
	}
	kept := make([]float64, 0, len(flat)/cols*(cols-1))
	for i, v := range flat {
		if i%cols != cols-1 {
			kept = append(kept, v)
		}
	}
	if frame, err = fmbin.Encode(nil, kept, cols-1, true); err != nil {
		t.Fatal(err)
	}
	delete(tasks, "median")
	env["tasks"], _ = json.Marshal(tasks)
	env["coeffs"], _ = json.Marshal(frame)
	raw, _ := json.Marshal(env)

	acc, err := funcmech.LoadAccumulator(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := readGolden(t)
	lin, logit := goldenRefits(t, acc)
	sameWeights(t, "linear refit beside a predated fold", want.EnvelopeLinear, lin)
	sameWeights(t, "logistic refit beside a predated fold", want.EnvelopeLogistic, logit)
	_, _, err = funcmech.FitTaskFromAccumulator(acc, "median", 0.8, funcmech.WithSeed(9))
	if err == nil {
		t.Fatal("median refit from a snapshot that predates the median task")
	}
	if !strings.Contains(err.Error(), "predates") {
		t.Fatalf("err = %v, want a snapshot-predates-task error", err)
	}
}

// TestV4UnknownTaskBlockIsTyped: a version-4 envelope carrying a fold for a
// task this build does not register fails with the errors.Is-able sentinel
// rather than silently dropping data (or panicking).
func TestV4UnknownTaskBlockIsTyped(t *testing.T) {
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, incomeDataset(10, 5))
	var buf bytes.Buffer
	if err := acc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	var tasks map[string]json.RawMessage
	if err := json.Unmarshal(env["tasks"], &tasks); err != nil {
		t.Fatal(err)
	}
	tasks["quantile"] = tasks["linear"]
	env["tasks"], _ = json.Marshal(tasks)
	tampered, _ := json.Marshal(env)
	if _, err := funcmech.LoadAccumulator(bytes.NewReader(tampered)); !errors.Is(err, funcmech.ErrUnknownTask) {
		t.Fatalf("err = %v, want ErrUnknownTask", err)
	}
}
