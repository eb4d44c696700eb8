package funcmech_test

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"funcmech"
)

// withNaN returns incomeDataset(n, seed) with record at's feature col (or,
// for col = 3, its target) replaced by NaN, built through Append.
func withNaN(n int, seed int64, at, col int) *funcmech.Dataset {
	src := incomeDataset(n, seed)
	ds := funcmech.NewDataset(incomeSchema())
	for i := 0; i < n; i++ {
		x, y := src.Record(i)
		if i == at {
			if col < len(x) {
				x[col] = math.NaN()
			} else {
				y = math.NaN()
			}
		}
		ds.Append(x, y)
	}
	return ds
}

// TestFitTaskRefusesNaN: a NaN feature or target never reaches a release.
// The record rule refuses it by record as it makes the training copy, under
// either target rule; a binarize threshold refuses a NaN target before
// (NaN > t) could quietly make it 0.
func TestFitTaskRefusesNaN(t *testing.T) {
	fits := []struct {
		task string
		opts []funcmech.Option
	}{
		{"linear", nil},
		{"ridge", []funcmech.Option{funcmech.WithRidge(0.5)}},
		{"median", []funcmech.Option{funcmech.WithIntercept()}},
		{"logistic", []funcmech.Option{funcmech.WithBinarizeThreshold(60000)}},
	}
	for _, fit := range fits {
		for col, what := range []string{"age", "education", "hours", "income"} {
			ds := withNaN(200, 3, 41, col)
			opts := append([]funcmech.Option{funcmech.WithSeed(1)}, fit.opts...)
			m, rep, err := funcmech.FitTask(ds, fit.task, 1, opts...)
			if err == nil || m != nil || rep != nil {
				t.Errorf("%s with a NaN %s: model %v, err %v; want a refusal", fit.task, what, m, err)
				continue
			}
			if !strings.Contains(err.Error(), "record 41") {
				t.Errorf("%s with a NaN %s: %v does not name record 41", fit.task, what, err)
			}
		}
	}
}

// TestExactBaselinesRefuseNaN: the non-private baselines make their
// training copy under the same record rule as FitTask, so a NaN feature is
// refused by record instead of yielding zero weights or an unrelated solver
// error.
func TestExactBaselinesRefuseNaN(t *testing.T) {
	ds := withNaN(200, 3, 41, 1)
	if m, err := funcmech.LinearRegressionExact(ds); err == nil || !strings.Contains(err.Error(), "record 41") {
		t.Errorf("LinearRegressionExact with a NaN feature: model %v, err %v; want a refusal naming record 41", m, err)
	}
	if m, err := funcmech.LogisticRegressionExact(ds, funcmech.WithBinarizeThreshold(60000)); err == nil || !strings.Contains(err.Error(), "record 41") {
		t.Errorf("LogisticRegressionExact with a NaN feature: model %v, err %v; want a refusal naming record 41", m, err)
	}
}

// TestReadDatasetCSVRefusesNaN: strconv.ParseFloat accepts "NaN", the CSV
// reader does not, and says where it was.
func TestReadDatasetCSVRefusesNaN(t *testing.T) {
	for _, tc := range []struct{ body, column string }{
		{"30,12,40,50000\n31,NaN,40,1\n", "education"},
		{"30,12,40,50000\n31,12,40,nan\n", "income"},
	} {
		_, err := funcmech.ReadDatasetCSV(strings.NewReader("age,education,hours,income\n"+tc.body), incomeSchema())
		if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), tc.column) {
			t.Errorf("NaN %s cell: err = %v, want line 3 and the column", tc.column, err)
		}
	}
}

// TestModelsAgreeAcrossConstructors: a model behaves the same whether it
// came from FitTask, from FitTaskFromAccumulator over the same records, or
// back from Save and LoadModel — all three carry the one record rule.
func TestModelsAgreeAcrossConstructors(t *testing.T) {
	ds := incomeDataset(800, 21)
	fitted, _, err := funcmech.FitTask(ds, "logistic", 1, funcmech.WithIntercept(),
		funcmech.WithBinarizeThreshold(60000), funcmech.WithSeed(4), funcmech.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := funcmech.NewAccumulator(incomeSchema(), funcmech.WithIntercept(), funcmech.WithBinarizeThreshold(60000))
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, ds)
	refit, _, err := funcmech.FitTaskFromAccumulator(acc, "logistic", 1, funcmech.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fitted.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := funcmech.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(m *funcmech.TaskModel) []float64 {
		rate, err := m.MisclassificationRate(ds)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := ds.Record(3)
		return append(m.Weights(), m.Predict(x), m.MSE(ds), m.MAE(ds), m.NormalizedMSE(ds), rate)
	}
	want := eval(fitted)
	sameWeights(t, "accumulator model", want, eval(refit))
	sameWeights(t, "loaded model", want, eval(loaded))
}

// TestEvaluationAllocatesPerCall: the evaluation methods normalize every
// record into one reused row, so their allocations do not grow with the
// record count.
func TestEvaluationAllocatesPerCall(t *testing.T) {
	small, large := incomeDataset(100, 5), incomeDataset(1000, 5)
	m, _, err := funcmech.FitTask(large, "linear", 1, funcmech.WithIntercept(), funcmech.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, eval := range map[string]func(*funcmech.Dataset){
		"MSE":           func(ds *funcmech.Dataset) { m.MSE(ds) },
		"MAE":           func(ds *funcmech.Dataset) { m.MAE(ds) },
		"NormalizedMSE": func(ds *funcmech.Dataset) { m.NormalizedMSE(ds) },
	} {
		a := testing.AllocsPerRun(5, func() { eval(small) })
		b := testing.AllocsPerRun(5, func() { eval(large) })
		if a != b || b > 2 {
			t.Errorf("%s allocates %v times over 100 records and %v over 1,000; want the same small constant", name, a, b)
		}
	}
}

// TestEvaluationOverNoRecordsIsNaN: a mean over no records has no value, so
// MSE, MAE and NormalizedMSE over an empty dataset are NaN, not a perfect 0.
func TestEvaluationOverNoRecordsIsNaN(t *testing.T) {
	m, _, err := funcmech.FitTask(incomeDataset(200, 5), "linear", 1, funcmech.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	empty := funcmech.NewDataset(incomeSchema())
	for name, got := range map[string]float64{
		"MSE":           m.MSE(empty),
		"MAE":           m.MAE(empty),
		"NormalizedMSE": m.NormalizedMSE(empty),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s over no records = %v, want NaN", name, got)
		}
	}
}

// TestLogisticFitMakesOneTrainingCopy: a logistic fit with an intercept and
// a binarize threshold makes its n×(d+1) training copy in one pass — no
// binarized copy, no augmented copy — so it allocates less than two copies'
// worth (a binarize, augment, normalize chain makes three). The bound
// leaves room for the race detector, whose instrumentation allocates a
// temporary row per appended record.
func TestLogisticFitMakesOneTrainingCopy(t *testing.T) {
	const n, d = 50000, 3
	ds := incomeDataset(n, 6)
	fit := func() {
		if _, _, err := funcmech.FitTask(ds, "logistic", 1, funcmech.WithIntercept(),
			funcmech.WithBinarizeThreshold(60000), funcmech.WithSeed(1), funcmech.WithParallelism(1)); err != nil {
			t.Fatal(err)
		}
	}
	fit() // warm the kernel's pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fit()
	runtime.ReadMemStats(&after)
	copyBytes := uint64(n * (d + 2) * 8) // features, intercept and label
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*copyBytes {
		t.Fatalf("the fit allocated %d bytes; one training copy is %d", got, copyBytes)
	}
}

// fuzzValue maps a byte onto a raw value of an attribute with domain
// [lo, hi]: mostly in-domain, sometimes out of bounds, infinite, exactly 0
// or 1, and rarely NaN.
func fuzzValue(b byte, lo, hi float64) float64 {
	switch {
	case b == 0:
		return math.NaN()
	case b == 1:
		return math.Inf(1)
	case b == 2:
		return math.Inf(-1)
	}
	switch b % 8 {
	case 3:
		return lo - float64(b)
	case 4:
		return hi + float64(b)
	case 5:
		return 0
	case 6:
		return 1
	}
	return lo + (hi-lo)*float64(b)/255
}

// FuzzRecordContract: the one-shot fit, the streaming fold and the exact
// baselines apply the same record rule. For every task, FitTask at
// parallelism 1 and FitTaskFromAccumulator after AddFlat of the same raw
// rows either both refuse or release bit-identical weights at a fixed seed
// — whatever the rows hold (NaN, ±Inf, out-of-bounds values, non-boolean
// targets) and with the intercept and the binarize threshold on or off —
// and the task's exact baseline, given the same rows and options, refuses
// whatever FitTask refuses.
func FuzzRecordContract(f *testing.F) {
	f.Add([]byte{2, 10, 20, 30, 40, 50, 60, 70, 80, 90}, false, false)
	f.Add([]byte{3, 9, 17, 25, 6, 33, 41, 49, 5, 57, 65, 73, 6, 81, 89, 97, 5}, true, false)
	f.Add([]byte{1, 1, 3, 2, 4, 7, 255, 12, 200}, true, true)
	f.Add([]byte{2, 10, 20, 0, 40, 50, 60, 70, 80, 90}, false, true)
	f.Add([]byte{4, 8, 16, 32, 64, 128, 9, 10, 11, 12, 13}, false, true)
	exact := map[string]func(*funcmech.Dataset, ...funcmech.Option) (*funcmech.TaskModel, error){
		"linear":   funcmech.LinearRegressionExact,
		"ridge":    funcmech.LinearRegressionExact, // with the fit's WithRidge
		"logistic": funcmech.LogisticRegressionExact,
	}
	f.Fuzz(func(t *testing.T, data []byte, intercept, thresholded bool) {
		if len(data) < 2 || len(data) > 401 {
			return
		}
		d := 1 + int(data[0]%4)
		data = data[1:]
		schema := funcmech.Schema{Target: funcmech.Attribute{Name: "y", Min: -1, Max: 2}}
		for j := 0; j < d; j++ {
			schema.Features = append(schema.Features, funcmech.Attribute{Name: string(rune('a' + j)), Min: -3, Max: 5})
		}
		n := len(data) / (d + 1)
		flat := make([]float64, n*(d+1))
		ds := funcmech.NewDataset(schema)
		for i := 0; i < n; i++ {
			row := flat[i*(d+1) : (i+1)*(d+1)]
			for j := range row {
				a := schema.Target
				if j < d {
					a = schema.Features[j]
				}
				row[j] = fuzzValue(data[i*(d+1)+j], a.Min, a.Max)
			}
			ds.Append(row[:d], row[d])
		}
		var shape []funcmech.Option
		if intercept {
			shape = append(shape, funcmech.WithIntercept())
		}
		accShape := shape
		if thresholded {
			accShape = append(accShape, funcmech.WithBinarizeThreshold(0.5))
		}
		acc, err := funcmech.NewAccumulator(schema, accShape...)
		if err != nil {
			t.Fatal(err)
		}
		_, addErr := acc.AddFlat(flat)
		for _, task := range funcmech.Tasks() {
			release := []funcmech.Option{funcmech.WithSeed(7)}
			if task.NeedsRidgeWeight {
				release = append(release, funcmech.WithRidge(0.5))
			}
			fitOpts := append(append([]funcmech.Option{funcmech.WithParallelism(1)}, release...), shape...)
			if thresholded && task.Boolean {
				fitOpts = append(fitOpts, funcmech.WithBinarizeThreshold(0.5))
			}
			one, _, oneErr := funcmech.FitTask(ds, task.Name, 1, fitOpts...)
			if fit := exact[task.Name]; fit != nil {
				if m, err := fit(ds, fitOpts...); oneErr != nil && err == nil {
					t.Fatalf("%s over %d rows: FitTask refused (%v), its exact baseline fitted %v", task.Name, n, oneErr, m.Weights())
				}
			}
			refit, _, refitErr := funcmech.FitTaskFromAccumulator(acc, task.Name, 1, release...)
			switch {
			case (oneErr == nil) != (refitErr == nil):
				t.Fatalf("%s over %d rows (AddFlat: %v): FitTask err %v, FitTaskFromAccumulator err %v", task.Name, n, addErr, oneErr, refitErr)
			case oneErr != nil:
				continue
			}
			w1, w2 := one.Weights(), refit.Weights()
			for i := range w1 {
				if math.Float64bits(w1[i]) != math.Float64bits(w2[i]) {
					t.Fatalf("%s over %d rows: weight %d is %v one-shot, %v from the fold", task.Name, n, i, w1[i], w2[i])
				}
			}
		}
	})
}
