package funcmech_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"funcmech"
)

func incomeSchema() funcmech.Schema {
	return funcmech.Schema{
		Features: []funcmech.Attribute{
			{Name: "age", Min: 16, Max: 95},
			{Name: "education", Min: 0, Max: 17},
			{Name: "hours", Min: 0, Max: 99},
		},
		Target: funcmech.Attribute{Name: "income", Min: 0, Max: 200000},
	}
}

// incomeDataset builds a raw-unit dataset with a planted signal.
func incomeDataset(n int, seed int64) *funcmech.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := funcmech.NewDataset(incomeSchema())
	for i := 0; i < n; i++ {
		age := 16 + rng.Float64()*79
		edu := rng.Float64() * 17
		hours := rng.Float64() * 99
		income := 4000*edu + 500*(age-16) + 600*hours + 8000*rng.NormFloat64()
		if income < 0 {
			income = 0
		}
		if income > 200000 {
			income = 200000
		}
		ds.Append([]float64{age, edu, hours}, income)
	}
	return ds
}

func TestSchemaValidate(t *testing.T) {
	if err := incomeSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := funcmech.Schema{Target: funcmech.Attribute{Name: "y", Min: 0, Max: 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for schema without features")
	}
}

func TestDatasetAccessors(t *testing.T) {
	ds := incomeDataset(10, 1)
	if ds.Len() != 10 || ds.NumFeatures() != 3 {
		t.Fatalf("Len=%d NumFeatures=%d", ds.Len(), ds.NumFeatures())
	}
	x, y := ds.Record(0)
	if len(x) != 3 || y < 0 {
		t.Fatalf("Record = %v, %v", x, y)
	}
	// Record must return a copy.
	x[0] = -999
	x2, _ := ds.Record(0)
	if x2[0] == -999 {
		t.Fatal("Record aliases internal storage")
	}
	s := ds.Schema()
	if s.Features[1].Name != "education" {
		t.Fatalf("Schema round-trip wrong: %+v", s)
	}
}

func TestAppendCopiesFeatures(t *testing.T) {
	ds := funcmech.NewDataset(incomeSchema())
	row := []float64{30, 12, 40}
	ds.Append(row, 50000)
	row[0] = 0
	x, _ := ds.Record(0)
	if x[0] != 30 {
		t.Fatal("Append did not copy the feature slice")
	}
}

func TestLinearRegressionEndToEnd(t *testing.T) {
	train := incomeDataset(20000, 1)
	test := incomeDataset(3000, 2)

	exact, err := funcmech.LinearRegressionExact(train)
	if err != nil {
		t.Fatal(err)
	}
	private, report, err := funcmech.LinearRegression(train, 3.2, funcmech.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}

	if report.Delta != 2*16 { // 2(d+1)² with d=3
		t.Errorf("Delta = %v, want 32", report.Delta)
	}
	if report.Epsilon != 3.2 {
		t.Errorf("Epsilon = %v", report.Epsilon)
	}

	exactMSE := exact.MSE(test)
	privateMSE := private.MSE(test)
	if privateMSE > 3*exactMSE {
		t.Fatalf("private MSE %v vs exact %v: too much utility lost at ε=3.2", privateMSE, exactMSE)
	}
	// Predictions come back in raw units.
	p := private.Predict([]float64{40, 16, 45})
	if p < 0 || p > 200000 {
		t.Fatalf("prediction %v outside the raw income domain", p)
	}
}

func TestLinearRegressionDeterministicWithSeed(t *testing.T) {
	ds := incomeDataset(500, 3)
	a, _, err := funcmech.LinearRegression(ds, 0.8, funcmech.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := funcmech.LinearRegression(ds, 0.8, funcmech.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same seed produced different models")
		}
	}
	c, _, err := funcmech.LinearRegression(ds, 0.8, funcmech.WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	if same := func() bool {
		wc := c.Weights()
		for i := range wa {
			if wa[i] != wc[i] {
				return false
			}
		}
		return true
	}(); same {
		t.Fatal("different seeds produced identical models")
	}
}

func TestLinearRegressionRejectsThresholdOption(t *testing.T) {
	ds := incomeDataset(100, 4)
	if _, _, err := funcmech.LinearRegression(ds, 1, funcmech.WithBinarizeThreshold(5)); err == nil {
		t.Fatal("expected error for WithBinarizeThreshold on linear regression")
	}
}

func TestLogisticRegressionEndToEnd(t *testing.T) {
	train := incomeDataset(20000, 5)
	test := incomeDataset(3000, 6)
	const threshold = 60000

	private, report, err := funcmech.LogisticRegression(train, 3.2,
		funcmech.WithSeed(9), funcmech.WithBinarizeThreshold(threshold))
	if err != nil {
		t.Fatal(err)
	}
	if want := 9.0/4 + 9; report.Delta != want { // d²/4+3d with d=3
		t.Errorf("Delta = %v, want %v", report.Delta, want)
	}

	rate, err := private.MisclassificationRate(test)
	if err != nil {
		t.Fatal(err)
	}
	if rate > 0.40 {
		t.Fatalf("misclassification %v at ε=3.2, want < 0.40", rate)
	}

	exact, err := funcmech.LogisticRegressionExact(train, funcmech.WithBinarizeThreshold(threshold))
	if err != nil {
		t.Fatal(err)
	}
	exactRate, err := exact.MisclassificationRate(test)
	if err != nil {
		t.Fatal(err)
	}
	if rate+1e-9 < exactRate-0.05 {
		t.Fatalf("private rate %v implausibly beats exact %v", rate, exactRate)
	}
	if p := private.Predict([]float64{40, 16, 60}); p < 0 || p > 1 {
		t.Fatalf("probability %v outside [0,1]", p)
	}
}

func TestLogisticRegressionRequiresBooleanTarget(t *testing.T) {
	ds := incomeDataset(100, 7)
	if _, _, err := funcmech.LogisticRegression(ds, 1, funcmech.WithSeed(1)); err == nil {
		t.Fatal("expected error for continuous target without a threshold")
	}
}

func TestMisclassificationRateRequiresCompatibleTargets(t *testing.T) {
	train := incomeDataset(2000, 8)
	m, _, err := funcmech.LogisticRegression(train, 2,
		funcmech.WithSeed(3), funcmech.WithBinarizeThreshold(60000))
	if err != nil {
		t.Fatal(err)
	}
	// Same threshold applies automatically to the evaluation set.
	if _, err := m.MisclassificationRate(incomeDataset(500, 9)); err != nil {
		t.Fatal(err)
	}
}

func TestPostProcessOptions(t *testing.T) {
	ds := incomeDataset(300, 10)
	for _, p := range []funcmech.PostProcess{
		funcmech.RegularizeAndTrim, funcmech.Resample,
	} {
		if _, _, err := funcmech.LinearRegression(ds, 0.5, funcmech.WithSeed(4), funcmech.WithPostProcess(p)); err != nil {
			t.Errorf("post-process %v failed: %v", p, err)
		}
	}
	// Resample must double the reported budget.
	_, rep, err := funcmech.LinearRegression(ds, 0.5, funcmech.WithSeed(4), funcmech.WithPostProcess(funcmech.Resample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epsilon != 1.0 {
		t.Fatalf("Resample Epsilon = %v, want 1.0", rep.Epsilon)
	}
}

func TestCSVRoundTripPublicAPI(t *testing.T) {
	ds := incomeDataset(50, 11)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "age,education,hours,income") {
		t.Fatalf("CSV header wrong: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	back, err := funcmech.ReadDatasetCSV(&buf, ds.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() {
		t.Fatalf("round trip lost records: %d vs %d", back.Len(), ds.Len())
	}
	x0, y0 := ds.Record(0)
	x1, y1 := back.Record(0)
	if y0 != y1 || x0[2] != x1[2] {
		t.Fatal("round trip altered values")
	}
}

func TestNormalizedMSEMatchesPaperUnits(t *testing.T) {
	ds := incomeDataset(2000, 12)
	m, _, err := funcmech.LinearRegression(ds, 3.2, funcmech.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	norm := m.NormalizedMSE(ds)
	raw := m.MSE(ds)
	if norm <= 0 || norm >= raw {
		t.Fatalf("normalized MSE %v should be positive and far below raw-unit MSE %v", norm, raw)
	}
	// Raw = normalized × (width/2)²  when the transform is affine.
	width := 200000.0
	if got := norm * (width / 2) * (width / 2); math.Abs(got-raw)/raw > 1e-9 {
		t.Fatalf("unit conversion inconsistent: %v vs %v", got, raw)
	}
}

func TestWithRandOverridesSeed(t *testing.T) {
	ds := incomeDataset(300, 13)
	rng := rand.New(rand.NewSource(99))
	a, _, err := funcmech.LinearRegression(ds, 1, funcmech.WithRand(rng), funcmech.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := funcmech.LinearRegression(ds, 1, funcmech.WithRand(rand.New(rand.NewSource(99))), funcmech.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("WithRand did not override WithSeed")
		}
	}
}
