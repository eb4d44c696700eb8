package funcmech_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"funcmech"
)

// The golden fixtures under testdata/golden pin the exact bits of fixed-seed
// releases and of the serialized accumulator and model envelopes across
// refactors: any change to the fold order, the noise-draw order, or the
// envelope decoding that perturbs a single ULP fails these tests. The
// weights were generated before the task-registry refactor;
// accumulator_v4.json holds coefficients folded by that pre-registry code,
// rewritten once into the version-4 envelope by LoadAccumulator and Save;
// model_linear_v1.json and model_logistic_v1.json were written by the
// per-task model types that TaskModel replaced. All are frozen —
// -update-golden rewrites only the weights file, never an envelope, which
// would pin nothing if it were regenerated by the code it checks.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/weights.json from the current code")

const goldenDir = "testdata/golden"

// goldenWeights is the committed record of every pinned release.
type goldenWeights struct {
	// One-shot fits over incomeDataset(300, 17).
	Linear   []float64 `json:"linear"`   // seed 101
	Ridge    []float64 `json:"ridge"`    // weight 0.05, seed 102
	Logistic []float64 `json:"logistic"` // threshold 35000, seed 103
	Median   []float64 `json:"median"`   // seed 104
	// Refits from the golden accumulator envelope (flatRecords(40, 11),
	// threshold 35000).
	EnvelopeLinear   []float64 `json:"envelope_linear"`   // seed 9
	EnvelopeLogistic []float64 `json:"envelope_logistic"` // seed 13
	// A median refit (seed 15) from the live golden accumulator. The frozen
	// version-4 envelope predates the median fold, so only
	// TestGoldenEnvelopeLiveMatchesFixture asserts it.
	AccumulatorMedian []float64 `json:"accumulator_median"`
}

// goldenFits runs the pinned one-shot fits.
func goldenFits(t *testing.T) (lin, ridge, logit, median []float64) {
	t.Helper()
	ds := incomeDataset(300, 17)
	lm, _, err := funcmech.LinearRegression(ds, 0.8, funcmech.WithSeed(101))
	if err != nil {
		t.Fatal(err)
	}
	rm, _, err := funcmech.LinearRegression(ds, 0.8, funcmech.WithRidge(0.05), funcmech.WithSeed(102))
	if err != nil {
		t.Fatal(err)
	}
	gm, _, err := funcmech.LogisticRegression(ds, 0.8, funcmech.WithBinarizeThreshold(35000), funcmech.WithSeed(103))
	if err != nil {
		t.Fatal(err)
	}
	mm, _, err := funcmech.FitTask(ds, "median", 0.8, funcmech.WithSeed(104))
	if err != nil {
		t.Fatal(err)
	}
	return lm.Weights(), rm.Weights(), gm.Weights(), mm.Weights()
}

// goldenAccumulator rebuilds the accumulator the envelope fixtures were
// serialized from.
func goldenAccumulator(t *testing.T) *funcmech.Accumulator {
	t.Helper()
	acc, err := funcmech.NewAccumulator(incomeSchema(), funcmech.WithBinarizeThreshold(35000))
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := flatRecords(40, 11)
	if _, err := acc.AddFlat(flat); err != nil {
		t.Fatal(err)
	}
	return acc
}

func goldenRefits(t *testing.T, acc *funcmech.Accumulator) (lin, logit []float64) {
	t.Helper()
	lm, _, err := funcmech.FitTaskFromAccumulator(acc, "linear", 0.8, funcmech.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	gm, _, err := funcmech.FitTaskFromAccumulator(acc, "logistic", 0.8, funcmech.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	return lm.Weights(), gm.Weights()
}

// goldenMedianRefit is the pinned median refit from acc.
func goldenMedianRefit(t *testing.T, acc *funcmech.Accumulator) []float64 {
	t.Helper()
	m, _, err := funcmech.FitTaskFromAccumulator(acc, "median", 0.8, funcmech.WithSeed(15))
	if err != nil {
		t.Fatal(err)
	}
	return m.Weights()
}

// TestGoldenWeights: fixed-seed linear/ridge/logistic/median releases are
// bit-identical to the committed pre-refactor weights.
func TestGoldenWeights(t *testing.T) {
	lin, ridge, logit, median := goldenFits(t)

	if *updateGolden {
		acc := goldenAccumulator(t)
		accLin, accLog := goldenRefits(t, acc)
		writeGolden(t, goldenWeights{
			Linear: lin, Ridge: ridge, Logistic: logit, Median: median,
			EnvelopeLinear: accLin, EnvelopeLogistic: accLog,
			AccumulatorMedian: goldenMedianRefit(t, acc),
		})
	}
	want := readGolden(t)
	sameWeights(t, "golden linear", want.Linear, lin)
	sameWeights(t, "golden ridge", want.Ridge, ridge)
	sameWeights(t, "golden logistic", want.Logistic, logit)
	sameWeights(t, "golden median", want.Median, median)
}

// TestGoldenEnvelopeMigration: the committed version-4 accumulator envelope
// must keep decoding, and fixed-seed refits from it must stay bit-identical
// to the committed weights. This is the restore contract for every snapshot
// directory in the wild.
func TestGoldenEnvelopeMigration(t *testing.T) {
	want := readGolden(t)
	acc, err := funcmech.LoadAccumulator(bytes.NewReader(readGoldenEnvelope(t)))
	if err != nil {
		t.Fatalf("golden envelope failed to load: %v", err)
	}
	lin, logit := goldenRefits(t, acc)
	sameWeights(t, "envelope linear refit", want.EnvelopeLinear, lin)
	sameWeights(t, "envelope logistic refit", want.EnvelopeLogistic, logit)
}

// TestGoldenEnvelopeLiveMatchesFixture: a freshly folded accumulator over the
// fixture records refits bit-identically to the committed envelopes — the
// live fold and every stored generation agree.
func TestGoldenEnvelopeLiveMatchesFixture(t *testing.T) {
	want := readGolden(t)
	acc := goldenAccumulator(t)
	lin, logit := goldenRefits(t, acc)
	sameWeights(t, "live linear refit", want.EnvelopeLinear, lin)
	sameWeights(t, "live logistic refit", want.EnvelopeLogistic, logit)
	sameWeights(t, "live median refit", want.AccumulatorMedian, goldenMedianRefit(t, acc))
}

// TestGoldenModelEnvelopes: model envelopes written by the per-task model
// types TaskModel replaced still load with LoadModel, with the pinned
// weights bit for bit, and Save writes them back byte for byte — as it
// does for the same fits made today.
func TestGoldenModelEnvelopes(t *testing.T) {
	want := readGolden(t)
	ds := incomeDataset(300, 17)
	for _, tc := range []struct {
		file, task string
		weights    []float64
		opts       []funcmech.Option
	}{
		{"model_linear_v1.json", "linear", want.Linear, []funcmech.Option{funcmech.WithSeed(101)}},
		{"model_logistic_v1.json", "logistic", want.Logistic,
			[]funcmech.Option{funcmech.WithBinarizeThreshold(35000), funcmech.WithSeed(103)}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(goldenDir, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			m, err := funcmech.LoadModel(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("golden model failed to load: %v", err)
			}
			if m.Task().Name != tc.task {
				t.Fatalf("loaded task %q, want %q", m.Task().Name, tc.task)
			}
			sameWeights(t, tc.file, tc.weights, m.Weights())
			live, _, err := funcmech.FitTask(ds, tc.task, 0.8, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for what, model := range map[string]*funcmech.TaskModel{"loaded": m, "live": live} {
				var buf bytes.Buffer
				if err := model.Save(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), raw) {
					t.Errorf("%s model saved\n%s\nwant the fixture\n%s", what, buf.Bytes(), raw)
				}
			}
		})
	}
}

func readGolden(t *testing.T) goldenWeights {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(goldenDir, "weights.json"))
	if err != nil {
		t.Fatalf("golden weights missing (run with -update-golden to create): %v", err)
	}
	var w goldenWeights
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	return w
}

func readGoldenEnvelope(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(goldenDir, "accumulator_v4.json"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func writeGolden(t *testing.T, w goldenWeights) {
	t.Helper()
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir, "weights.json"), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
