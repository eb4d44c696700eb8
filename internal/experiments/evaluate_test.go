package experiments

import (
	"errors"
	"math"
	"testing"

	"funcmech/internal/baseline"
	"funcmech/internal/census"
	"funcmech/internal/core"
	"funcmech/internal/noise"
)

// The task-table rows of the paper's two case studies.
var (
	linearRow   = caseStudy(core.TaskNameLinear)
	logisticRow = caseStudy(core.TaskNameLogistic)
)

// quickConfig is a fast configuration for integration tests.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Records = 3000
	cfg.Repeats = 1
	cfg.Folds = 5
	cfg.Methods = []baseline.Method{baseline.FM{}, baseline.NoPrivacy{}}
	return cfg
}

func TestPrepareTaskLinear(t *testing.T) {
	cfg := quickConfig()
	ds, err := PrepareTask(cfg, census.US(), linearRow, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3000 {
		t.Fatalf("N = %d, want 3000", ds.N())
	}
	if ds.D() != 4 { // 5 attributes including the income target
		t.Fatalf("D = %d, want 4", ds.D())
	}
	for i := 0; i < ds.N(); i++ {
		if y := ds.Label(i); y < -1 || y > 1 {
			t.Fatalf("label %v outside [−1,1]", y)
		}
	}
}

func TestPrepareTaskLogisticBoolean(t *testing.T) {
	cfg := quickConfig()
	ds, err := PrepareTask(cfg, census.Brazil(), logisticRow, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N(); i++ {
		if y := ds.Label(i); y != 0 && y != 1 {
			t.Fatalf("label %v not boolean", y)
		}
	}
}

func TestPrepareTaskUnknownDim(t *testing.T) {
	cfg := quickConfig()
	if _, err := PrepareTask(cfg, census.US(), linearRow, 7); err == nil {
		t.Fatal("expected error for unsupported dimensionality")
	}
}

func TestEvaluateMethodsShape(t *testing.T) {
	cfg := quickConfig()
	ds, err := PrepareTask(cfg, census.US(), linearRow, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateMethods(cfg, ds, linearRow, 0.8, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	for _, r := range res {
		if math.IsNaN(r.Metric) || r.Metric < 0 {
			t.Errorf("%s metric = %v", r.Method, r.Metric)
		}
		if r.FitSeconds <= 0 {
			t.Errorf("%s FitSeconds = %v", r.Method, r.FitSeconds)
		}
		if r.Failures != 0 {
			t.Errorf("%s failures = %d", r.Method, r.Failures)
		}
	}
}

func TestEvaluateMethodsDropsTruncatedForLinear(t *testing.T) {
	cfg := quickConfig()
	cfg.Methods = DefaultMethods()
	cfg.Records = 1500
	ds, err := PrepareTask(cfg, census.US(), linearRow, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateMethods(cfg, ds, linearRow, 0.8, "truncdrop")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Method == "Truncated" {
			t.Fatal("Truncated must be excluded from linear experiments")
		}
	}
	if len(res) != 4 {
		t.Fatalf("got %d methods, want 4", len(res))
	}
}

func TestEvaluateMethodsDeterministic(t *testing.T) {
	cfg := quickConfig()
	ds, err := PrepareTask(cfg, census.US(), linearRow, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := EvaluateMethods(cfg, ds, linearRow, 0.8, "det")
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateMethods(cfg, ds, linearRow, 0.8, "det")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Metric != b[i].Metric {
			t.Fatalf("non-deterministic metric for %s: %v vs %v", a[i].Method, a[i].Metric, b[i].Metric)
		}
	}
}

// TestEvaluateMethodsSeedZeroIsASeed: BaseSeed 0 keys its own folds and
// noise instead of standing in for the default seed 1.
func TestEvaluateMethodsSeedZeroIsASeed(t *testing.T) {
	cfg := quickConfig()
	ds, err := PrepareTask(cfg, census.US(), linearRow, 5)
	if err != nil {
		t.Fatal(err)
	}
	results := map[int64][]MethodResult{}
	for _, seed := range []int64{0, 1} {
		cfg.BaseSeed = seed
		if results[seed], err = EvaluateMethods(cfg, ds, linearRow, 0.8, "seed"); err != nil {
			t.Fatal(err)
		}
	}
	for i := range results[0] {
		if a, b := results[0][i], results[1][i]; a.Metric == b.Metric && a.StdDev == b.StdDev {
			t.Errorf("%s: BaseSeed 0 and 1 give the same result %v ± %v", a.Method, a.Metric, a.StdDev)
		}
	}
}

// TestEvaluateMethodsValidation: PrepareTask and EvaluateMethods refuse the
// same invalid configurations, a zero Folds, Repeats, Epsilon or
// Dimensionality among them: a zero is taken as given, not replaced by
// DefaultConfig's value. An Epsilon that is not finite is refused too,
// rather than scoring NaN-scaled noise or panicking at +Inf.
func TestEvaluateMethodsValidation(t *testing.T) {
	cfg := quickConfig()
	ds, err := PrepareTask(cfg, census.US(), linearRow, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]func(*Config){
		"Folds=1":          func(c *Config) { c.Folds = 1 },
		"Folds=0":          func(c *Config) { c.Folds = 0 },
		"Repeats=0":        func(c *Config) { c.Repeats = 0 },
		"Epsilon=0":        func(c *Config) { c.Epsilon = 0 },
		"Epsilon=NaN":      func(c *Config) { c.Epsilon = math.NaN() },
		"Epsilon=+Inf":     func(c *Config) { c.Epsilon = math.Inf(1) },
		"Epsilon=-Inf":     func(c *Config) { c.Epsilon = math.Inf(-1) },
		"Dimensionality=7": func(c *Config) { c.Dimensionality = 7 },
		"Dimensionality=0": func(c *Config) { c.Dimensionality = 0 },
		"Records=-1":       func(c *Config) { c.Records = -1 },
	} {
		bad := cfg
		set(&bad)
		if _, err := EvaluateMethods(bad, ds, linearRow, 0.8, "x"); err == nil {
			t.Errorf("EvaluateMethods accepted %s", name)
		}
		if _, err := PrepareTask(bad, census.US(), linearRow, 5); err == nil {
			t.Errorf("PrepareTask accepted %s", name)
		}
	}
	// A positive ε whose scale Δ/ε overflows is refused before any fit.
	if _, err := EvaluateMethods(cfg, ds, linearRow, 1e-320, "x"); !errors.Is(err, noise.ErrInvalidSpend) {
		t.Errorf("EvaluateMethods at ε = 1e-320: err = %v, want ErrInvalidSpend", err)
	}
}

// The §7 headline on our harness: NoPrivacy lower-bounds FM, and FM error is
// sane (below the trivial predictor) at a generous budget.
func TestFMBetweenNoPrivacyAndTrivial(t *testing.T) {
	cfg := quickConfig()
	cfg.Records = 8000
	ds, err := PrepareTask(cfg, census.US(), linearRow, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateMethods(cfg, ds, linearRow, 3.2, "sanity")
	if err != nil {
		t.Fatal(err)
	}
	var fm, np float64
	for _, r := range res {
		switch r.Method {
		case "FM":
			fm = r.Metric
		case "NoPrivacy":
			np = r.Metric
		}
	}
	if np > fm {
		t.Fatalf("NoPrivacy MSE %v above FM %v: exact solver must lower-bound FM", np, fm)
	}
	// Trivial zero predictor on [−1,1]-normalized income.
	var trivial float64
	for i := 0; i < ds.N(); i++ {
		trivial += ds.Label(i) * ds.Label(i)
	}
	trivial /= float64(ds.N())
	if fm >= trivial {
		t.Fatalf("FM MSE %v no better than the zero model %v at ε=3.2", fm, trivial)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if math.Abs(s-2.138) > 0.01 {
		t.Errorf("sd = %v, want ≈ 2.138 (sample)", s)
	}
	if m, s := meanStd([]float64{3}); m != 3 || s != 0 {
		t.Errorf("singleton: %v ± %v", m, s)
	}
	if m, _ := meanStd(nil); !math.IsNaN(m) {
		t.Errorf("empty mean = %v, want NaN", m)
	}
}

func TestSeedForDistinct(t *testing.T) {
	a := seedFor(1, "x", 1)
	b := seedFor(1, "x", 2)
	c := seedFor(2, "x", 1)
	if a == b || a == c || b == c {
		t.Fatalf("seed collisions: %v %v %v", a, b, c)
	}
	if seedFor(1, "x", 1) != a {
		t.Fatal("seedFor not deterministic")
	}
}

// withDefaults is the single point that threads Config.Parallelism into FM
// fits — every entry path (EvaluateMethods, the sweeps, runAblation's and
// runLambda's hand-built method lists) funnels through it.
func TestWithDefaultsThreadsParallelismIntoFM(t *testing.T) {
	cfg := Config{
		Parallelism: 3,
		Methods: []baseline.Method{
			baseline.FM{},
			baseline.FM{Options: core.Options{Parallelism: 5}}, // explicit wins
			baseline.NoPrivacy{},
		},
	}
	original := cfg.Methods
	got := cfg.withDefaults()
	if fm := got.Methods[0].(baseline.FM); fm.Options.Parallelism != 3 {
		t.Errorf("default FM parallelism = %d, want 3", fm.Options.Parallelism)
	}
	if fm := got.Methods[1].(baseline.FM); fm.Options.Parallelism != 5 {
		t.Errorf("explicit FM parallelism = %d, want 5 (must not be overridden)", fm.Options.Parallelism)
	}
	if _, ok := got.Methods[2].(baseline.NoPrivacy); !ok {
		t.Error("non-FM method rewritten")
	}
	if fm := original[0].(baseline.FM); fm.Options.Parallelism != 0 {
		t.Error("withDefaults mutated the caller's Methods slice")
	}
}
