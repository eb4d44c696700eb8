package funcmech_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"funcmech"
)

func TestSessionBudgetAccounting(t *testing.T) {
	ds := incomeDataset(500, 30)
	s := funcmech.NewSession(1.0)
	if s.Total() != 1.0 || s.Remaining() != 1.0 {
		t.Fatalf("fresh session: total %v remaining %v", s.Total(), s.Remaining())
	}
	if _, _, err := s.FitTask(ds, "linear", 0.5, funcmech.WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if total, spent, remaining := s.Snapshot(); total != 1 || spent != 0.5 || remaining != 0.5 {
		t.Fatalf("Snapshot = (%v, %v, %v), want (1, 0.5, 0.5)", total, spent, remaining)
	}
	if _, _, err := s.FitTask(ds, "linear", 0.5, funcmech.WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	if r := s.Remaining(); r != 0 {
		t.Fatalf("Remaining = %v after spending the budget exactly, want 0", r)
	}
	_, _, err := s.FitTask(ds, "linear", 0.1, funcmech.WithSeed(3))
	if !errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// Round-off is forgiven on exact exhaustion: 0.1 + 0.2 > 0.3 in float64.
	s = funcmech.NewSession(0.3)
	for _, eps := range []float64{0.1, 0.2} {
		if _, err := s.Charge(linearRelease(t, eps)); err != nil {
			t.Fatalf("Charge(%v) on a session of 0.3: %v", eps, err)
		}
	}
}

func TestSessionChargesResampleDouble(t *testing.T) {
	ds := incomeDataset(500, 31)
	s := funcmech.NewSession(0.8)
	if _, _, err := s.FitTask(ds, "linear", 0.4, funcmech.WithSeed(1),
		funcmech.WithPostProcess(funcmech.Resample)); err != nil {
		t.Fatal(err)
	}
	if s.Spent() != 0.8 {
		t.Fatalf("Resample spent %v, want 0.8 (Lemma 5 doubles)", s.Spent())
	}
	// The doubled charge used the whole 2ε budget: a third ε does not fit.
	if _, err := s.Charge(linearRelease(t, 0.4)); !errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.Fatalf("Charge(0.4) after a Resample fit of 0.4 on a session of 0.8: err = %v, want ErrBudgetExhausted", err)
	}
}

func TestSessionRejectsOversizedSingleFit(t *testing.T) {
	ds := incomeDataset(100, 32)
	s := funcmech.NewSession(0.5)
	if _, _, err := s.FitTask(ds, "linear", 1.0); !errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// The failed request must not consume anything.
	if s.Spent() != 0 {
		t.Fatalf("failed over-budget fit consumed %v", s.Spent())
	}
}

func TestSessionLogistic(t *testing.T) {
	ds := incomeDataset(2000, 33)
	s := funcmech.NewSession(2.0)
	if _, _, err := s.FitTask(ds, "logistic", 1.5,
		funcmech.WithSeed(4), funcmech.WithBinarizeThreshold(60000)); err != nil {
		t.Fatal(err)
	}
	if got := s.Remaining(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Remaining = %v, want 0.5", got)
	}
}

// TestSessionNonPositiveEpsilon: an ε that is not finite and positive is a
// malformed request, typed ErrInvalidSpend and never read as exhaustion,
// and it debits nothing; an overspend is exhaustion and nothing else. The
// two fits also refuse, before the debit, a positive ε whose Laplace scale
// Δ/ε overflows at their d (1e-320): each builds its Release first, and
// the constructor refuses it.
func TestSessionNonPositiveEpsilon(t *testing.T) {
	s := funcmech.NewSession(1)
	ds := incomeDataset(10, 34)
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, ds)
	for _, eps := range []float64{0, -0.1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-320} {
		errs := map[string]error{}
		_, _, errs["FitTask"] = s.FitTask(ds, "linear", eps)
		_, _, errs["FitTaskFromAccumulator"] = s.FitTaskFromAccumulator(acc, "linear", eps)
		for name, err := range errs {
			if !errors.Is(err, funcmech.ErrInvalidSpend) || errors.Is(err, funcmech.ErrBudgetExhausted) {
				t.Errorf("%s(ε = %v) = %v, want ErrInvalidSpend alone", name, eps, err)
			}
		}
	}
	if s.Spent() != 0 {
		t.Fatalf("invalid requests consumed %v", s.Spent())
	}
	if _, err := s.Charge(linearRelease(t, 2)); !errors.Is(err, funcmech.ErrBudgetExhausted) || errors.Is(err, funcmech.ErrInvalidSpend) {
		t.Fatalf("overspend = %v, want ErrBudgetExhausted alone", err)
	}
}

// TestSessionChargesGenericFits: Session.FitTask and
// Session.FitTaskFromAccumulator debit any registered task, here median, and
// an over-budget call of either fails typed without debiting anything.
func TestSessionChargesGenericFits(t *testing.T) {
	ds := incomeDataset(300, 39)
	acc, err := funcmech.NewAccumulator(incomeSchema())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, acc, ds)
	s := funcmech.NewSession(1.0)
	if _, _, err := s.FitTask(ds, "median", 0.5, funcmech.WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if s.Spent() != 0.5 {
		t.Fatalf("Spent after a median fit = %v, want 0.5", s.Spent())
	}
	if _, _, err := s.FitTaskFromAccumulator(acc, "median", 0.25, funcmech.WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	if s.Spent() != 0.75 {
		t.Fatalf("Spent after a median refit = %v, want 0.75", s.Spent())
	}
	if _, _, err := s.FitTask(ds, "median", 0.5); !errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.Fatalf("over-budget fit: err = %v, want ErrBudgetExhausted", err)
	}
	if _, _, err := s.FitTaskFromAccumulator(acc, "median", 0.5); !errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.Fatalf("over-budget refit: err = %v, want ErrBudgetExhausted", err)
	}
	if s.Spent() != 0.75 {
		t.Fatalf("over-budget calls debited: Spent = %v, want 0.75", s.Spent())
	}
}

func TestLinearModelSaveLoadRoundTrip(t *testing.T) {
	ds := incomeDataset(3000, 35)
	m, _, err := funcmech.LinearRegression(ds, 3.2, funcmech.WithSeed(5), funcmech.WithIntercept())
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
	// Identical predictions on raw inputs, including the intercept path.
	for _, x := range [][]float64{{30, 12, 40}, {70, 17, 0}, {16, 0, 99}} {
		if a, b := m.Predict(x), back.Predict(x); a != b {
			t.Fatalf("prediction drift after round trip: %v vs %v", a, b)
		}
	}
	wa, wb := m.Weights(), back.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("weights drift after round trip")
		}
	}
}

func TestLogisticModelSaveLoadRoundTrip(t *testing.T) {
	ds := incomeDataset(3000, 36)
	m, _, err := funcmech.LogisticRegression(ds, 3.2,
		funcmech.WithSeed(6), funcmech.WithBinarizeThreshold(60000))
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
	x := []float64{45, 14, 50}
	if a, b := m.Predict(x), back.Predict(x); a != b {
		t.Fatalf("probability drift: %v vs %v", a, b)
	}
	// The binarization threshold must survive, so evaluation still works.
	test := incomeDataset(300, 37)
	r1, err := m.MisclassificationRate(test)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := back.MisclassificationRate(test)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("rate drift: %v vs %v", r1, r2)
	}
}

// TestLoadRejectsWrongKind: LoadModel reads any registered kind, so what it
// must reject is a kind this build has not registered (typed, like every
// registry miss) and a binarize threshold on a normalized-target kind.
func TestLoadRejectsWrongKind(t *testing.T) {
	ds := incomeDataset(300, 38)
	m, _, err := funcmech.LinearRegression(ds, 1, funcmech.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	unregistered := strings.Replace(saved, `"kind":"linear"`, `"kind":"quantile"`, 1)
	thresholded := strings.Replace(saved, `"version":1`, `"threshold":35000,"version":1`, 1)
	if unregistered == saved || thresholded == saved {
		t.Fatal("test setup: kind or version field not found in envelope")
	}
	if _, err := funcmech.LoadModel(strings.NewReader(unregistered)); !errors.Is(err, funcmech.ErrUnknownTask) {
		t.Errorf("unregistered kind: err = %v, want ErrUnknownTask", err)
	}
	if _, err := funcmech.LoadModel(strings.NewReader(thresholded)); err == nil {
		t.Error("a linear envelope carrying a threshold must fail to load")
	}
}

func TestLoadRejectsCorruptPayloads(t *testing.T) {
	cases := map[string]string{
		"garbage":         "not json",
		"wrong version":   `{"kind":"linear","version":99,"schema":{"Features":[{"Name":"x","Min":0,"Max":1}],"Target":{"Name":"y","Min":0,"Max":1}},"weights":[1]}`,
		"weight mismatch": `{"kind":"linear","version":1,"schema":{"Features":[{"Name":"x","Min":0,"Max":1}],"Target":{"Name":"y","Min":0,"Max":1}},"weights":[1,2,3]}`,
		"bad schema":      `{"kind":"linear","version":1,"schema":{"Features":[{"Name":"x","Min":1,"Max":1}],"Target":{"Name":"y","Min":0,"Max":1}},"weights":[1]}`,
	}
	for name, payload := range cases {
		if _, err := funcmech.LoadModel(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: expected load error", name)
		}
	}
}

// TestSessionRefusesNonFiniteBudgets: NaN fails every comparison, so an
// accountant that only refused amounts <= 0 let a NaN total or a NaN
// restored or replayed spend through, and then admitted every charge.
func TestSessionRefusesNonFiniteBudgets(t *testing.T) {
	for _, total := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSession(%v) must panic", total)
				}
			}()
			funcmech.NewSession(total)
		}()
	}
	s := funcmech.NewSession(1)
	if err := s.RestoreSpent(math.NaN()); err == nil {
		t.Error("RestoreSpent(NaN) accepted")
	}
	s.ReplaySpend(math.NaN())
	if got := s.Spent(); got != 0 {
		t.Fatalf("Spent = %v after RestoreSpent(NaN) and ReplaySpend(NaN), want 0", got)
	}
	if _, err := s.Charge(linearRelease(t, 1000)); !errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.Fatalf("Charge(1000) on a session of 1: err = %v, want ErrBudgetExhausted", err)
	}
}

// TestSessionRestoreAndReplay: RestoreSpent takes a spend in [0, Total]
// (round-off slack forgiven) and leaves the session as it was otherwise.
// ReplaySpend adds every positive amount and clamps at Total, because a
// journaled charge may also sit in the snapshot it replays onto; it ignores
// what is not positive, and +Inf exhausts the session. NaN is
// TestSessionRefusesNonFiniteBudgets' case.
func TestSessionRestoreAndReplay(t *testing.T) {
	for _, c := range []struct {
		spent float64
		ok    bool
	}{
		{0, true}, {0.5, true}, {1, true}, {1 + 1e-13, true},
		{-0.1, false}, {1.5, false}, {math.Inf(1), false},
	} {
		s := funcmech.NewSession(1)
		if _, err := s.Charge(linearRelease(t, 0.25)); err != nil {
			t.Fatal(err)
		}
		want := 0.25
		if c.ok {
			want = c.spent
		}
		if err := s.RestoreSpent(c.spent); (err == nil) != c.ok || s.Spent() != want {
			t.Errorf("RestoreSpent(%v) = %v, Spent %v; want accepted = %v, Spent %v", c.spent, err, s.Spent(), c.ok, want)
		}
	}
	for _, c := range []struct {
		replay []float64
		spent  float64
	}{
		{[]float64{0.25, 0.25}, 0.5},
		{[]float64{0.25, 0.25, 0.9}, 1},
		{[]float64{-0.5, 0}, 0},
		{[]float64{0.25, math.Inf(1)}, 1},
	} {
		s := funcmech.NewSession(1)
		for _, cost := range c.replay {
			s.ReplaySpend(cost)
		}
		if total, spent, remaining := s.Snapshot(); spent != c.spent || remaining != total-c.spent {
			t.Errorf("ReplaySpend %v: Snapshot = (%v, %v, %v), want spent %v", c.replay, total, spent, remaining, c.spent)
		}
	}
}
