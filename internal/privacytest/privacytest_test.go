package privacytest

import (
	"math"
	"math/rand"
	"testing"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/noise"
)

// laplaceMechanism answers the query value with Lap(sens/eps) noise.
func laplaceMechanism(value, sens, eps float64) Mechanism {
	l := noise.NewLaplace(sens, eps)
	return func(rng *rand.Rand) float64 { return value + l.Sample(rng) }
}

func TestLaplaceMechanismPassesAudit(t *testing.T) {
	// Neighbor counts 10 and 11, sensitivity 1, ε = ln 2.
	eps := math.Ln2
	m1 := laplaceMechanism(10, 1, eps)
	m2 := laplaceMechanism(11, 1, eps)
	opt := Options{Lo: 0, Hi: 21, Trials: 300000}
	got, err := MaxLogRatio(m1, m2, noise.NewRand(1), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got > eps+3*Slack(opt) {
		t.Fatalf("audited ratio %v exceeds ε=%v (+slack %v)", got, eps, 3*Slack(opt))
	}
	if got < eps/3 {
		t.Fatalf("audited ratio %v implausibly small; the test has no power", got)
	}
}

func TestBrokenMechanismFailsAudit(t *testing.T) {
	// Noise calibrated for sensitivity 1 but the true gap is 4: the audit
	// must measure a ratio well above the claimed ε.
	eps := math.Ln2
	m1 := laplaceMechanism(10, 1, eps)
	m2 := laplaceMechanism(14, 1, eps)
	opt := Options{Lo: 2, Hi: 22, Trials: 300000}
	got, err := MaxLogRatio(m1, m2, noise.NewRand(2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got < 1.5*eps {
		t.Fatalf("audit failed to flag a 4× sensitivity violation: ratio %v vs ε %v", got, eps)
	}
}

// The functional mechanism itself under audit: release the perturbed β
// coefficient (a single Laplace query through the real Perturb code path)
// for the Figure 2 data and a neighbor with one tuple replaced.
func TestFunctionalMechanismCoefficientAudit(t *testing.T) {
	build := func(lastY float64) *dataset.Dataset {
		s := &dataset.Schema{
			Features: []dataset.Attribute{{Name: "x", Min: -1, Max: 1}},
			Target:   dataset.Attribute{Name: "y", Min: -1, Max: 1},
		}
		ds := dataset.New(s)
		ds.Append([]float64{1}, 0.4)
		ds.Append([]float64{0.9}, 0.3)
		ds.Append([]float64{-0.5}, lastY)
		return ds
	}
	task := core.LinearTask{}
	eps := 1.0
	delta := task.Sensitivity(1)
	mech := func(ds *dataset.Dataset) Mechanism {
		q := core.ParallelObjective(task, ds, 1)
		l := noise.NewLaplace(delta, eps)
		return func(rng *rand.Rand) float64 {
			return core.Perturb(q, l, rng).Beta
		}
	}
	// β = Σy²: 1.25 on D₁ vs 0.34 on D₂ — changing one tuple moved it by
	// 0.91 ≤ Δ, so the audited ratio must respect ε·0.91/Δ ≤ ε.
	m1 := mech(build(-1))
	m2 := mech(build(0.3))
	opt := Options{Lo: -30, Hi: 32, Trials: 300000}
	got, err := MaxLogRatio(m1, m2, noise.NewRand(3), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got > eps+3*Slack(opt) {
		t.Fatalf("FM coefficient audit: ratio %v exceeds ε=%v", got, eps)
	}
}

func TestMaxLogRatioValidation(t *testing.T) {
	m := laplaceMechanism(0, 1, 1)
	if _, err := MaxLogRatio(m, m, noise.NewRand(1), Options{Lo: 1, Hi: 1}); err == nil {
		t.Error("expected error for empty range")
	}
	// Too few trials for the count floor leaves no usable bins.
	opt := Options{Lo: -5, Hi: 5, Trials: 50, MinCount: 100}
	if _, err := MaxLogRatio(m, m, noise.NewRand(1), opt); err == nil {
		t.Error("expected error when no bin clears MinCount")
	}
}

func TestSlackShrinksWithMinCount(t *testing.T) {
	a := Slack(Options{MinCount: 100})
	b := Slack(Options{MinCount: 10000})
	if b >= a {
		t.Fatalf("slack must shrink with count: %v vs %v", a, b)
	}
}
