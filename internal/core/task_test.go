package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"funcmech/internal/dataset"
	"funcmech/internal/poly"
)

func unitFeatures(d int) []dataset.Attribute {
	fs := make([]dataset.Attribute, d)
	for j := range fs {
		fs[j] = dataset.Attribute{Name: fmt.Sprintf("x%d", j), Min: -1, Max: 1}
	}
	return fs
}

func unitSchema(d int) *dataset.Schema {
	return &dataset.Schema{
		Features: unitFeatures(d),
		Target:   dataset.Attribute{Name: "y", Min: -1, Max: 1},
	}
}

// figure2Dataset is the paper's §4.2 example: (1,0.4), (0.9,0.3), (−0.5,−1).
func figure2Dataset() *dataset.Dataset {
	ds := dataset.New(unitSchema(1))
	ds.Append([]float64{1}, 0.4)
	ds.Append([]float64{0.9}, 0.3)
	ds.Append([]float64{-0.5}, -1)
	return ds
}

func TestLinearObjectiveFigure2Golden(t *testing.T) {
	q := ParallelObjective(LinearTask{}, figure2Dataset(), 1)
	if got := q.M.At(0, 0); math.Abs(got-2.06) > 1e-12 {
		t.Errorf("M = %v, want 2.06", got)
	}
	if got := q.Alpha[0]; math.Abs(got+2.34) > 1e-12 {
		t.Errorf("α = %v, want −2.34", got)
	}
	if math.Abs(q.Beta-1.25) > 1e-12 {
		t.Errorf("β = %v, want 1.25", q.Beta)
	}
}

func TestLinearSensitivityGolden(t *testing.T) {
	// §4.2: Δ = 2(d+1)²; the worked example sets d=1 ⇒ Δ = 8.
	if got := (LinearTask{}).Sensitivity(1); got != 8 {
		t.Errorf("Δ(1) = %v, want 8", got)
	}
	if got := (LinearTask{}).Sensitivity(13); got != 392 {
		t.Errorf("Δ(13) = %v, want 392", got)
	}
}

func TestLogisticSensitivityGolden(t *testing.T) {
	// §5.3: Δ = d²/4 + 3d.
	if got := (LogisticTask{}).Sensitivity(2); got != 7 {
		t.Errorf("Δ(2) = %v, want 7", got)
	}
	if got := (LogisticTask{}).Sensitivity(13); math.Abs(got-(169.0/4+39)) > 1e-12 {
		t.Errorf("Δ(13) = %v, want %v", got, 169.0/4+39)
	}
}

func randomSphereTuple(rng *rand.Rand, d int) ([]float64, float64) {
	x := make([]float64, d)
	var n float64
	for j := range x {
		x[j] = rng.NormFloat64()
		n += x[j] * x[j]
	}
	n = math.Sqrt(n)
	r := math.Pow(rng.Float64(), 1/float64(d)) // uniform radius in the ball
	if n > 0 {
		for j := range x {
			x[j] = x[j] / n * r
		}
	}
	return x, rng.Float64()*2 - 1
}

// sensitivityTightness searches records for the largest per-tuple
// coefficient L1 norm of task at dimensionality d and returns 2·max/Δ,
// which Algorithm 1 line 1 requires to be at most 1. The search covers
// random records in the unit ball and the adversarial ones: x = 𝟙/√d,
// every basis vector e_j and x = 0, each with the extreme labels of the
// target rule.
func sensitivityTightness(task Task, rule TargetRule, d int, rng *rand.Rand) float64 {
	labels := []float64{-1, 0, 1}
	if rule == TargetBoolean {
		labels = []float64{0, 1}
	}
	label := func() float64 {
		if rule == TargetBoolean {
			return float64(rng.Intn(2))
		}
		return rng.Float64()*2 - 1
	}
	var max float64
	try := func(x []float64, y float64) {
		if v := TupleCoefL1(task, x, y); v > max {
			max = v
		}
	}
	for i := 0; i < 100; i++ {
		x, _ := randomSphereTuple(rng, d)
		try(x, label())
	}
	diag := make([]float64, d)
	for j := range diag {
		diag[j] = 1 / math.Sqrt(float64(d))
	}
	for _, y := range labels {
		try(diag, y)
		try(make([]float64, d), y)
		for j := 0; j < d; j++ {
			e := make([]float64, d)
			e[j] = 1
			try(e, y)
		}
	}
	return 2 * max / task.Sensitivity(d)
}

// Property: Algorithm 1 line 1 — every task row's Δ dominates 2·Σ|λ_φt| for
// every in-sphere tuple. This is the inequality the privacy proof
// (Theorem 1 via Lemma 1) rests on, checked over the whole task table so no
// row ships an unverified Δ. The log reports how tight each Δ is; for
// linear the maximum sits at x = 𝟙/√d, |y| = 1, where the tightness is
// (1+√d)²/(d+1)².
func TestSensitivityDominatesTupleCoefficientsProperty(t *testing.T) {
	for _, spec := range TaskSpecs() {
		for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 63} {
			rng := rand.New(rand.NewSource(int64(d)))
			tight := sensitivityTightness(spec.Task, spec.Target, d, rng)
			if tight > 1+1e-9 {
				t.Errorf("task %q at d=%d: 2·max Σ|λ| / Δ = %v > 1", spec.Name, d, tight)
			}
			t.Logf("task %-8s d=%-2d tightness 2·max/Δ = %.4f", spec.Name, d, tight)
		}
	}
}

// TupleCoefL1 reads the monomial coefficients off the dense quadratic; it
// must agree with the generic polynomial's coefficient L1 norm.
func TestTupleCoefL1MatchesPolynomialNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, spec := range TaskSpecs() {
		for _, d := range []int{1, 4, 9} {
			x, y := randomSphereTuple(rng, d)
			a := NewAccumulator(spec.Task, d)
			a.AddFlat(x, []float64{y})
			want := a.Quadratic().ToPolynomial().CoefL1Norm(0)
			if got := TupleCoefL1(spec.Task, x, y); math.Abs(got-want) > 1e-12*want {
				t.Errorf("task %q d=%d: TupleCoefL1 = %v, polynomial norm %v", spec.Name, d, got, want)
			}
		}
	}
}

// understated is a task whose Δ is below what its coefficients reach.
type understated struct {
	Task
	factor float64
}

func (u understated) Sensitivity(d int) float64 { return u.factor * u.Task.Sensitivity(d) }

// The negative control: the same search flags a Δ below the searched
// maximum, for linear at its attained bound.
func TestSensitivitySearchFlagsUnderstatedDelta(t *testing.T) {
	for _, d := range []int{1, 13} {
		exact := (1 + math.Sqrt(float64(d))) * (1 + math.Sqrt(float64(d))) / float64((d+1)*(d+1))
		task := understated{Task: LinearTask{}, factor: 0.99 * exact}
		if tight := sensitivityTightness(task, TargetNormalized, d, rand.New(rand.NewSource(1))); tight <= 1+1e-9 {
			t.Errorf("d=%d: understated Δ passed with tightness %v", d, tight)
		}
	}
}

// The dense logistic objective must agree with the generic Algorithm 2
// machinery (Taylor truncation via internal/poly) summed over tuples.
func TestLogisticObjectiveMatchesTaylorExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := 3
	s := &dataset.Schema{Features: unitFeatures(d), Target: dataset.Attribute{Name: "y", Min: 0, Max: 1}}
	ds := dataset.New(s)
	for i := 0; i < 40; i++ {
		x, _ := randomSphereTuple(rng, d)
		ds.Append(x, float64(rng.Intn(2)))
	}
	direct := ParallelObjective(LogisticTask{}, ds, 1)

	sum := poly.NewPolynomial(d)
	for i := 0; i < ds.N(); i++ {
		sum.Add(poly.ExpandTruncated(poly.LogisticComponents(ds.Row(i), ds.Label(i))))
	}
	if !direct.ToPolynomial().EqualApprox(sum, 1e-9) {
		t.Fatalf("dense objective diverges from Taylor machinery:\n%v\nvs\n%v",
			direct.ToPolynomial(), sum)
	}
}

func TestTaskNames(t *testing.T) {
	if (LinearTask{}).Name() != "linear" || (LogisticTask{}).Name() != "logistic" {
		t.Fatal("task names wrong")
	}
}

func TestLogisticObjectiveBetaIsNLn2(t *testing.T) {
	ds := dataset.New(unitSchema(2))
	for i := 0; i < 7; i++ {
		ds.Append([]float64{0.1, 0.1}, float64(i%2))
	}
	q := ParallelObjective(LogisticTask{}, ds, 1)
	if want := 7 * math.Ln2; math.Abs(q.Beta-want) > 1e-12 {
		t.Fatalf("β = %v, want %v", q.Beta, want)
	}
}
