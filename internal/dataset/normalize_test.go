package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// maxRowNorm returns the largest Euclidean norm of a feature vector in ds,
// the quantity the paper requires to be at most 1, or NaN when a row holds
// one.
func maxRowNorm(ds *Dataset) float64 {
	var m float64
	for i := 0; i < ds.N(); i++ {
		var s float64
		for _, v := range ds.Row(i) {
			s += v * v
		}
		if !(s <= m) {
			m = s
		}
	}
	return math.Sqrt(m)
}

func TestNormalizeRowKnown(t *testing.T) {
	nz := NewNormalizer(testSchema())
	// age 16 → 0; age 95 → 1/√2; hours 49.5 → 0.5/√2.
	got := nz.NormalizeRow([]float64{16, 49.5})
	if math.Abs(got[0]) > 1e-12 {
		t.Errorf("min value → %v, want 0", got[0])
	}
	if want := 0.5 / math.Sqrt2; math.Abs(got[1]-want) > 1e-12 {
		t.Errorf("midpoint → %v, want %v", got[1], want)
	}
	got = nz.NormalizeRow([]float64{95, 99})
	if want := 1 / math.Sqrt2; math.Abs(got[0]-want) > 1e-12 || math.Abs(got[1]-want) > 1e-12 {
		t.Errorf("max values → %v, want both %v", got, want)
	}
}

func TestNormalizeClampsOutOfDomain(t *testing.T) {
	nz := NewNormalizer(testSchema())
	got := nz.NormalizeRow([]float64{1000, -50})
	if math.Abs(got[0]-1/math.Sqrt2) > 1e-12 || got[1] != 0 {
		t.Fatalf("clamping failed: %v", got)
	}
	if y := nz.NormalizeLabel(1e9); y != 1 {
		t.Fatalf("label clamp failed: %v", y)
	}
}

func TestNormalizeLabelRoundTrip(t *testing.T) {
	nz := NewNormalizer(testSchema())
	for _, y := range []float64{0, 125000, 250000, 500000} {
		n := nz.NormalizeLabel(y)
		if n < -1 || n > 1 {
			t.Errorf("normalized label %v outside [−1,1]", n)
		}
		if back := nz.DenormalizeLabel(n); math.Abs(back-y) > 1e-6 {
			t.Errorf("round trip %v → %v → %v", y, n, back)
		}
	}
}

func TestNormalizeForLinearInvariants(t *testing.T) {
	ds := smallDataset(t)
	nz := NewNormalizer(ds.Schema)
	norm := nz.NormalizeForLinear(ds)
	if got := maxRowNorm(norm); !(got <= 1+1e-12) {
		t.Fatalf("max row norm %v > 1", got)
	}
	for i := 0; i < norm.N(); i++ {
		if y := norm.Label(i); y < -1 || y > 1 {
			t.Fatalf("label %v outside [−1,1]", y)
		}
	}
}

func TestNormalizeForLogisticRejectsNonBoolean(t *testing.T) {
	ds := smallDataset(t)
	nz := NewNormalizer(ds.Schema)
	if _, err := nz.Normalize(ds, TargetBoolean); err == nil {
		t.Fatal("expected error for non-boolean target")
	}
	bin := ds.BinarizeTarget(45000)
	norm, err := nz.Normalize(bin, TargetBoolean)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxRowNorm(norm); !(got <= 1+1e-12) {
		t.Fatalf("max row norm %v > 1", got)
	}
}

// TestNewRuleRefusesNonFiniteThreshold: no target exceeds NaN or +Inf and
// every target exceeds −Inf, so such a threshold would label every record
// alike; the rule refuses it, and CheckThreshold is that one test.
func TestNewRuleRefusesNonFiniteThreshold(t *testing.T) {
	for _, th := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckThreshold(&th); err == nil {
			t.Errorf("CheckThreshold(%v) accepted", th)
		}
		if _, err := NewRule(*testSchema(), false, &th); err == nil {
			t.Errorf("NewRule accepted binarize threshold %v", th)
		}
	}
	for _, th := range []float64{0, -1e300, 45000} {
		if _, err := NewRule(*testSchema(), true, &th); err != nil {
			t.Errorf("NewRule refused binarize threshold %v: %v", th, err)
		}
	}
}

// Property: paper §3 footnote 1 invariant — every record the rule accepts
// lands with its feature vector inside the unit sphere and its label in the
// target rule's range: [−1, 1] when normalized, {0, 1} under a binarize
// threshold. It holds for arbitrary schemas up to d = 64, the widest domain
// Attribute.Validate accepts included, with or without the intercept
// column, and for raw values in the domain, out of it on either side, and
// infinite. This is the guarantee the tasks' Δ assume, so nothing between
// the rule and the fold re-checks it.
func TestNormalizationInvariantProperty(t *testing.T) {
	const widest = math.MaxFloat64 / 4 // [−widest, widest] is as wide as a domain may be
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(64)
		domain := func(name string) Attribute {
			if rng.Intn(8) == 0 {
				return Attribute{Name: name, Min: -widest, Max: widest}
			}
			lo := rng.NormFloat64() * 100
			return Attribute{Name: name, Min: lo, Max: lo + 0.1 + rng.Float64()*100}
		}
		s := &Schema{Target: domain("y")}
		for j := 0; j < d; j++ {
			s.Features = append(s.Features, domain(fmt.Sprintf("f%d", j)))
		}
		if s.Validate() != nil {
			return false
		}
		raw := func(a Attribute) float64 {
			switch rng.Intn(8) {
			case 0:
				return a.Min - rng.ExpFloat64()*a.Width()
			case 1:
				return a.Max + rng.ExpFloat64()*a.Width()
			case 2:
				return math.Inf(1)
			case 3:
				return math.Inf(-1)
			}
			return a.Min + rng.Float64()*a.Width()
		}
		ds := New(s)
		for i := 0; i < 20; i++ {
			row := make([]float64, d)
			for j, a := range s.Features {
				row[j] = raw(a)
			}
			ds.Append(row, raw(s.Target))
		}
		intercept := rng.Intn(2) == 0
		threshold := s.Target.Min + rng.Float64()*s.Target.Width()
		for _, rule := range []TargetRule{TargetNormalized, TargetBoolean} {
			var th *float64
			if rule == TargetBoolean {
				th = &threshold
			}
			nz, err := NewRule(*s, intercept, th)
			if err != nil {
				return false
			}
			norm, err := nz.Normalize(ds, rule)
			if err != nil || norm.N() != ds.N() || norm.D() != nz.D() {
				return false
			}
			if got := maxRowNorm(norm); !(got <= 1+1e-9) {
				return false
			}
			for i := 0; i < norm.N(); i++ {
				y := norm.Label(i)
				if rule == TargetBoolean && y != 0 && y != 1 {
					return false
				}
				if rule == TargetNormalized && !(y >= -1-1e-9 && y <= 1+1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestNormalizeRefusesNaN: a NaN cannot be clamped into the domain, so the
// record rule refuses a NaN feature or target as it writes the training
// copy, naming the record and the column as Schema.CheckBatch does, under
// either target rule and with or without the intercept column and a
// binarize threshold.
func TestNormalizeRefusesNaN(t *testing.T) {
	threshold := 0.5
	type rule struct {
		target    TargetRule
		intercept bool
		threshold *float64
	}
	rules := []rule{
		{TargetNormalized, false, nil},
		{TargetNormalized, true, nil},
		{TargetBoolean, false, nil},
		{TargetBoolean, true, nil},
		{TargetBoolean, false, &threshold},
		{TargetBoolean, true, &threshold},
	}
	columns := []string{`feature "age"`, `feature "hours"`, `target "income"`}
	for _, r := range rules {
		nz, err := NewRule(*testSchema(), r.intercept, r.threshold)
		if err != nil {
			t.Fatal(err)
		}
		for col, name := range columns {
			ds := New(testSchema())
			for i := 0; i < 6; i++ {
				row, y := []float64{20 + float64(i), 40}, float64(i%2)
				if i == 3 {
					if col < len(row) {
						row[col] = math.NaN()
					} else {
						y = math.NaN()
					}
				}
				ds.Append(row, y)
			}
			want := fmt.Sprintf("record 3: %s is NaN", name)
			norm, err := nz.Normalize(ds, r.target)
			if err == nil || norm != nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s rule (intercept %v, threshold %v) with a NaN %s: err %v; want a refusal containing %q",
					r.target, r.intercept, r.threshold != nil, name, err, want)
			}
		}
	}
	ds := New(testSchema())
	ds.Append([]float64{math.NaN(), 40}, 1)
	defer func() {
		if recover() == nil {
			t.Error("NormalizeForLinear accepted a NaN feature")
		}
	}()
	NewNormalizer(testSchema()).NormalizeForLinear(ds)
}

// Property: normalization is monotone per coordinate.
func TestNormalizationMonotoneProperty(t *testing.T) {
	nz := NewNormalizer(testSchema())
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 79) + 16 // in [16, 95)
		b = math.Mod(math.Abs(b), 79) + 16
		lo, hi := math.Min(a, b), math.Max(a, b)
		na := nz.NormalizeRow([]float64{lo, 0})[0]
		nb := nz.NormalizeRow([]float64{hi, 0})[0]
		return na <= nb+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
