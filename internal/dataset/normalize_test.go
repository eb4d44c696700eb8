package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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
	if got, _ := MaxRowNorm(norm); got > 1+1e-12 {
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
	if _, err := nz.NormalizeForLogistic(ds); err == nil {
		t.Fatal("expected error for non-boolean target")
	}
	bin := ds.BinarizeTarget(45000)
	norm, err := nz.NormalizeForLogistic(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := MaxRowNorm(norm); got > 1+1e-12 {
		t.Fatalf("max row norm %v > 1", got)
	}
}

// Property: paper §3 footnote 1 invariant — after normalization every
// feature vector lies inside the unit sphere and every linear label in
// [−1,1], for arbitrary schemas and in-domain data.
func TestNormalizationInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(14)
		s := &Schema{Target: Attribute{Name: "y", Min: -5 + rng.Float64(), Max: 5 + rng.Float64()}}
		for j := 0; j < d; j++ {
			lo := rng.NormFloat64() * 100
			s.Features = append(s.Features, Attribute{
				Name: "f" + string(rune('a'+j)),
				Min:  lo,
				Max:  lo + 0.1 + rng.Float64()*100,
			})
		}
		ds := New(s)
		for i := 0; i < 20; i++ {
			row := make([]float64, d)
			for j, a := range s.Features {
				row[j] = a.Min + rng.Float64()*a.Width()
			}
			ds.Append(row, s.Target.Min+rng.Float64()*s.Target.Width())
		}
		norm := NewNormalizer(s).NormalizeForLinear(ds)
		if got, _ := MaxRowNorm(norm); got > 1+1e-9 {
			return false
		}
		for i := 0; i < norm.N(); i++ {
			if y := norm.Label(i); y < -1-1e-9 || y > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
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

func TestMaxRowNormEmpty(t *testing.T) {
	ds := New(testSchema())
	if got, _ := MaxRowNorm(ds); got != 0 {
		t.Fatalf("MaxRowNorm(empty) = %v", got)
	}
}
