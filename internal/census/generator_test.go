package census

import (
	"math"
	"strings"
	"testing"

	"funcmech/internal/dataset"
)

func TestSchemasValid(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Schema().Validate(); err != nil {
			t.Errorf("%s schema invalid: %v", p.Name, err)
		}
		if got := p.Schema().D(); got != 13 {
			t.Errorf("%s schema has %d features, want 13", p.Name, got)
		}
	}
}

func TestProfileCardinalitiesMatchPaper(t *testing.T) {
	if US().Records != 370000 {
		t.Errorf("US records = %d, want 370000", US().Records)
	}
	if Brazil().Records != 190000 {
		t.Errorf("Brazil records = %d, want 190000", Brazil().Records)
	}
}

func TestProfileByName(t *testing.T) {
	for name, want := range map[string]string{"us": "US", "Brazil": "Brazil", "BRAZIL": "Brazil"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != want {
			t.Errorf("ProfileByName(%q) = %q, %v; want %q", name, p.Name, err, want)
		}
	}
	if _, err := ProfileByName("mexico"); err == nil || !strings.Contains(err.Error(), "want us or brazil") {
		t.Errorf("ProfileByName(mexico) err = %v, want the accepted names", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateN(US(), 500, 42)
	b := GenerateN(US(), 500, 42)
	for i := 0; i < a.N(); i++ {
		if a.Label(i) != b.Label(i) {
			t.Fatalf("labels diverge at %d", i)
		}
		for j := range a.Row(i) {
			if a.Row(i)[j] != b.Row(i)[j] {
				t.Fatalf("rows diverge at (%d,%d)", i, j)
			}
		}
	}
	c := GenerateN(US(), 500, 43)
	same := true
	for i := 0; i < a.N() && same; i++ {
		same = a.Label(i) == c.Label(i)
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGeneratedValuesWithinDomains(t *testing.T) {
	for _, p := range Profiles() {
		ds := GenerateN(p, 2000, 7)
		s := ds.Schema
		for i := 0; i < ds.N(); i++ {
			row := ds.Row(i)
			for j, a := range s.Features {
				if row[j] < a.Min-1e-9 || row[j] > a.Max+1e-9 {
					t.Fatalf("%s record %d: %s=%v outside [%v,%v]",
						p.Name, i, a.Name, row[j], a.Min, a.Max)
				}
			}
			if y := ds.Label(i); y < 0 || y > p.IncomeMax {
				t.Fatalf("%s record %d: income %v outside domain", p.Name, i, y)
			}
		}
	}
}

func TestBinaryAttributesAreBinary(t *testing.T) {
	ds := GenerateN(US(), 1000, 9)
	for _, name := range []string{AttrGender, AttrNativity, AttrDwelling, AttrIsSingle, AttrIsMarried, AttrDisability} {
		j := ds.Schema.FeatureIndex(name)
		for i := 0; i < ds.N(); i++ {
			if v := ds.Row(i)[j]; v != 0 && v != 1 {
				t.Fatalf("%s = %v at record %d, want 0/1", name, v, i)
			}
		}
	}
}

func TestMaritalIndicatorsMutuallyExclusive(t *testing.T) {
	ds := GenerateN(Brazil(), 2000, 11)
	si := ds.Schema.FeatureIndex(AttrIsSingle)
	mi := ds.Schema.FeatureIndex(AttrIsMarried)
	for i := 0; i < ds.N(); i++ {
		if ds.Row(i)[si] == 1 && ds.Row(i)[mi] == 1 {
			t.Fatalf("record %d both single and married", i)
		}
	}
}

func correlation(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	return cov / math.Sqrt(vx*vy)
}

func column(ds *dataset.Dataset, name string) []float64 {
	j := ds.Schema.FeatureIndex(name)
	out := make([]float64, ds.N())
	for i := range out {
		out[i] = ds.Row(i)[j]
	}
	return out
}

// The evaluation depends on income being learnable from the features; these
// correlations are the signal the regressions pick up.
func TestIncomeSignalExists(t *testing.T) {
	for _, p := range Profiles() {
		ds := GenerateN(p, 20000, 3)
		income := append([]float64(nil), ds.Labels()...)
		if r := correlation(column(ds, AttrEducation), income); r < 0.15 {
			t.Errorf("%s: corr(education, income) = %v, want > 0.15", p.Name, r)
		}
		if r := correlation(column(ds, AttrHours), income); r < 0.10 {
			t.Errorf("%s: corr(hours, income) = %v, want > 0.10", p.Name, r)
		}
		if r := correlation(column(ds, AttrAutomobiles), income); r < 0.2 {
			t.Errorf("%s: corr(autos, income) = %v, want > 0.2 (autos derive from income)", p.Name, r)
		}
		if r := correlation(column(ds, AttrDisability), income); r > 0 {
			t.Errorf("%s: corr(disability, income) = %v, want negative", p.Name, r)
		}
	}
}

func TestIncomeThresholdRoughlyBalanced(t *testing.T) {
	for _, p := range Profiles() {
		ds := GenerateN(p, 20000, 5)
		bin := ds.BinarizeTarget(p.IncomeThreshold)
		var pos float64
		for i := 0; i < bin.N(); i++ {
			pos += bin.Label(i)
		}
		frac := pos / float64(bin.N())
		if frac < 0.25 || frac > 0.75 {
			t.Errorf("%s: positive fraction %v, want within [0.25, 0.75]", p.Name, frac)
		}
	}
}

func TestDimensionSubsets(t *testing.T) {
	subs := DimensionSubsets()
	s := US().Schema()
	for _, dim := range Dimensionalities() {
		names, ok := subs[dim]
		if !ok {
			t.Fatalf("missing subset for dim %d", dim)
		}
		// Dimensionality counts the target attribute (paper §7).
		if len(names)+1 != dim {
			t.Errorf("dim %d subset has %d features, want %d", dim, len(names), dim-1)
		}
		if _, err := s.Project(names); err != nil {
			t.Errorf("dim %d: %v", dim, err)
		}
	}
	// Subsets must be nested as in the paper.
	for i := 1; i < len(Dimensionalities()); i++ {
		small := subs[Dimensionalities()[i-1]]
		large := subs[Dimensionalities()[i]]
		for k, n := range small {
			if large[k] != n {
				t.Errorf("subset %d is not a prefix of subset %d", Dimensionalities()[i-1], Dimensionalities()[i])
			}
		}
	}
}

func TestGenerateFullSizeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-cardinality generation in -short mode")
	}
	ds := GenerateN(Brazil(), Brazil().Records, 1)
	if ds.N() != 190000 {
		t.Fatalf("N = %d, want 190000", ds.N())
	}
}

func TestGenerateNRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	GenerateN(US(), 0, 1)
}

func TestNormalizationPipelineOnCensus(t *testing.T) {
	ds := GenerateN(US(), 1000, 17)
	nz := dataset.NewNormalizer(ds.Schema)
	norm := nz.NormalizeForLinear(ds)
	for i := 0; i < norm.N(); i++ {
		var s float64
		for _, v := range norm.Row(i) {
			s += v * v
		}
		if !(s <= 1+1e-9) {
			t.Fatalf("normalized census record %d has ‖x‖² = %v, outside the unit sphere", i, s)
		}
	}
}
