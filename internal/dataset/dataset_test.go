package dataset

import (
	"math"
	"math/rand"
	"testing"
)

func testSchema() *Schema {
	return &Schema{
		Features: []Attribute{
			{Name: "age", Min: 16, Max: 95},
			{Name: "hours", Min: 0, Max: 99},
		},
		Target: Attribute{Name: "income", Min: 0, Max: 500000},
	}
}

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	ds := New(testSchema())
	ds.Append([]float64{30, 40}, 50000)
	ds.Append([]float64{50, 20}, 80000)
	ds.Append([]float64{70, 0}, 20000)
	return ds
}

func TestAppendAndAccessors(t *testing.T) {
	ds := smallDataset(t)
	if ds.N() != 3 || ds.D() != 2 {
		t.Fatalf("N=%d D=%d", ds.N(), ds.D())
	}
	if ds.Row(1)[0] != 50 || ds.Label(2) != 20000 {
		t.Fatal("row/label access wrong")
	}
	if len(ds.Labels()) != 3 {
		t.Fatal("Labels length wrong")
	}
}

func TestAppendWrongWidthPanics(t *testing.T) {
	ds := New(testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-width row")
		}
	}()
	ds.Append([]float64{1}, 0)
}

func TestSubset(t *testing.T) {
	ds := smallDataset(t)
	sub := ds.Subset([]int{2, 0})
	if sub.N() != 2 || sub.Label(0) != 20000 || sub.Label(1) != 50000 {
		t.Fatalf("Subset wrong: %v", sub.Labels())
	}
}

func TestSubsetOutOfRangePanics(t *testing.T) {
	ds := smallDataset(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad index")
		}
	}()
	ds.Subset([]int{5})
}

func TestSampleRateOne(t *testing.T) {
	ds := smallDataset(t)
	s := ds.Sample(rand.New(rand.NewSource(1)), 1)
	if s.N() != 3 {
		t.Fatalf("rate-1 sample N=%d", s.N())
	}
}

func TestSampleSize(t *testing.T) {
	sch := testSchema()
	ds := NewWithCapacity(sch, 1000)
	for i := 0; i < 1000; i++ {
		ds.Append([]float64{float64(i%80 + 16), 40}, float64(i))
	}
	s := ds.Sample(rand.New(rand.NewSource(2)), 0.3)
	if s.N() != 300 {
		t.Fatalf("sample N=%d, want 300", s.N())
	}
	// Relative order preserved.
	for i := 1; i < s.N(); i++ {
		if s.Label(i) <= s.Label(i-1) {
			t.Fatal("sample did not preserve record order")
		}
	}
}

func TestSampleMinimumOne(t *testing.T) {
	ds := smallDataset(t)
	if got := ds.Sample(rand.New(rand.NewSource(3)), 0.01).N(); got != 1 {
		t.Fatalf("tiny-rate sample N=%d, want 1", got)
	}
}

func TestSampleBadRatePanics(t *testing.T) {
	ds := smallDataset(t)
	for _, rate := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v did not panic", rate)
				}
			}()
			ds.Sample(rand.New(rand.NewSource(1)), rate)
		}()
	}
}

func TestProject(t *testing.T) {
	ds := smallDataset(t)
	p, err := ds.Project([]string{"hours"})
	if err != nil {
		t.Fatal(err)
	}
	if p.D() != 1 || p.Row(0)[0] != 40 || p.Label(0) != 50000 {
		t.Fatalf("Project wrong: %v %v", p.Row(0), p.Label(0))
	}
}

func TestProjectUnknownFeature(t *testing.T) {
	ds := smallDataset(t)
	if _, err := ds.Project([]string{"nope"}); err == nil {
		t.Fatal("expected error for unknown feature")
	}
}

func TestBinarizeTarget(t *testing.T) {
	ds := smallDataset(t)
	b := ds.BinarizeTarget(45000)
	want := []float64{1, 1, 0}
	for i, w := range want {
		if b.Label(i) != w {
			t.Fatalf("binarized label %d = %v, want %v", i, b.Label(i), w)
		}
	}
	if b.Schema.Target.Min != 0 || b.Schema.Target.Max != 1 {
		t.Fatal("binarized target domain not {0,1}")
	}
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		name string
		s    *Schema
	}{
		{"no features", &Schema{Target: Attribute{Name: "y", Min: 0, Max: 1}}},
		{"empty domain", &Schema{
			Features: []Attribute{{Name: "a", Min: 1, Max: 1}},
			Target:   Attribute{Name: "y", Min: 0, Max: 1},
		}},
		{"dup names", &Schema{
			Features: []Attribute{{Name: "a", Min: 0, Max: 1}, {Name: "a", Min: 0, Max: 1}},
			Target:   Attribute{Name: "y", Min: 0, Max: 1},
		}},
		{"target collision", &Schema{
			Features: []Attribute{{Name: "y", Min: 0, Max: 1}},
			Target:   Attribute{Name: "y", Min: 0, Max: 1},
		}},
		{"unnamed", &Schema{
			Features: []Attribute{{Name: "", Min: 0, Max: 1}},
			Target:   Attribute{Name: "y", Min: 0, Max: 1},
		}},
		// The record rule would compute (v − Min) or 2·(v − Min) as +Inf,
		// and a feature or label of NaN or Inf, from a value in the domain.
		{"domain too wide", &Schema{
			Features: []Attribute{{Name: "a", Min: -1e308, Max: 1e308}},
			Target:   Attribute{Name: "y", Min: 0, Max: 1},
		}},
		{"target domain too wide", &Schema{
			Features: []Attribute{{Name: "a", Min: 0, Max: 1}},
			Target:   Attribute{Name: "y", Min: 0, Max: math.MaxFloat64},
		}},
		{"infinite bound", &Schema{
			Features: []Attribute{{Name: "a", Min: math.Inf(-1), Max: 0}},
			Target:   Attribute{Name: "y", Min: 0, Max: 1},
		}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	if err := testSchema().Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema()
	p, err := s.Project([]string{"hours", "age"})
	if err != nil {
		t.Fatal(err)
	}
	if p.D() != 2 || p.Features[0].Name != "hours" {
		t.Fatalf("Project order wrong: %v", p.Features)
	}
	if _, err := s.Project([]string{"zzz"}); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestSchemaFeatureIndex(t *testing.T) {
	s := testSchema()
	if s.FeatureIndex("hours") != 1 || s.FeatureIndex("nope") != -1 {
		t.Fatal("FeatureIndex wrong")
	}
}
