package noise

import (
	"errors"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewLaplaceCalibration(t *testing.T) {
	l := NewLaplace(8, 0.5)
	if l.Scale != 16 {
		t.Fatalf("Scale = %v, want 16", l.Scale)
	}
}

func TestNewLaplaceRejectsBadInput(t *testing.T) {
	for _, c := range []struct{ s, eps float64 }{
		{0, 1}, {1, 0}, {-1, 1}, {1, -2},
		{1, math.NaN()}, {1, math.Inf(1)}, {1, math.Inf(-1)},
		{8, 1e-320}, // a positive ε whose scale 8/ε overflows
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLaplace(%v,%v) did not panic", c.s, c.eps)
				}
			}()
			NewLaplace(c.s, c.eps)
		}()
	}
}

// TestLaplaceSampleRefusesUnusableScale: no draw runs at a scale that is not
// finite and positive.
func TestLaplaceSampleRefusesUnusableScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sample at scale %v did not panic", scale)
				}
			}()
			Laplace{Scale: scale}.Sample(NewRand(1))
		}()
	}
}

// TestCheckScale: CheckScale refuses what CheckEpsilon refuses, and a
// positive ε whose scale s/ε overflows, each wrapping ErrInvalidSpend.
func TestCheckScale(t *testing.T) {
	for _, c := range []struct{ s, eps float64 }{{8, 1}, {18, 1e-300}, {2, math.SmallestNonzeroFloat64 * 1e16}} {
		if err := CheckScale(c.s, c.eps); err != nil {
			t.Errorf("CheckScale(%v, %v) = %v, want nil", c.s, c.eps, err)
		}
	}
	for _, c := range []struct{ s, eps float64 }{{8, 0}, {8, math.NaN()}, {8, math.Inf(1)}, {18, 1e-320}, {2, math.SmallestNonzeroFloat64}} {
		if err := CheckScale(c.s, c.eps); !errors.Is(err, ErrInvalidSpend) {
			t.Errorf("CheckScale(%v, %v) = %v, want ErrInvalidSpend", c.s, c.eps, err)
		}
	}
}

func TestCheckEpsilon(t *testing.T) {
	for _, eps := range []float64{math.SmallestNonzeroFloat64, 0.1, 1, 1e6, math.MaxFloat64} {
		if err := CheckEpsilon(eps); err != nil {
			t.Errorf("CheckEpsilon(%v) = %v, want nil", eps, err)
		}
	}
	for _, eps := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckEpsilon(eps); !errors.Is(err, ErrInvalidSpend) {
			t.Errorf("CheckEpsilon(%v) = %v, want ErrInvalidSpend", eps, err)
		}
	}
}

func TestLaplaceMoments(t *testing.T) {
	const n = 200000
	l := Laplace{Scale: 3}
	rng := NewRand(42)
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := l.Sample(rng)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("sample mean = %v, want ≈ 0", mean)
	}
	if want := l.Variance(); math.Abs(variance-want)/want > 0.05 {
		t.Errorf("sample variance = %v, want ≈ %v", variance, want)
	}
}

func TestLaplaceMedianZero(t *testing.T) {
	const n = 100001
	l := Laplace{Scale: 5}
	rng := NewRand(7)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = l.Sample(rng)
	}
	sort.Float64s(xs)
	if med := xs[n/2]; math.Abs(med) > 0.1 {
		t.Fatalf("sample median = %v, want ≈ 0", med)
	}
}

func TestLaplaceCDFQuantileInverse(t *testing.T) {
	l := Laplace{Scale: 2.5}
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		q := l.Quantile(p)
		if got := l.CDF(q); math.Abs(got-p) > 1e-12 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestLaplaceStdDev(t *testing.T) {
	l := Laplace{Scale: 4}
	if got, want := l.StdDev(), 4*math.Sqrt2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", got, want)
	}
}

func TestSampleVecLength(t *testing.T) {
	l := Laplace{Scale: 1}
	v := l.SampleVec(NewRand(1), 17)
	if len(v) != 17 {
		t.Fatalf("len = %d, want 17", len(v))
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("NewRand not deterministic for equal seeds")
		}
	}
}

// Property: the empirical CDF at the theoretical quantile is close to p — a
// two-sided check of the sampler against the analytic distribution.
func TestLaplaceSamplerMatchesCDFProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := 0.5 + 5*rng.Float64()
		l := Laplace{Scale: scale}
		const n = 4000
		p := 0.1 + 0.8*rng.Float64()
		q := l.Quantile(p)
		count := 0
		for i := 0; i < n; i++ {
			if l.Sample(rng) <= q {
				count++
			}
		}
		emp := float64(count) / n
		return math.Abs(emp-p) < 0.04
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetry — negating the stream of uniforms flips the sample sign
// distributionally; check P(X>0) ≈ 1/2.
func TestLaplaceSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Laplace{Scale: 1 + rng.Float64()}
		const n = 4000
		pos := 0
		for i := 0; i < n; i++ {
			if l.Sample(rng) > 0 {
				pos++
			}
		}
		return math.Abs(float64(pos)/n-0.5) < 0.04
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLaplaceTailBound(t *testing.T) {
	// P(|X| > t·b) = exp(−t); at t=20 essentially never. Guard against a
	// sampler bug producing Inf from log(0).
	l := Laplace{Scale: 1}
	rng := NewRand(123)
	for i := 0; i < 1_000_000; i++ {
		x := l.Sample(rng)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("non-finite sample %v at i=%d", x, i)
		}
	}
}

// The unseeded generator draws from ChaCha8, not from a math/rand source:
// its source is the ChaCha8 adapter, and the adapter passes ChaCha8's
// stream through unchanged (Int63 drops the top bit, as math/rand's own
// source does).
func TestUnseededRandIsChaCha8(t *testing.T) {
	src := reflect.ValueOf(NewUnseededRand()).Elem().FieldByName("src").Elem().Type()
	if src != reflect.TypeOf(chachaSource{}) {
		t.Fatalf("unseeded source is %v, want the ChaCha8 adapter", src)
	}
	key := [32]byte{1, 2, 3}
	ref := randv2.NewChaCha8(key)
	s := chachaSource{randv2.NewChaCha8(key)}
	for i := 0; i < 64; i++ {
		want := ref.Uint64()
		if i%2 == 0 {
			if got := s.Uint64(); got != want {
				t.Fatalf("draw %d: Uint64 = %#x, want %#x", i, got, want)
			}
		} else if got := s.Int63(); got != int64(want&(1<<63-1)) {
			t.Fatalf("draw %d: Int63 = %#x, want %#x", i, got, want&(1<<63-1))
		}
	}
}

func TestUnseededRandInstancesDiffer(t *testing.T) {
	a, b := NewUnseededRand(), NewUnseededRand()
	if a.Uint64() == b.Uint64() {
		t.Fatal("two unseeded generators gave the same first draw")
	}
}

func TestUnseededRandSeedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Seed reseeded the unseeded generator")
		}
	}()
	NewUnseededRand().Seed(1)
}
