// Package noise provides the calibrated randomness used by every
// differentially private mechanism in this repository: a Laplace sampler with
// the exact Lap(s) semantics of Dwork et al. (paper §3), the one rule for a
// usable privacy budget (CheckEpsilon) beside the calibration it protects,
// and the random sources the samplers draw from. The accountant that composes
// releases is funcmech.Session.
package noise

import (
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
)

// ErrInvalidSpend marks an ε that CheckEpsilon refuses. It is typed so a
// serving layer can map it to a client error (the request was malformed)
// instead of a server failure or an exhausted budget.
var ErrInvalidSpend = errors.New("noise: invalid spend")

// CheckEpsilon is the one rule for a usable privacy budget: ε must be finite
// and positive. Lap(Δ/ε) is calibrated only for such an ε — +Inf would give
// a zero scale, a release with no noise at all, and NaN, zero or a negative
// ε no scale. Every ε a release spends and every lifetime total an
// accountant holds is checked here; the error wraps ErrInvalidSpend.
func CheckEpsilon(eps float64) error {
	if eps > 0 && !math.IsInf(eps, 1) { // NaN fails eps > 0
		return nil
	}
	return fmt.Errorf("%w: ε = %v, need a finite ε > 0", ErrInvalidSpend, eps)
}

// CheckScale is CheckEpsilon for a query of sensitivity s, which every
// release applies once it knows Δ: the scale s/ε must also be finite and
// positive. An ε below s/MaxFloat64 passes CheckEpsilon, but every draw at
// its scale, +Inf, is infinite. The error wraps ErrInvalidSpend.
func CheckScale(s, eps float64) error {
	if err := CheckEpsilon(eps); err != nil {
		return err
	}
	if b := s / eps; !(b > 0) || math.IsInf(b, 1) {
		return fmt.Errorf("%w: ε = %v gives Laplace scale Δ/ε = %v at Δ = %v, need a finite scale > 0", ErrInvalidSpend, eps, b, s)
	}
	return nil
}

// Laplace is a zero-mean Laplace distribution with scale b:
//
//	pdf(x) = 1/(2b) · exp(−|x|/b)
//
// as used by the Laplace mechanism: to answer a query with L1 sensitivity S
// under ε-differential privacy, draw with b = S/ε.
type Laplace struct {
	// Scale is the diversity b; must be finite and positive.
	Scale float64
}

// NewLaplace returns the Laplace distribution calibrated for a query of L1
// sensitivity s under privacy budget eps, i.e. scale s/eps. It panics for a
// non-positive s or an eps CheckScale refuses: the releases check ε before
// they touch data, so reaching here with one is a programming error.
func NewLaplace(s, eps float64) Laplace {
	if CheckScale(s, eps) != nil {
		panic(fmt.Sprintf("noise: invalid Laplace calibration sensitivity=%v eps=%v", s, eps))
	}
	return Laplace{Scale: s / eps}
}

// Sample draws one variate using inverse-CDF sampling; it panics at a scale
// that is not finite and positive.
func (l Laplace) Sample(rng *rand.Rand) float64 {
	if !(l.Scale > 0) || math.IsInf(l.Scale, 1) {
		panic(fmt.Sprintf("noise: Laplace scale %v is not finite and positive", l.Scale))
	}
	// u uniform on (-1/2, 1/2); x = -b·sgn(u)·ln(1-2|u|).
	u := rng.Float64() - 0.5
	for u == -0.5 { // Float64 returns [0,1); exclude the single atom at -1/2.
		u = rng.Float64() - 0.5
	}
	return -l.Scale * sign(u) * math.Log1p(-2*math.Abs(u))
}

// SampleVec fills out with independent draws and returns it.
func (l Laplace) SampleVec(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = l.Sample(rng)
	}
	return out
}

// CDF returns P(X ≤ x).
func (l Laplace) CDF(x float64) float64 {
	if x < 0 {
		return 0.5 * math.Exp(x/l.Scale)
	}
	return 1 - 0.5*math.Exp(-x/l.Scale)
}

// Quantile returns the inverse CDF at p ∈ (0,1).
func (l Laplace) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("noise: Laplace quantile out of range p=%v", p))
	}
	if p < 0.5 {
		return l.Scale * math.Log(2*p)
	}
	return -l.Scale * math.Log(2*(1-p))
}

// StdDev returns the standard deviation √2·b. Paper §6.1 sets the
// regularization weight λ to four times this value.
func (l Laplace) StdDev() float64 { return math.Sqrt2 * l.Scale }

// Variance returns 2·b².
func (l Laplace) Variance() float64 { return 2 * l.Scale * l.Scale }

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// NewRand returns a deterministic *rand.Rand for the given seed. Every
// mechanism in this repository threads explicit randomness so that runs are
// reproducible; DP guarantees are stated with respect to an idealized uniform
// source, as is standard.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// NewUnseededRand returns the generator for a release no caller seeded: a
// math/rand/v2 ChaCha8 stream keyed with 32 bytes from crypto/rand, behind
// the *rand.Rand the samplers take. A math/rand source would not do: it
// reduces every seed modulo 2³¹−1, so an adversary who knows all records but
// one could test each of its fewer than 2³¹ noise streams against a
// release. It panics if the operating system cannot supply the key, because
// noise drawn from a guessable key would void the guarantee.
func NewUnseededRand() *rand.Rand {
	var key [32]byte
	if _, err := cryptorand.Read(key[:]); err != nil {
		panic(fmt.Sprintf("noise: keying the unseeded noise source: %v", err))
	}
	return rand.New(chachaSource{randv2.NewChaCha8(key)})
}

// chachaSource adapts ChaCha8 to math/rand's Source64. It cannot be
// reseeded: Seed panics rather than replace the key with a 63-bit one.
type chachaSource struct{ c *randv2.ChaCha8 }

func (s chachaSource) Uint64() uint64 { return s.c.Uint64() }

func (s chachaSource) Int63() int64 { return int64(s.c.Uint64() & (1<<63 - 1)) }

func (chachaSource) Seed(int64) { panic("noise: the unseeded noise source cannot be reseeded") }
