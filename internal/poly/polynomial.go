package poly

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Term is a coefficient attached to a monomial: λ_φ·φ(ω).
type Term struct {
	Mono Monomial
	Coef float64
}

// Polynomial is a sparse multivariate polynomial over d model parameters —
// the representation Algorithm 1 perturbs. Terms with zero coefficient are
// pruned lazily; use Terms for a canonical ordering.
type Polynomial struct {
	d     int
	terms map[string]Term
}

// NewPolynomial returns the zero polynomial over d variables.
func NewPolynomial(d int) *Polynomial {
	if d <= 0 {
		panic(fmt.Sprintf("poly: NewPolynomial with d=%d", d))
	}
	return &Polynomial{d: d, terms: make(map[string]Term)}
}

// NumVars returns the number of model parameters d.
func (p *Polynomial) NumVars() int { return p.d }

// AddTerm adds c·φ to the polynomial.
func (p *Polynomial) AddTerm(m Monomial, c float64) *Polynomial {
	if m.NumVars() != p.d {
		panic(fmt.Sprintf("poly: monomial over %d variables added to %d-variable polynomial", m.NumVars(), p.d))
	}
	k := m.Key()
	t, ok := p.terms[k]
	if !ok {
		t = Term{Mono: m}
	}
	t.Coef += c
	if t.Coef == 0 {
		delete(p.terms, k)
		return p
	}
	p.terms[k] = t
	return p
}

// Coef returns the coefficient of φ (zero when absent).
func (p *Polynomial) Coef(m Monomial) float64 {
	return p.terms[m.Key()].Coef
}

// NumTerms returns the number of stored (nonzero) terms.
func (p *Polynomial) NumTerms() int { return len(p.terms) }

// Degree returns the maximum monomial degree J (zero polynomial → 0).
func (p *Polynomial) Degree() int {
	deg := 0
	for _, t := range p.terms {
		if d := t.Mono.Degree(); d > deg {
			deg = d
		}
	}
	return deg
}

// Terms returns the terms sorted by (degree, key) — a deterministic order so
// that noise injection consumes the random stream reproducibly.
func (p *Polynomial) Terms() []Term {
	out := make([]Term, 0, len(p.terms))
	for _, t := range p.terms {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Mono.Degree(), out[j].Mono.Degree()
		if di != dj {
			return di < dj
		}
		return out[i].Mono.Key() < out[j].Mono.Key()
	})
	return out
}

// Eval returns f(ω). It folds over the sorted Terms view, not the term map:
// float addition is not associative, so summing in map order would make the
// result depend on Go's randomized iteration.
func (p *Polynomial) Eval(w []float64) float64 {
	var s float64
	for _, t := range p.Terms() {
		s += t.Coef * t.Mono.Eval(w)
	}
	return s
}

// Gradient returns ∇f(ω) computed from the analytic term derivatives,
// folding in sorted term order for run-to-run bit identity.
func (p *Polynomial) Gradient(w []float64) []float64 {
	if len(w) != p.d {
		panic(fmt.Sprintf("poly: Gradient with %d-vector on %d-variable polynomial", len(w), p.d))
	}
	g := make([]float64, p.d)
	for _, t := range p.Terms() {
		for i := 0; i < p.d; i++ {
			if t.Mono.Exponent(i) == 0 {
				continue
			}
			dm, mult := t.Mono.Derivative(i)
			g[i] += t.Coef * mult * dm.Eval(w)
		}
	}
	return g
}

// Add accumulates q into p in place and returns p.
func (p *Polynomial) Add(q *Polynomial) *Polynomial {
	if q.d != p.d {
		panic(fmt.Sprintf("poly: Add of polynomials over %d and %d variables", p.d, q.d))
	}
	for _, t := range q.terms {
		p.AddTerm(t.Mono, t.Coef)
	}
	return p
}

// Scale multiplies every coefficient by c in place and returns p.
func (p *Polynomial) Scale(c float64) *Polynomial {
	if c == 0 {
		p.terms = make(map[string]Term)
		return p
	}
	for k, t := range p.terms {
		t.Coef *= c
		p.terms[k] = t
	}
	return p
}

// Mul returns the product polynomial p·q as a new polynomial.
func (p *Polynomial) Mul(q *Polynomial) *Polynomial {
	if q.d != p.d {
		panic(fmt.Sprintf("poly: Mul of polynomials over %d and %d variables", p.d, q.d))
	}
	out := NewPolynomial(p.d)
	for _, a := range p.terms {
		for _, b := range q.terms {
			out.AddTerm(a.Mono.Mul(b.Mono), a.Coef*b.Coef)
		}
	}
	return out
}

// Clone returns a deep copy.
func (p *Polynomial) Clone() *Polynomial {
	out := NewPolynomial(p.d)
	for k, t := range p.terms {
		out.terms[k] = t
	}
	return out
}

// CoefL1Norm returns Σ_φ |λ_φ| over all terms of degree ≥ minDegree. With
// minDegree = 1 this is exactly the inner sum of the sensitivity bound in
// Algorithm 1, line 1 (the paper's Δ sums over j ≥ 1).
// The fold runs in sorted term order so the sensitivity — which scales the
// released noise — is itself bit-identical across runs.
func (p *Polynomial) CoefL1Norm(minDegree int) float64 {
	var s float64
	for _, t := range p.Terms() {
		if t.Mono.Degree() >= minDegree {
			s += math.Abs(t.Coef)
		}
	}
	return s
}

// EqualApprox reports whether p and q have the same variables and all
// coefficients agree within tol (terms absent on one side count as zero).
func (p *Polynomial) EqualApprox(q *Polynomial, tol float64) bool {
	if p.d != q.d {
		return false
	}
	for k, t := range p.terms {
		if math.Abs(t.Coef-q.terms[k].Coef) > tol {
			return false
		}
	}
	for k, t := range q.terms {
		if _, ok := p.terms[k]; !ok && math.Abs(t.Coef) > tol {
			return false
		}
	}
	return true
}

// String renders the polynomial with terms in canonical order.
func (p *Polynomial) String() string {
	ts := p.Terms()
	if len(ts) == 0 {
		return "0"
	}
	var sb strings.Builder
	for i, t := range ts {
		if i > 0 {
			sb.WriteString(" + ")
		}
		fmt.Fprintf(&sb, "%.6g·%s", t.Coef, t.Mono)
	}
	return sb.String()
}
