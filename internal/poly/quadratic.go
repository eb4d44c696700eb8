package poly

import (
	"fmt"

	"funcmech/internal/linalg"
)

// Quadratic is the dense degree-2 objective f(ω) = ωᵀMω + αᵀω + β that both
// case-study regressions reduce to (paper §4.2 for linear, §5.3 for
// logistic). M is kept symmetric by construction; the functional mechanism
// perturbs its upper triangle and mirrors (paper §6.1).
type Quadratic struct {
	M     *linalg.Matrix
	Alpha []float64
	Beta  float64
}

// NewQuadratic returns the zero quadratic over d variables.
func NewQuadratic(d int) *Quadratic {
	return &Quadratic{M: linalg.NewMatrix(d, d), Alpha: make([]float64, d)}
}

// Dim returns the number of model parameters d.
func (q *Quadratic) Dim() int { return len(q.Alpha) }

// Eval returns f(ω).
func (q *Quadratic) Eval(w []float64) float64 {
	return q.M.QuadraticForm(w) + linalg.Dot(q.Alpha, w) + q.Beta
}

// Gradient returns ∇f(ω) = 2Mω + α. M is symmetric by construction
// everywhere a Quadratic is built — the accumulator mirrors its upper
// triangle at finalize, Perturb splits cross-term noise across both mirrored
// entries, and QuadraticFromPolynomial splits cross-term coefficients evenly
// — so the general form (M+Mᵀ)ω collapses to 2Mω, a single matrix-vector
// product rather than one by M and one by Mᵀ. (The built-in solves
// go through the Cholesky closed form, not this gradient; the halved cost
// matters for callers that iterate, e.g. a gradient-descent solve over a
// dense quadratic.)
func (q *Quadratic) Gradient(w []float64) []float64 {
	g := q.M.MulVec(w)
	for i := range g {
		g[i] = 2*g[i] + q.Alpha[i]
	}
	return g
}

// Clone returns a deep copy.
func (q *Quadratic) Clone() *Quadratic {
	return &Quadratic{M: q.M.Clone(), Alpha: linalg.CloneVec(q.Alpha), Beta: q.Beta}
}

// MaterializeSymmetric finalizes a quadratic whose M carries only the upper
// triangle — the form the accumulation kernels maintain — into the full
// symmetric matrix every downstream consumer (Gradient, Perturb, the
// Cholesky solve) assumes, and returns q. The mirror is the cache-blocked
// linalg pass; as a pure copy it is exact, so finalization never perturbs
// the accumulated coefficients.
func (q *Quadratic) MaterializeSymmetric() *Quadratic {
	q.M.MirrorUpper()
	return q
}

// AddQuadratic accumulates o into q in place and returns q.
func (q *Quadratic) AddQuadratic(o *Quadratic) *Quadratic {
	if o.Dim() != q.Dim() {
		panic(fmt.Sprintf("poly: AddQuadratic dim mismatch %d vs %d", q.Dim(), o.Dim()))
	}
	q.M = q.M.AddMat(o.M)
	for i := range q.Alpha {
		q.Alpha[i] += o.Alpha[i]
	}
	q.Beta += o.Beta
	return q
}

// Merge accumulates o into q in place without allocating and returns q —
// the shard-combining primitive of the parallel objective accumulator.
// Unlike AddQuadratic it never clones the coefficient matrix, so merging k
// shard partials costs O(k·d²) time and zero garbage.
func (q *Quadratic) Merge(o *Quadratic) *Quadratic {
	return q.AddScaled(o, 1)
}

// AddScaled accumulates c·o into q in place and returns q.
func (q *Quadratic) AddScaled(o *Quadratic, c float64) *Quadratic {
	if o.Dim() != q.Dim() {
		panic(fmt.Sprintf("poly: AddScaled dim mismatch %d vs %d", q.Dim(), o.Dim()))
	}
	q.M.AddScaledMat(o.M, c)
	linalg.AXPY(c, o.Alpha, q.Alpha)
	q.Beta += c * o.Beta
	return q
}

// ToPolynomial converts to the sparse representation. Off-diagonal pairs
// (j,l) and (l,j) fold into the single monomial ω_jω_l with coefficient
// M[j][l]+M[l][j], matching the paper's Φ₂ = {ωᵢωⱼ} convention.
func (q *Quadratic) ToPolynomial() *Polynomial {
	d := q.Dim()
	p := NewPolynomial(d)
	if q.Beta != 0 {
		p.AddTerm(Constant(d), q.Beta)
	}
	for i, a := range q.Alpha {
		if a != 0 {
			p.AddTerm(Linear(d, i), a)
		}
	}
	for i := 0; i < d; i++ {
		if v := q.M.At(i, i); v != 0 {
			p.AddTerm(Product(d, i, i), v)
		}
		for j := i + 1; j < d; j++ {
			if v := q.M.At(i, j) + q.M.At(j, i); v != 0 {
				p.AddTerm(Product(d, i, j), v)
			}
		}
	}
	return p
}

// QuadraticFromPolynomial converts a degree-≤2 polynomial to the dense form,
// splitting each cross-term coefficient symmetrically across M[i][j] and
// M[j][i]. It returns an error for degree > 2.
func QuadraticFromPolynomial(p *Polynomial) (*Quadratic, error) {
	if p.Degree() > 2 {
		return nil, fmt.Errorf("poly: polynomial has degree %d > 2", p.Degree())
	}
	d := p.NumVars()
	q := NewQuadratic(d)
	for _, t := range p.Terms() {
		switch t.Mono.Degree() {
		case 0:
			q.Beta += t.Coef
		case 1:
			for i := 0; i < d; i++ {
				if t.Mono.Exponent(i) == 1 {
					q.Alpha[i] += t.Coef
					break
				}
			}
		case 2:
			i, j := quadIndices(t.Mono)
			if i == j {
				q.M.AddAt(i, i, t.Coef)
			} else {
				q.M.AddAt(i, j, t.Coef/2)
				q.M.AddAt(j, i, t.Coef/2)
			}
		}
	}
	return q, nil
}

// quadIndices returns the variable indices of a degree-2 monomial.
func quadIndices(m Monomial) (int, int) {
	i, j := -1, -1
	for v := 0; v < m.NumVars(); v++ {
		switch m.Exponent(v) {
		case 2:
			return v, v
		case 1:
			if i < 0 {
				i = v
			} else {
				j = v
			}
		}
	}
	return i, j
}
