package poly

import "funcmech/internal/linalg"

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
// triangle at finalize, and Perturb splits cross-term noise across both
// mirrored entries — so the general form (M+Mᵀ)ω collapses to 2Mω, a single matrix-vector
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
