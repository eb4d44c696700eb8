// Custom objective: the functional mechanism beyond the two case studies.
// Algorithm 1 applies to *any* analysis whose objective is a finite
// polynomial of the model parameters (paper §4.1); this example privatizes a
// robust-flavoured quartic location estimator
//
//	f_D(θ) = Σᵢ ((tᵢ − θ)² + c·(tᵢ − θ)⁴)
//
// which has no closed-form release and is not covered by the linear/logistic
// fast paths. We expand it into monomial coefficients, bound the per-tuple
// coefficient mass analytically, and hand it to core.RunGeneral.
//
// This example uses the internal packages directly — the public façade
// covers the paper's two regressions; the general mechanism is the research
// surface underneath.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"funcmech/internal/core"
	"funcmech/internal/noise"
	"funcmech/internal/poly"
)

const quarticWeight = 0.5 // c in the objective

// tupleObjective expands ((t−θ)² + c(t−θ)⁴) into powers of θ for one tuple
// with |t| ≤ 1.
func tupleObjective(t float64) *poly.Polynomial {
	p := poly.NewPolynomial(1)
	// (t−θ)² = t² − 2tθ + θ².
	p.AddTerm(poly.NewMonomial([]int{0}), t*t)
	p.AddTerm(poly.NewMonomial([]int{1}), -2*t)
	p.AddTerm(poly.NewMonomial([]int{2}), 1)
	// c(t−θ)⁴ = c(t⁴ − 4t³θ + 6t²θ² − 4tθ³ + θ⁴).
	c := quarticWeight
	p.AddTerm(poly.NewMonomial([]int{0}), c*t*t*t*t)
	p.AddTerm(poly.NewMonomial([]int{1}), -4*c*t*t*t)
	p.AddTerm(poly.NewMonomial([]int{2}), 6*c*t*t)
	p.AddTerm(poly.NewMonomial([]int{3}), -4*c*t)
	p.AddTerm(poly.NewMonomial([]int{4}), c)
	return p
}

// sensitivity bounds 2·max_t Σ_φ |λ_φt| for |t| ≤ 1:
// (t² + 2|t| + 1) + c(t⁴ + 4|t|³ + 6t² + 4|t| + 1) ≤ 4 + 16c.
func sensitivity() float64 { return 2 * (4 + 16*quarticWeight) }

func main() {
	rng := rand.New(rand.NewSource(5))
	truth := 0.3
	objective := poly.NewPolynomial(1)
	const n = 50000
	for i := 0; i < n; i++ {
		t := truth + 0.2*rng.NormFloat64()
		if t > 1 {
			t = 1
		}
		if t < -1 {
			t = -1
		}
		objective.Add(tupleObjective(t))
	}

	fmt.Printf("private quartic location estimation, n=%d, true θ=%.2f\n", n, truth)
	fmt.Printf("objective: %d monomials up to degree %d, Δ=%.0f\n\n",
		objective.NumTerms(), objective.Degree(), sensitivity())

	for _, eps := range []float64{0.1, 0.8, 3.2} {
		res, err := core.RunGeneral(objective, sensitivity(), eps, noise.NewRand(9))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ε=%-5.1f θ̂=%+.4f  (noise scale %.0f over %d coefficients)\n",
			eps, res.Weights[0], res.NoiseScale, res.Coefficients)
	}
}
