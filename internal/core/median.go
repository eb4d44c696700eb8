package core

import (
	"math"

	"funcmech/internal/poly"
)

// MedianTask is ε-differentially private median regression through the
// functional mechanism, following the smoothed-L1 route of Chen, Miao &
// Tang, "Differentially private median regression" (2020): the absolute
// deviation |y − xᵀω| that defines median regression is not twice
// differentiable at zero, so it is smoothed to the pseudo-Huber loss
//
//	g(t) = √((y − t)² + μ²),  t = xᵀω,
//
// which is C^∞, strictly convex in t, and within μ of |y − t| everywhere.
// Algorithm 2's order-2 Taylor expansion of g at t = 0 then yields a
// degree-2 polynomial objective that flows through the exact same
// perturb-and-minimize release path as the other tasks:
//
//	g(0)   = √(y² + μ²)                    → β
//	g′(0)  = −y / √(y² + μ²)               → α (coefficient of each x_a)
//	g″(0)  = μ² / (y² + μ²)^{3/2}          → M (·½ on each x_a·x_b)
//
// Sensitivity. With ‖x‖₂ ≤ 1 (so |x_a| ≤ 1) and y ∈ [−1, 1] (the same
// domain as LinearTask's: the record rule under the normalized target rule
// its task-table row names puts every record there), the per-tuple
// coefficient L1 norm is bounded term by term:
//
//	|g(0)|        ≤ √(1 + μ²)              (one constant monomial)
//	|g′(0)·x_a|   ≤ 1                      (d degree-1 monomials; |g′| < 1)
//	|½g″(0)·x_ax_b| ≤ 1/(2μ)               (d² degree-2 monomials; g″ ≤ 1/μ,
//	                                        maximized at y = 0)
//
// so Δ = 2·max_t Σ|λ_φt| = 2(√(1+μ²) + d + d²/(2μ)). The smoothing scale
// trades approximation bias (g is within μ of the absolute loss) against
// noise (Δ grows as 1/μ); μ = ½ keeps the degree-2 coefficient bound at 1,
// matching LinearTask's, so the median release is no noisier per monomial
// than the linear one.
//
// MedianTask is one row of the task table (registry.go) and names itself
// nowhere else: it reached every layer above core through that row alone.
type MedianTask struct{}

// medianSmoothing is μ, the pseudo-Huber smoothing scale.
const medianSmoothing = 0.5

// medianSmoothing2 is μ², the form the Taylor coefficients consume.
const medianSmoothing2 = medianSmoothing * medianSmoothing

// Name implements Task.
func (MedianTask) Name() string { return TaskNameMedian }

// Sensitivity returns Δ = 2(√(1+μ²) + d + d²/(2μ)); see the type comment
// for the derivation.
func (MedianTask) Sensitivity(d int) float64 {
	dd := float64(d)
	return 2 * (math.Sqrt(1+medianSmoothing2) + dd + dd*dd/(2*medianSmoothing))
}

// Coefficients implements Task with the Taylor coefficients from the type
// comment: (g(0), g′(0), ½g″(0)) with s = √(y²+μ²). Unlike the other tasks
// the curvature is data-dependent (it shrinks as |y| grows), so the fold
// scales each record's row of the SYRK left operand by its own c2.
func (MedianTask) Coefficients(y float64) (c0, c1, c2 float64) {
	s := math.Sqrt(y*y + medianSmoothing2)
	return s, -y / s, medianSmoothing2 / (s * s * s) / 2
}

// FinalizeObjective implements Task; every term of the median objective is
// per-record.
func (MedianTask) FinalizeObjective(*poly.Quadratic, int) {}
