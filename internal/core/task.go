// Package core implements the paper's contribution: the Functional
// Mechanism (FM), which achieves ε-differential privacy for
// optimization-based analyses by perturbing the polynomial coefficients of
// the objective function rather than its result.
//
// The pipeline is exactly the paper's:
//
//   - A Task supplies the per-record coefficients (c0, c1, c2) of its
//     degree-2 polynomial objective — exact for linear regression (§4.2),
//     the truncated Taylor expansion of Algorithm 2 for logistic regression
//     (§5) — together with its analytic sensitivity
//     Δ = 2·max_t Σⱼ Σ_{φ∈Φⱼ} |λ_φt|. One blocked SYRK fold
//     (Accumulator) turns the coefficients of every record into f̂_D(ω).
//   - Perturb draws one Lap(Δ/ε) variate per monomial of the complete
//     degree-≤2 basis (Algorithm 1, lines 2–7). The quadratic part is
//     perturbed per unique monomial and mirrored across the matrix diagonal
//     (§6.1).
//   - Post-processing repairs unbounded noisy objectives without touching
//     the data again: ridge regularization with λ = 4·sd(noise) (§6.1),
//     spectral trimming of non-positive eigenvalues (§6.2), or the Lemma 5
//     resampling variant at doubled privacy cost.
package core

import (
	"math"

	"funcmech/internal/poly"
)

// Task describes one regression family to the mechanism: the per-record
// coefficients of its (possibly approximated) degree-2 objective, the
// data-independent terms that finish it, and the analytic sensitivity of its
// coefficients.
//
// Every objective this package releases is a sum over records of a degree-2
// polynomial in t = xᵀω, so a record (x, y) contributes c0 to β, c1·x to α
// and c2·x·xᵀ to M, with (c0, c1, c2) a function of y alone. The
// accumulator's one fold (foldBlock) needs nothing else from a task.
//
// Sensitivity must be a data-independent function of the dimensionality —
// computing it from the records would itself leak — which is why each task
// carries the paper's closed-form bound. The bound holds for records in the
// normalized domain, ‖x‖₂ ≤ 1 with the label in the range of the task's
// target rule; the record rule (dataset.Normalizer) puts every record it
// accepts there, under the rule its task-table row names (TaskSpec.Target).
type Task interface {
	// Name identifies the task ("linear", "logistic").
	Name() string
	// Sensitivity returns Δ for feature dimensionality d.
	Sensitivity(d int) float64
	// Coefficients returns the per-record coefficients for label y: the
	// record adds c0 to β, c1·x to α and c2·x·xᵀ to M.
	Coefficients(y float64) (c0, c1, c2 float64)
	// FinalizeObjective applies the data-independent terms that depend only
	// on the record count n (e.g. the logistic n·log 2 constant, the ridge
	// penalty) and any constant factor on M (logistic's ⅛), after the
	// accumulated matrix has been mirrored to full symmetric form.
	FinalizeObjective(q *poly.Quadratic, n int)
}

// BlockTask is the name Task had while the block fold was an optional
// extension of it. It remains only for perfbench/trace.go, which declares a
// field of this type; the next change to the benchmark deletes it.
type BlockTask = Task

// LinearTask is least-squares linear regression (Definition 1).
type LinearTask struct{}

// Name implements Task.
func (LinearTask) Name() string { return TaskNameLinear }

// Sensitivity returns the paper's §4.2 bound Δ = 2(1+2d+d²) = 2(d+1)².
func (LinearTask) Sensitivity(d int) float64 {
	dd := float64(d)
	return 2 * (dd + 1) * (dd + 1)
}

// Coefficients implements Task with the exact quadratic of §4.2,
// (yᵢ − xᵢᵀω)² = yᵢ² − 2yᵢ·xᵢᵀω + ωᵀxᵢxᵢᵀω, so that M = XᵀX, α = −2Xᵀy,
// β = Σyᵢ².
func (LinearTask) Coefficients(y float64) (c0, c1, c2 float64) {
	return y * y, -2 * y, 1
}

// FinalizeObjective implements Task; the linear objective has no
// per-dataset terms.
func (LinearTask) FinalizeObjective(*poly.Quadratic, int) {}

// LogisticTask is logistic regression (Definition 2) through the order-2
// Taylor truncation of Algorithm 2. Its per-record c2 is 1, so its
// unfinalized M is the Gram XᵀX that linear regression folds too, and the
// ⅛ of §5.3 lives in FinalizeObjective, beside the n·log 2 constant.
type LogisticTask struct{}

// Name implements Task.
func (LogisticTask) Name() string { return TaskNameLogistic }

// Sensitivity returns the paper's §5.3 bound Δ = d²/4 + 3d.
func (LogisticTask) Sensitivity(d int) float64 {
	dd := float64(d)
	return dd*dd/4 + 3*dd
}

// logisticCurvature is ½·f₁⁽²⁾(0) = ⅛, the factor on XᵀX in the truncated
// objective.
const logisticCurvature = 0.125

// Coefficients implements Task with the truncated objective of §5.3:
// M = ⅛·XᵀX, α = Σᵢ(½−yᵢ)xᵢ, β = n·log 2, from the Taylor values
// f₁⁽⁰⁾(0)=log 2, f₁⁽¹⁾(0)=½, f₁⁽²⁾(0)=¼. A record contributes x·xᵀ to M
// (c2 = 1) and nothing to β: the ⅛ and the n·log 2 are data-independent,
// so FinalizeObjective applies both.
func (LogisticTask) Coefficients(y float64) (c0, c1, c2 float64) {
	return 0, 0.5 - y, 1
}

// FinalizeObjective implements Task: M = ⅛·XᵀX and β = n·log 2. The ⅛ =
// 2⁻³ scales the summed Gram, which rounds exactly like a per-record
// (⅛·xₐ)·x_b wherever no product and no partial sum is subnormal. The
// constant is n·log 2 rather than a per-record sum, because Σ log 2 over n
// records is not bitwise n·log 2.
func (LogisticTask) FinalizeObjective(q *poly.Quadratic, n int) {
	q.M.ScaleMat(logisticCurvature)
	q.Beta += float64(n) * math.Ln2
}

// TupleCoefL1 returns Σⱼ Σ_{φ∈Φⱼ} |λ_φt| for a single tuple under the given
// task — the quantity whose doubled maximum is Δ (Algorithm 1, line 1).
// The monomial ωᵢωⱼ (i < j) has coefficient M[i][j] + M[j][i], as in
// Quadratic.ToPolynomial. Exposed for tests, which verify that every task's
// Δ dominates 2× this value over random and adversarial in-sphere tuples.
func TupleCoefL1(task Task, x []float64, y float64) float64 {
	a := NewAccumulator(task, len(x))
	a.AddFlat(x, []float64{y})
	q := a.Quadratic()
	s := math.Abs(q.Beta)
	for i, ai := range q.Alpha {
		s += math.Abs(ai) + math.Abs(q.M.At(i, i))
		for j := i + 1; j < len(q.Alpha); j++ {
			s += math.Abs(q.M.At(i, j) + q.M.At(j, i))
		}
	}
	return s
}
