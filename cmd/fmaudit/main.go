// Command fmaudit empirically audits the functional mechanism's privacy
// calibration: it runs the coefficient-perturbation step on two worst-case
// neighbor databases, histograms a released coefficient, and reports the
// worst observed log-probability ratio against the claimed ε.
//
// The neighbor pair is chosen adversarially for maximum power: a
// one-dimensional dataset where the replaced tuple flips (x=1, y=−1) to
// (x=1, y=+1), moving the linear coefficient −2Σyx by the largest amount a
// single record can (4, against sensitivity Δ=8). A healthy mechanism stays
// below ε plus sampling slack; -break under-scales the noise 4× the way a
// sensitivity bug would, and the audit flags it.
//
// Usage:
//
//	fmaudit -epsilon=1.0 -trials=300000
//	fmaudit -epsilon=1.0 -break        # exits 1 with verdict FAIL
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/noise"
	"funcmech/internal/privacytest"
)

func main() {
	var (
		eps      = flag.Float64("epsilon", 1.0, "claimed privacy budget ε")
		trials   = flag.Int("trials", 300000, "mechanism invocations per database")
		seed     = flag.Int64("seed", 1, "audit seed")
		breakIt  = flag.Bool("break", false, "under-scale the noise 4× to demonstrate a detectable violation")
		minCount = flag.Int("mincount", 200, "per-bin count floor for the ratio estimate")
	)
	flag.Parse()

	task := core.LinearTask{}
	delta := task.Sensitivity(1) // 2(d+1)² = 8 at d=1
	if err := noise.CheckScale(delta, *eps); err != nil {
		fail(err)
	}
	scale := noise.NewLaplace(delta, *eps)
	if *breakIt {
		scale = noise.Laplace{Scale: scale.Scale / 4}
		fmt.Println("auditing a deliberately broken mechanism (noise under-scaled 4×)")
	}

	mech := func(lastY float64) privacytest.Mechanism {
		q := core.ParallelObjective(task, worstCaseData(lastY), 1)
		return func(rng *rand.Rand) float64 {
			// Release the linear coefficient −2Σyᵢxᵢ, the one the flipped
			// label moves by 4.
			return core.Perturb(q, scale, rng).Alpha[0]
		}
	}

	lo, hi := -12*scale.Scale, 12*scale.Scale
	opt := privacytest.Options{Trials: *trials, Lo: lo, Hi: hi, MinCount: *minCount}
	got, err := privacytest.MaxLogRatio(mech(-1), mech(1), noise.NewRand(*seed), opt)
	if err != nil {
		fail(err)
	}
	slack := 3 * privacytest.Slack(opt)
	fmt.Printf("sensitivity Δ:             %.4f\n", delta)
	fmt.Printf("noise scale:               %.4f\n", scale.Scale)
	fmt.Printf("claimed ε:                 %.4f\n", *eps)
	fmt.Printf("worst observed log-ratio:  %.4f\n", got)
	fmt.Printf("sampling slack (3σ):       %.4f\n", slack)
	if got <= *eps+slack {
		fmt.Println("verdict: PASS — consistent with the claimed ε")
		return
	}
	fmt.Println("verdict: FAIL — observed ratio exceeds the claimed ε")
	os.Exit(1)
}

// worstCaseData builds the audited database; only the last tuple's label
// differs between the two neighbors.
func worstCaseData(lastY float64) *dataset.Dataset {
	s := &dataset.Schema{
		Features: []dataset.Attribute{{Name: "x", Min: -1, Max: 1}},
		Target:   dataset.Attribute{Name: "y", Min: -1, Max: 1},
	}
	ds := dataset.New(s)
	ds.Append([]float64{0.5}, 0.2)
	ds.Append([]float64{-0.3}, 0.1)
	ds.Append([]float64{1}, lastY)
	return ds
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "fmaudit: %v\n", err)
	os.Exit(1)
}
