package core

import (
	"math"
	"testing"

	"funcmech/internal/linalg"
	"funcmech/internal/noise"
)

func TestRidgeSensitivityMatchesLinear(t *testing.T) {
	for d := 1; d <= 14; d++ {
		if got, want := (RidgeTask{Weight: 5}).Sensitivity(d), (LinearTask{}).Sensitivity(d); got != want {
			t.Errorf("d=%d: ridge Δ %v != linear Δ %v", d, got, want)
		}
	}
}

func TestRidgeObjectiveAddsDiagonal(t *testing.T) {
	ds := figure2Dataset()
	plain := ParallelObjective(LinearTask{}, ds, 1)
	ridged := ParallelObjective(RidgeTask{Weight: 3}, ds, 1)
	if got, want := ridged.M.At(0, 0), plain.M.At(0, 0)+3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ridged M = %v, want %v", got, want)
	}
	if ridged.Alpha[0] != plain.Alpha[0] || ridged.Beta != plain.Beta {
		t.Fatal("ridge must not touch α or β")
	}
}

func TestRidgeShrinksWeights(t *testing.T) {
	ds := figure2Dataset()
	small, err := Run(RidgeTask{Weight: 0.01}, ds, 1e12, noise.NewRand(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(RidgeTask{Weight: 100}, ds, 1e12, noise.NewRand(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(large.Weights[0]) >= math.Abs(small.Weights[0]) {
		t.Fatalf("heavier penalty must shrink more: %v vs %v", large.Weights, small.Weights)
	}
}

func TestRidgeZeroWeightEqualsLinear(t *testing.T) {
	ds := figure2Dataset()
	a, err := Run(RidgeTask{}, ds, 1e12, noise.NewRand(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(LinearTask{}, ds, 1e12, noise.NewRand(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(a.Weights, b.Weights, 1e-12) {
		t.Fatalf("ridge(0) %v != linear %v", a.Weights, b.Weights)
	}
}

func TestRidgeClosedForm(t *testing.T) {
	// argmin Σ(y−xω)² + wω² = Σxy/(Σx² + w) in one dimension.
	ds := figure2Dataset()
	const weight = 2.5
	res, err := Run(RidgeTask{Weight: weight}, ds, 1e12, noise.NewRand(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.17 / (2.06 + weight)
	if math.Abs(res.Weights[0]-want) > 1e-6 {
		t.Fatalf("ridge argmin %v, want %v", res.Weights[0], want)
	}
}

func TestRidgeNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative ridge weight")
		}
	}()
	ParallelObjective(RidgeTask{Weight: -1}, figure2Dataset(), 1)
}

func TestRidgeStabilizesNoisyFit(t *testing.T) {
	// Under heavy noise, a statistical ridge reduces the variance of the
	// released model: mean ‖ω‖ should be smaller with the penalty.
	ds := figure2Dataset()
	var plain, ridged float64
	const reps = 40
	for seed := int64(0); seed < reps; seed++ {
		a, err := Run(LinearTask{}, ds, 0.5, noise.NewRand(seed), Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(RidgeTask{Weight: 20}, ds, 0.5, noise.NewRand(seed), Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain += linalg.Norm2(a.Weights)
		ridged += linalg.Norm2(b.Weights)
	}
	if ridged >= plain {
		t.Fatalf("ridge did not shrink noisy fits: %v vs %v", ridged/reps, plain/reps)
	}
}
