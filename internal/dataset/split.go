package dataset

import (
	"fmt"
	"math/rand"
)

// Fold is one train/test partition of a cross-validation run.
type Fold struct {
	Train []int
	Test  []int
}

// KFold shuffles the record indices and partitions them into k folds; fold i
// uses partition i as the test set and the rest as training — the 5-fold
// cross-validation protocol of paper §7. Every index appears in exactly one
// test set; fold sizes differ by at most one.
func KFold(n, k int, rng *rand.Rand) []Fold {
	if k < 2 {
		panic(fmt.Sprintf("dataset: KFold with k=%d < 2", k))
	}
	if n < k {
		panic(fmt.Sprintf("dataset: KFold with n=%d < k=%d", n, k))
	}
	perm := rng.Perm(n)
	bounds := make([]int, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = i * n / k
	}
	folds := make([]Fold, k)
	for i := 0; i < k; i++ {
		test := perm[bounds[i]:bounds[i+1]]
		train := make([]int, 0, n-len(test))
		train = append(train, perm[:bounds[i]]...)
		train = append(train, perm[bounds[i+1]:]...)
		folds[i] = Fold{Train: train, Test: test}
	}
	return folds
}
