package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKFoldPartition(t *testing.T) {
	folds := KFold(100, 5, rand.New(rand.NewSource(1)))
	if len(folds) != 5 {
		t.Fatalf("len(folds) = %d", len(folds))
	}
	seen := make(map[int]int)
	for _, f := range folds {
		if len(f.Test) != 20 || len(f.Train) != 80 {
			t.Fatalf("fold sizes: test=%d train=%d", len(f.Test), len(f.Train))
		}
		for _, i := range f.Test {
			seen[i]++
		}
	}
	for i := 0; i < 100; i++ {
		if seen[i] != 1 {
			t.Fatalf("index %d in %d test sets, want exactly 1", i, seen[i])
		}
	}
}

func TestKFoldNoOverlapWithinFold(t *testing.T) {
	folds := KFold(53, 5, rand.New(rand.NewSource(2)))
	for fi, f := range folds {
		inTest := map[int]bool{}
		for _, i := range f.Test {
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatalf("fold %d: index %d in both train and test", fi, i)
			}
		}
		if len(f.Train)+len(f.Test) != 53 {
			t.Fatalf("fold %d: covers %d of 53", fi, len(f.Train)+len(f.Test))
		}
	}
}

func TestKFoldPanics(t *testing.T) {
	for _, c := range []struct{ n, k int }{{10, 1}, {3, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KFold(%d,%d) did not panic", c.n, c.k)
				}
			}()
			KFold(c.n, c.k, rand.New(rand.NewSource(1)))
		}()
	}
}

// Property: for any n ≥ k, KFold test sets partition [0, n) exactly and fold
// sizes differ by at most one.
func TestKFoldPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(8)
		n := k + rng.Intn(500)
		folds := KFold(n, k, rng)
		count := make([]int, n)
		minSz, maxSz := n, 0
		for _, f := range folds {
			if len(f.Test) < minSz {
				minSz = len(f.Test)
			}
			if len(f.Test) > maxSz {
				maxSz = len(f.Test)
			}
			for _, i := range f.Test {
				count[i]++
			}
		}
		if maxSz-minSz > 1 {
			return false
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
