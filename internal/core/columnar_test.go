package core

import (
	"math"
	"math/rand"
	"testing"

	"funcmech/internal/dataset"
	"funcmech/internal/poly"
)

// These tests pin the PR's load-bearing claim: the blocked SYRK-style kernel
// over flat columnar storage is bit-for-bit identical to the scalar
// record-by-record fold, for every task, at every parallelism level, and at
// every tile/unroll boundary. The scalar per-record fold (referenceRecord)
// is the reference — it is the historical semantics the fixed-seed
// reproducibility guarantees were issued against.

// quadraticsBitEqual compares every coefficient with Float64bits, so even a
// -0.0 vs +0.0 flip or a 1-ulp drift fails.
func quadraticsBitEqual(a, b *poly.Quadratic) bool {
	d := a.Dim()
	if b.Dim() != d || math.Float64bits(a.Beta) != math.Float64bits(b.Beta) {
		return false
	}
	for i := 0; i < d; i++ {
		if math.Float64bits(a.Alpha[i]) != math.Float64bits(b.Alpha[i]) {
			return false
		}
		for j := 0; j < d; j++ {
			if math.Float64bits(a.M.At(i, j)) != math.Float64bits(b.M.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// sparseTuple returns an in-sphere feature vector with deliberate exact
// zeros and negative zeros — the values that exercise the kernel's "no
// zero-skip" deviation from the scalar path — plus a label.
func sparseTuple(rng *rand.Rand, d int, logistic bool) ([]float64, float64) {
	x := make([]float64, d)
	norm := 0.0
	for j := range x {
		switch rng.Intn(5) {
		case 0:
			x[j] = 0
		case 1:
			x[j] = math.Copysign(0, -1) // -0.0 ingested verbatim
		default:
			x[j] = rng.Float64()*2 - 1
			norm += x[j] * x[j]
		}
	}
	if norm > 1 {
		scale := 1 / math.Sqrt(norm)
		for j := range x {
			x[j] *= scale
		}
	}
	if logistic {
		return x, float64(rng.Intn(2))
	}
	return x, rng.Float64()*2 - 1
}

func sparseDataset(task Task, n, d int, seed int64) *dataset.Dataset {
	logistic := task.Name() == "logistic"
	schema := unitSchema(d)
	if logistic {
		schema = &dataset.Schema{
			Features: unitFeatures(d),
			Target:   dataset.Attribute{Name: "y", Min: 0, Max: 1},
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.NewWithCapacity(schema, n)
	for i := 0; i < n; i++ {
		x, y := sparseTuple(rng, d, logistic)
		ds.Append(x, y)
	}
	return ds
}

// scalarObjective folds the dataset record by record through
// referenceRecord — the legacy per-row reference path.
func scalarObjective(task Task, ds *dataset.Dataset) *Accumulator {
	a := NewAccumulator(task, ds.D())
	for i := 0; i < ds.N(); i++ {
		referenceRecord(task, a.q, ds.Row(i), ds.Label(i))
	}
	a.n = ds.N()
	return a
}

// TestBlockKernelBitIdenticalToScalar sweeps (n, d) across every interesting
// boundary — tile edges for both the historical 128-row tile (127/128/129)
// and the adaptive small tiles the v2 kernel picks at wide d (31/32/33 spans
// the 32-row tile at d=64, 15/16/17 via 127..129 covers the 16-row tile at
// d=128), 4-wide unroll remainders, row-pair remainders for odd d,
// single-record batches — with sparse sign-mixed data, and requires exact
// bit equality between the blocked kernel and the scalar fold for all four
// tasks. The d sweep spans both sides of the vector tier's minimum width
// (kernelVecMinDim), the case-study width 14, and adaptive-tile widths
// (33, 64).
func TestBlockKernelBitIdenticalToScalar(t *testing.T) {
	tasks := []Task{LinearTask{}, LogisticTask{}, RidgeTask{Weight: 0.3}, MedianTask{}}
	ns := []int{1, 2, 3, 4, 5, 31, 32, 33, 127, 128, 129, 255, 257, 1000}
	ds := []int{1, 2, 3, 4, 5, 7, 8, 14, 16, 33, 64}
	for _, task := range tasks {
		for _, n := range ns {
			for _, d := range ds {
				data := sparseDataset(task, n, d, int64(n*100+d))
				blocked := NewAccumulator(task, d)
				addRows(blocked, data, 0, n)
				scalar := scalarObjective(task, data)
				if !quadraticsBitEqual(blocked.Quadratic(), scalar.Quadratic()) {
					t.Fatalf("%s n=%d d=%d: blocked kernel ≠ scalar fold (want bit-identical)", task.Name(), n, d)
				}
			}
		}
	}
}

// TestColumnarAppendPathsBitIdentical: filling a dataset with per-row
// Append, bulk AppendBatch (in randomly cut chunks), AppendAlloc, and a
// Subset gather must produce byte-identical flat storage and therefore
// bit-identical objectives — the fuzz-style stride/subset edge-case sweep.
func TestColumnarAppendPathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 25; round++ {
		n := 1 + rng.Intn(400)
		d := 1 + rng.Intn(9)
		ref := sparseDataset(LinearTask{}, n, d, int64(round))
		flat := ref.FlatRows(0, n)

		// Bulk append in random chunk sizes.
		chunked := dataset.NewWithCapacity(ref.Schema, n)
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			chunked.AppendBatch(flat[lo*d:hi*d], ref.Labels()[lo:hi])
			lo = hi
		}

		// AppendAlloc fill.
		alloc := dataset.New(ref.Schema)
		alloc.Grow(n)
		for i := 0; i < n; i++ {
			copy(alloc.AppendAlloc(ref.Label(i)), ref.Row(i))
		}

		// Subset gather of a random index set (ordered, repeats allowed).
		idx := make([]int, 1+rng.Intn(n))
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		sub := ref.Subset(idx)
		subRef := dataset.NewWithCapacity(ref.Schema, len(idx))
		for _, i := range idx {
			subRef.Append(ref.Row(i), ref.Label(i))
		}

		for name, pair := range map[string][2]*dataset.Dataset{
			"chunked AppendBatch": {ref, chunked},
			"AppendAlloc":         {ref, alloc},
			"Subset gather":       {sub, subRef},
		} {
			a, b := pair[0], pair[1]
			qa := NewAccumulator(LinearTask{}, d)
			addRows(qa, a, 0, a.N())
			qb := NewAccumulator(LinearTask{}, d)
			addRows(qb, b, 0, b.N())
			if !quadraticsBitEqual(qa.Quadratic(), qb.Quadratic()) {
				t.Fatalf("round %d (n=%d d=%d): %s diverged from reference", round, n, d, name)
			}
		}
	}
}

// TestShardIterationBitIdenticalAcrossParallelism: explicit shard
// accumulation over the columnar dataset, merged in index order, equals the
// scalar reference at every shard count — the determinism contract
// WithParallelism documents, now sitting on the blocked kernel.
func TestShardIterationBitIdenticalAcrossParallelism(t *testing.T) {
	tasks := []Task{LinearTask{}, LogisticTask{}, RidgeTask{Weight: 0.7}}
	for _, task := range tasks {
		data := sparseDataset(task, 999, 6, 5)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			sharded := shardedObjective(task, data, workers)
			ref := func() *poly.Quadratic {
				parts := dataset.Shards(data.N(), workers)
				root := scalarObjective(task, data.Subset(seq(parts[0].Lo, parts[0].Hi)))
				for _, s := range parts[1:] {
					root.Merge(scalarObjective(task, data.Subset(seq(s.Lo, s.Hi))))
				}
				return root.Quadratic()
			}()
			if !quadraticsBitEqual(sharded, ref) {
				t.Fatalf("%s workers=%d: sharded blocked fold ≠ sharded scalar fold", task.Name(), workers)
			}
		}
	}
}

// TestAddFlatChunkingBitIdentical: however the records are cut into AddFlat
// calls, the fold is the same — tile boundaries and call boundaries never
// change a bit.
func TestAddFlatChunkingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, task := range propertyTasks() {
		data := sparseDataset(task, 321, 5, 77)
		batch := NewAccumulator(task, 5)
		addRows(batch, data, 0, data.N())
		chunked := NewAccumulator(task, 5)
		for lo := 0; lo < data.N(); {
			hi := lo + 1 + rng.Intn(min(200, data.N()-lo))
			addRows(chunked, data, lo, hi)
			lo = hi
		}
		if chunked.N() != batch.N() {
			t.Fatalf("%s: record counts differ: %d vs %d", task.Name(), chunked.N(), batch.N())
		}
		if !quadraticsBitEqual(chunked.Quadratic(), batch.Quadratic()) {
			t.Fatalf("%s: chunked AddFlat ≠ one AddFlat", task.Name())
		}
	}
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
