package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"funcmech/internal/dataset"
	"funcmech/internal/poly"
)

// randomTaskDataset builds n in-sphere records with a target suited to the
// task (boolean for logistic, [−1,1] otherwise).
func randomTaskDataset(t *testing.T, task Task, n, d int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := unitSchema(d)
	if task.Name() == "logistic" {
		schema = &dataset.Schema{
			Features: unitFeatures(d),
			Target:   dataset.Attribute{Name: "y", Min: 0, Max: 1},
		}
	}
	ds := dataset.NewWithCapacity(schema, n)
	for i := 0; i < n; i++ {
		x, y := randomSphereTuple(rng, d)
		if task.Name() == "logistic" {
			y = float64(rng.Intn(2))
		}
		ds.Append(x, y)
	}
	return ds
}

// quadraticsClose reports the max relative coefficient discrepancy.
func quadraticsClose(a, b *poly.Quadratic, tol float64) (float64, bool) {
	worst := 0.0
	rel := func(x, y float64) float64 {
		diff := math.Abs(x - y)
		scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		return diff / scale
	}
	d := a.Dim()
	for i := 0; i < d; i++ {
		worst = math.Max(worst, rel(a.Alpha[i], b.Alpha[i]))
		for j := 0; j < d; j++ {
			worst = math.Max(worst, rel(a.M.At(i, j), b.M.At(i, j)))
		}
	}
	worst = math.Max(worst, rel(a.Beta, b.Beta))
	return worst, worst <= tol
}

// shardedObjective builds the objective through explicit shard accumulators
// merged in index order — the parallel algorithm run serially, so the test
// exercises the exact merge semantics regardless of the minShardRecords
// gate inside ParallelObjective.
func shardedObjective(rt Task, ds *dataset.Dataset, shards int) *poly.Quadratic {
	parts := dataset.Shards(ds.N(), shards)
	root := NewAccumulator(rt, ds.D())
	addRows(root, ds, parts[0].Lo, parts[0].Hi)
	for _, s := range parts[1:] {
		a := NewAccumulator(rt, ds.D())
		addRows(a, ds, s.Lo, s.Hi)
		root.Merge(a)
	}
	return root.Quadratic()
}

// The headline regression test of the sharded accumulator: the parallel
// objective matches the serial one for both tasks across (n, d, parallelism)
// combinations — exactly when the shard structure degenerates to one shard,
// within 1e-12 relative otherwise (different summation trees).
func TestParallelObjectiveMatchesSerial(t *testing.T) {
	tasks := []Task{LinearTask{}, LogisticTask{}, RidgeTask{Weight: 0.5}}
	cases := []struct{ n, d, par int }{
		{10, 2, 2},
		{257, 3, 4},
		{1000, 5, 3},
		{1000, 5, 7},
		{4096, 8, 2},
		{5000, 14, 8},
	}
	for _, task := range tasks {
		for _, c := range cases {
			ds := randomTaskDataset(t, task, c.n, c.d, int64(c.n*31+c.d))
			serial := ParallelObjective(task, ds, 1)
			sharded := shardedObjective(task, ds, c.par)
			if worst, ok := quadraticsClose(serial, sharded, 1e-12); !ok {
				t.Errorf("%s n=%d d=%d par=%d: sharded objective diverges from serial by %v",
					task.Name(), c.n, c.d, c.par, worst)
			}
			if !sharded.M.IsSymmetric(0) {
				t.Errorf("%s n=%d d=%d par=%d: sharded objective matrix not exactly symmetric",
					task.Name(), c.n, c.d, c.par)
			}
		}
	}
}

// ParallelObjective itself (goroutine pool included) must agree with the
// serial sweep on an input large enough to clear the minimum shard size.
func TestParallelObjectivePoolMatchesSerial(t *testing.T) {
	for _, task := range []Task{LinearTask{}, LogisticTask{}} {
		ds := randomTaskDataset(t, task, 3*minShardRecords, 6, 11)
		serial := ParallelObjective(task, ds, 1)
		parallel := ParallelObjective(task, ds, 3)
		if worst, ok := quadraticsClose(serial, parallel, 1e-12); !ok {
			t.Errorf("%s: pooled objective diverges from serial by %v", task.Name(), worst)
		}
		one := NewAccumulator(task, ds.D())
		addRows(one, ds, 0, ds.N())
		if exact := one.Quadratic(); !exact.M.EqualApproxMat(serial.M, 0) {
			t.Errorf("%s: parallelism=1 path is not bit-identical to one accumulator's fold", task.Name())
		}
	}
}

// Fixed (n, parallelism) must be bit-for-bit reproducible: shard boundaries
// and merge order are pure functions of the inputs.
func TestParallelObjectiveDeterministic(t *testing.T) {
	ds := randomTaskDataset(t, LinearTask{}, 3*minShardRecords, 5, 7)
	a := ParallelObjective(LinearTask{}, ds, 3)
	b := ParallelObjective(LinearTask{}, ds, 3)
	if !a.M.EqualApproxMat(b.M, 0) || a.Beta != b.Beta {
		t.Fatal("repeated parallel accumulation is not bit-identical")
	}
	for i := range a.Alpha {
		if a.Alpha[i] != b.Alpha[i] {
			t.Fatalf("α[%d] differs across identical runs", i)
		}
	}
}

// Streaming one record at a time must equal the batched sweep exactly: both
// visit records in the same order into the same accumulator.
func TestAccumulatorStreamingMatchesBatch(t *testing.T) {
	for _, task := range []Task{LinearTask{}, LogisticTask{}} {
		ds := randomTaskDataset(t, task, 300, 4, 3)
		stream := NewAccumulator(task, ds.D())
		for i := 0; i < ds.N(); i++ {
			addRows(stream, ds, i, i+1)
		}
		if stream.N() != ds.N() {
			t.Fatalf("%s: streamed %d records, N() = %d", task.Name(), ds.N(), stream.N())
		}
		got := stream.Quadratic()
		want := ParallelObjective(task, ds, 1)
		if !got.M.EqualApproxMat(want.M, 0) || got.Beta != want.Beta {
			t.Errorf("%s: streamed objective differs from batch", task.Name())
		}
	}
}

// Quadratic must not consume the accumulator: stream, finalize, stream more,
// finalize again — the second snapshot reflects all records.
func TestAccumulatorSnapshotThenContinue(t *testing.T) {
	ds := randomTaskDataset(t, LinearTask{}, 100, 3, 5)
	acc := NewAccumulator(LinearTask{}, ds.D())
	addRows(acc, ds, 0, 50)
	first := acc.Quadratic()
	addRows(acc, ds, 50, 100)
	second := acc.Quadratic()
	wantFirst := ParallelObjective(LinearTask{}, ds.Subset(sequenceN(50)), 1)
	wantSecond := ParallelObjective(LinearTask{}, ds, 1)
	if !first.M.EqualApproxMat(wantFirst.M, 0) {
		t.Error("first snapshot wrong")
	}
	if !second.M.EqualApproxMat(wantSecond.M, 0) {
		t.Error("second snapshot does not include the records streamed after the first")
	}
}

func sequenceN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// The ridge penalty is data-independent and must be applied exactly once at
// finalization, not once per shard.
func TestRidgePenaltyAppliedOncePerObjective(t *testing.T) {
	task := RidgeTask{Weight: 2}
	ds := randomTaskDataset(t, task, 600, 3, 13)
	sharded := shardedObjective(task, ds, 6)
	plain := ParallelObjective(LinearTask{}, ds, 1)
	for i := 0; i < ds.D(); i++ {
		if got, want := sharded.M.At(i, i), plain.M.At(i, i)+2; math.Abs(got-want) > 1e-9 {
			t.Fatalf("diagonal %d = %v, want %v (penalty applied per shard?)", i, got, want)
		}
	}
}

// The logistic n·log 2 constant likewise belongs to the merged total, not to
// each shard.
func TestLogisticBetaCountsMergedRecords(t *testing.T) {
	ds := randomTaskDataset(t, LogisticTask{}, 500, 3, 17)
	sharded := shardedObjective(LogisticTask{}, ds, 5)
	if want := 500 * math.Ln2; math.Abs(sharded.Beta-want) > 1e-9 {
		t.Fatalf("β = %v, want %v", sharded.Beta, want)
	}
}

func TestEffectiveParallelism(t *testing.T) {
	cases := []struct{ requested, n, want int }{
		{1, 1 << 20, 1},
		{4, 1 << 20, 4},
		{4, 100, 1},                 // too small to shard
		{4, 2 * minShardRecords, 2}, // capped by min shard size
		{0, 100, 1},                 // default, small input
	}
	for _, c := range cases {
		if got := effectiveParallelism(c.requested, c.n); got != c.want {
			t.Errorf("effectiveParallelism(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
	if got := effectiveParallelism(0, 1<<30); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default parallelism = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
}

// End to end: Run with an explicit Parallelism produces identical models on
// identical inputs (same seed, same parallelism), and models within solver
// tolerance of the serial ones — the accumulation order only moves
// coefficients at the 1e-15 level.
func TestRunParallelismReproducibleAndCloseToSerial(t *testing.T) {
	ds := randomTaskDataset(t, LinearTask{}, 3*minShardRecords, 5, 23)
	run := func(par int) []float64 {
		res, err := Run(LinearTask{}, ds, 0.8, rand.New(rand.NewSource(99)), Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return res.Weights
	}
	p1, p4a, p4b := run(1), run(4), run(4)
	for i := range p4a {
		if p4a[i] != p4b[i] {
			t.Fatalf("weights differ across identical parallel runs at %d: %v vs %v", i, p4a[i], p4b[i])
		}
		if math.Abs(p4a[i]-p1[i]) > 1e-9*(1+math.Abs(p1[i])) {
			t.Fatalf("parallel weights diverge from serial at %d: %v vs %v", i, p4a[i], p1[i])
		}
	}
}

func TestOptionsRejectNegativeParallelism(t *testing.T) {
	ds := randomTaskDataset(t, LinearTask{}, 10, 2, 29)
	if _, err := Run(LinearTask{}, ds, 0.8, rand.New(rand.NewSource(1)), Options{Parallelism: -1}); err == nil {
		t.Fatal("expected error for negative Parallelism")
	}
}
