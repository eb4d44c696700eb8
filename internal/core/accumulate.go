package core

import (
	"fmt"
	"runtime"
	"sync"

	"funcmech/internal/dataset"
	"funcmech/internal/poly"
)

// This file is the scalability half of the mechanism: building f̂_D(ω)
// (Algorithm 1's objective, the only step that touches every record) as a
// streaming, sharded accumulation instead of a monolithic O(n·d²) sweep.
//
// Both case-study objectives are sums of per-record contributions plus a
// data-independent finalization, so the sum can be split across shards and
// merged. Two care points keep the optimization honest:
//
//   - Symmetry: per record only the upper triangle of M is filled; the
//     mirror onto the lower triangle happens once at finalization. That
//     halves the inner-loop work without changing any coefficient — the
//     mirrored entry receives the identical product sequence va·vb.
//   - Determinism: shard boundaries are a pure function of (n, workers) and
//     partials merge in index order, so a run is bit-for-bit reproducible at
//     a fixed parallelism. Across different parallelism levels the floating
//     point summation tree differs, so coefficients agree only to round-off
//     (≈1e-15 relative); the privacy guarantee is indifferent to either.

// RecordTask is a Task whose objective decomposes record by record — the
// property the sharded accumulator exploits. Tasks that cannot decompose
// (none of the built-ins) simply don't implement it and fall back to their
// serial Objective.
type RecordTask interface {
	Task
	// AccumulateRecord adds record (x, y)'s contribution to a partial
	// objective. Implementations must write only the upper triangle of
	// acc.M (a ≤ b) and must not touch data-independent terms that belong
	// in FinalizeObjective.
	AccumulateRecord(acc *poly.Quadratic, x []float64, y float64)
	// FinalizeObjective applies the data-independent terms that depend only
	// on the record count n (e.g. the logistic n·log 2 constant, the ridge
	// penalty), after the accumulated matrix has been mirrored to full
	// symmetric form.
	FinalizeObjective(q *poly.Quadratic, n int)
}

// Accumulator builds one shard's partial objective as a stream of records.
// It never needs the full Dataset: AddRecord accepts rows one at a time, so
// an ingestion pipeline can fold records into the objective as they arrive
// and discard them immediately. Partials from different shards combine with
// Merge; Quadratic finalizes without consuming the accumulator.
//
// An Accumulator is not safe for concurrent use; use one per goroutine and
// merge.
type Accumulator struct {
	task RecordTask
	d    int
	n    int
	q    *poly.Quadratic // upper triangle of M only, unfinalized
}

// NewAccumulator returns an empty accumulator for the task over d features.
func NewAccumulator(task RecordTask, d int) *Accumulator {
	if d <= 0 {
		panic(fmt.Sprintf("core: NewAccumulator with d=%d", d))
	}
	return &Accumulator{task: task, d: d, q: poly.NewQuadratic(d)}
}

// N returns the number of records accumulated so far.
func (a *Accumulator) N() int { return a.n }

// Task returns the record fold the accumulator maintains.
func (a *Accumulator) Task() RecordTask { return a.task }

// Dim returns the feature dimensionality d.
func (a *Accumulator) Dim() int { return a.d }

// AddRecord folds one record into the partial objective.
func (a *Accumulator) AddRecord(x []float64, y float64) {
	if len(x) != a.d {
		panic(fmt.Sprintf("core: AddRecord with %d features, accumulator has %d", len(x), a.d))
	}
	a.task.AccumulateRecord(a.q, x, y)
	a.n++
}

// AddBatch folds the shard s of ds into the partial objective. Tasks that
// implement BlockTask (all built-ins) go through the blocked SYRK-style
// kernel over the dataset's flat columnar storage — bit-identical to the
// record-by-record fold, several times faster; see kernel.go.
func (a *Accumulator) AddBatch(ds *dataset.Dataset, s dataset.Shard) {
	if s.Lo < 0 || s.Hi > ds.N() || s.Lo > s.Hi {
		panic(fmt.Sprintf("core: AddBatch shard [%d,%d) out of range [0,%d)", s.Lo, s.Hi, ds.N()))
	}
	if ds.D() != a.d {
		panic(fmt.Sprintf("core: AddBatch dataset has %d features, accumulator has %d", ds.D(), a.d))
	}
	if bt, ok := a.task.(BlockTask); ok {
		bt.AccumulateBlock(a.q, ds.FlatRows(s.Lo, s.Hi), ds.Labels()[s.Lo:s.Hi], a.d)
	} else {
		for i := s.Lo; i < s.Hi; i++ {
			a.task.AccumulateRecord(a.q, ds.Row(i), ds.Label(i))
		}
	}
	a.n += s.Len()
}

// AddFlat folds len(ys) records given as flat row-major feature storage
// (stride Dim()) into the partial objective — the entry point for ingest
// pipelines that keep arriving batches in columnar form and never
// materialize per-record slices.
//
//fm:noalloc
func (a *Accumulator) AddFlat(xs []float64, ys []float64) {
	if len(xs) != len(ys)*a.d {
		panic(fmt.Sprintf("core: AddFlat with %d feature values for %d records of width %d",
			len(xs), len(ys), a.d))
	}
	if bt, ok := a.task.(BlockTask); ok {
		bt.AccumulateBlock(a.q, xs, ys, a.d)
	} else {
		for i := range ys {
			a.task.AccumulateRecord(a.q, xs[i*a.d:(i+1)*a.d], ys[i])
		}
	}
	a.n += len(ys)
}

// Merge folds another accumulator's partial into a. Shards must be merged
// in index order for reproducibility; ParallelObjective does so.
func (a *Accumulator) Merge(o *Accumulator) {
	if o.d != a.d {
		panic(fmt.Sprintf("core: Merge dim mismatch %d vs %d", a.d, o.d))
	}
	a.q.Merge(o.q)
	a.n += o.n
}

// Quadratic finalizes and returns the accumulated objective: the upper
// triangle is mirrored to full symmetric form and the task's per-dataset
// terms are applied. The accumulator itself is left untouched, so streaming
// can continue and Quadratic can be called again later.
func (a *Accumulator) Quadratic() *poly.Quadratic {
	return a.QuadraticAs(a.task)
}

// QuadraticAs finalizes the accumulated coefficients under a different task.
// This is only sound when the two tasks share AccumulateRecord — the use case
// is RidgeTask, whose per-record contributions are exactly LinearTask's and
// which differs only in its data-independent finalization, so one live
// accumulator can serve both plain and penalized refits.
func (a *Accumulator) QuadraticAs(task RecordTask) *poly.Quadratic {
	out := a.q.Clone().MaterializeSymmetric()
	task.FinalizeObjective(out, a.n)
	return out
}

// Clone returns a deep copy sharing no state with a; the copy continues to
// accumulate under the same task.
func (a *Accumulator) Clone() *Accumulator {
	return &Accumulator{task: a.task, d: a.d, n: a.n, q: a.q.Clone()}
}

// AccumulatorState is the portable content of an Accumulator: the record
// count plus the unfinalized partial coefficients (upper triangle of M only,
// exactly as accumulated). It exists so a long-lived ingestion service can
// snapshot its live accumulators to disk and restore them after a restart
// without re-ingesting. The coefficients are raw sums over records — no noise
// has been added — so a serialized state is as sensitive as the records
// themselves and must be stored in the same trust domain.
type AccumulatorState struct {
	N     int
	Alpha []float64
	MU    []float64 // packed upper triangle of M, row-major: d(d+1)/2 values
	Beta  float64
}

// packedUpperLen returns d(d+1)/2, the packed upper-triangle size.
func packedUpperLen(d int) int { return d * (d + 1) / 2 }

// State returns a deep copy of the accumulator's content in packed form.
func (a *Accumulator) State() AccumulatorState {
	st := AccumulatorState{
		N:     a.n,
		Alpha: append([]float64(nil), a.q.Alpha...),
		MU:    make([]float64, 0, packedUpperLen(a.d)),
		Beta:  a.q.Beta,
	}
	for i := 0; i < a.d; i++ {
		st.MU = append(st.MU, a.q.M.Row(i)[i:]...)
	}
	return st
}

// AccumulatorFromState rebuilds an accumulator from a snapshot taken with
// State. The task must match the one the coefficients were accumulated
// under; that correspondence is the caller's responsibility (the state
// carries no task tag).
func AccumulatorFromState(task RecordTask, st AccumulatorState) (*Accumulator, error) {
	d := len(st.Alpha)
	if d == 0 {
		return nil, fmt.Errorf("core: accumulator state has no coefficients")
	}
	if st.N < 0 {
		return nil, fmt.Errorf("core: accumulator state has negative record count %d", st.N)
	}
	if len(st.MU) != packedUpperLen(d) {
		return nil, fmt.Errorf("core: accumulator state packed triangle has %d entries for %d coefficients (want %d)",
			len(st.MU), d, packedUpperLen(d))
	}
	a := NewAccumulator(task, d)
	a.n = st.N
	copy(a.q.Alpha, st.Alpha)
	a.q.Beta = st.Beta
	off := 0
	for i := 0; i < d; i++ {
		copy(a.q.M.Row(i)[i:], st.MU[off:off+d-i])
		off += d - i
	}
	return a, nil
}

// minShardRecords is the smallest shard worth a goroutine: below this the
// accumulation is cheaper than the spawn/merge overhead, and small inputs
// (every unit-test fixture) stay on the serial path, which is bit-identical
// to the historical single-sweep implementation.
const minShardRecords = 2048

// effectiveParallelism resolves the Options.Parallelism convention (0 means
// all available cores) and caps the worker count so every worker has at
// least minShardRecords records.
func effectiveParallelism(requested, n int) int {
	p := requested
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if max := n / minShardRecords; p > max {
		p = max
	}
	if p < 1 {
		p = 1
	}
	return p
}

// ParallelObjective builds task's objective over ds with a bounded worker
// pool. parallelism ≤ 0 means runtime.GOMAXPROCS(0); 1 forces the serial
// path. Tasks that don't implement RecordTask fall back to their own
// Objective. The result is deterministic for a fixed (n, parallelism) pair:
// shard boundaries are pure functions of the inputs and partials merge in
// shard index order.
func ParallelObjective(task Task, ds *dataset.Dataset, parallelism int) *poly.Quadratic {
	return governedObjective(task, ds, parallelism, nil, nil)
}

// governedObjective is ParallelObjective under a Governor: the resolved
// worker count is submitted to gov and the pool uses only what is granted,
// so concurrent runs sharing the governor never oversubscribe its global
// cap; a nil gov changes nothing. It reports the kernel phase to probe,
// tagged with the compute tier the SYRK dispatch selects when the task's
// fold runs it (syrkTier). The phase starts only after the grant, so time
// spent in Acquire is never attributed to compute.
func governedObjective(task Task, ds *dataset.Dataset, parallelism int, gov Governor, probe Probe) *poly.Quadratic {
	rt, ok := task.(RecordTask)
	if !ok {
		endKernel := startPhase(probe, PhaseKernel)
		defer endKernel()
		return task.Objective(ds)
	}
	workers := effectiveParallelism(parallelism, ds.N())
	if gov != nil {
		granted, release := gov.Acquire(workers)
		defer release()
		if granted < workers && granted >= 1 {
			workers = granted
		}
	}
	endKernel := startPhaseTier(probe, PhaseKernel, syrkTier(rt, ds.D()))
	defer endKernel()
	if workers == 1 {
		a := NewAccumulator(rt, ds.D())
		a.AddBatch(ds, dataset.Shard{Lo: 0, Hi: ds.N()})
		return a.Quadratic()
	}
	shards := dataset.Shards(ds.N(), workers)
	accs := make([]*Accumulator, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s dataset.Shard) {
			defer wg.Done()
			a := NewAccumulator(rt, ds.D())
			a.AddBatch(ds, s)
			accs[i] = a
		}(i, s)
	}
	wg.Wait()
	root := accs[0]
	for _, a := range accs[1:] {
		root.Merge(a)
	}
	return root.Quadratic()
}
