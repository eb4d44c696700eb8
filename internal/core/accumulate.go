package core

import (
	"fmt"
	"runtime"
	"sync"

	"funcmech/internal/dataset"
	"funcmech/internal/linalg"
	"funcmech/internal/poly"
)

// This file is the scalability half of the mechanism: building f̂_D(ω)
// (Algorithm 1's objective, the only step that touches every record) as a
// streaming, sharded accumulation instead of a monolithic O(n·d²) sweep.
//
// Every task's objective is a sum of per-record contributions plus a
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

// Accumulator builds one shard's partial objective as a stream of records.
// It never needs the full Dataset: AddFlat accepts flat batches of any size,
// so an ingestion pipeline can fold records as they arrive and discard them.
// Partials from different shards combine with Merge; Quadratic finalizes
// without consuming the accumulator.
//
// AddFlat, and AddGram for a Gram, fold through foldBlock, the one blocked
// SYRK fold of the task's per-record coefficients, so the same records in
// the same order give the same bits however they are batched.
//
// Tasks whose per-record c2 is 1 for every label (the task-table rows marked
// SharesGram) all have the Gram XᵀX as their unfinalized M, so a set of
// folds over the same records keeps it once: a Gram (NewGram) folds x·xᵀ
// alone, each sharing fold (NewFold) keeps only n, α and β, and
// QuadraticOver finalizes a sharing fold over the Gram with its own task.
//
// An Accumulator is not safe for concurrent use; use one per goroutine and
// merge.
type Accumulator struct {
	task Task // nil for a Gram
	d    int
	n    int
	// q holds α, β and the upper triangle of M, unfinalized. A Gram's α and
	// β stay zero; a fold that shares the Gram has no M (q.M is nil).
	q *poly.Quadratic
}

// NewAccumulator returns an empty accumulator for the task over d features.
func NewAccumulator(task Task, d int) *Accumulator {
	checkDim(d)
	return &Accumulator{task: task, d: d, q: poly.NewQuadratic(d)}
}

// NewGram returns an empty Gram over d features: AddGram folds x·xᵀ of
// every record into its M, and it keeps no α or β. It is the M of every
// fold made by NewFold for a row that shares the Gram.
func NewGram(d int) *Accumulator { return NewAccumulator(nil, d) }

// NewFold returns an empty accumulator for the fold-defining row spec over d
// features. A row that shares the Gram gets a fold with no M of its own: it
// keeps n, α and β, and finalizes over a Gram fed the same records.
func NewFold(spec TaskSpec, d int) *Accumulator {
	if !spec.SharesGram {
		return NewAccumulator(spec.Task, d)
	}
	checkDim(d)
	return &Accumulator{task: spec.Task, d: d, q: &poly.Quadratic{Alpha: make([]float64, d)}}
}

func checkDim(d int) {
	if d <= 0 {
		panic(fmt.Sprintf("core: NewAccumulator with d=%d", d))
	}
}

// N returns the number of records accumulated so far.
func (a *Accumulator) N() int { return a.n }

// Task returns the task whose coefficients the accumulator folds (nil for a
// Gram).
func (a *Accumulator) Task() Task { return a.task }

// Dim returns the feature dimensionality d.
func (a *Accumulator) Dim() int { return a.d }

// SharesGram reports whether the accumulator has no M of its own and
// finalizes over a Gram (see NewFold).
func (a *Accumulator) SharesGram() bool { return a.q.M == nil }

// AddFlat folds len(ys) records given as flat row-major feature storage
// (stride Dim()) into the partial objective: a dataset's shard as
// Dataset.FlatRows, an ingest batch as it arrives, or one record with its
// label. No per-record slice is ever materialized.
//
//fm:noalloc
func (a *Accumulator) AddFlat(xs []float64, ys []float64) {
	if len(xs) != len(ys)*a.d {
		panic(fmt.Sprintf("core: AddFlat with %d feature values for %d records of width %d",
			len(xs), len(ys), a.d))
	}
	a.foldBlock(xs, ys)
}

// AddGram folds the records of xs, flat row-major with stride Dim(), into a
// Gram (NewGram): each adds x·xᵀ, and no label plays a part.
//
//fm:noalloc
func (a *Accumulator) AddGram(xs []float64) {
	if a.task != nil || len(xs)%a.d != 0 {
		panic(fmt.Sprintf("core: AddGram with %d feature values of width %d into a %v accumulator",
			len(xs), a.d, a.task))
	}
	a.foldBlock(xs, nil)
}

// foldScratch is one tile's workspace for foldBlock: the c2-scaled left
// operand of the SYRK update and the tile's per-record coefficients. It is
// pooled, so the fold allocates nothing once the pool is warm.
type foldScratch struct {
	left       []float64
	c0, c1, c2 []float64
}

var foldScratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

// ensure sizes the scratch for tiles of rows records of width d.
func (s *foldScratch) ensure(rows, d int) {
	if cap(s.left) < rows*d {
		s.left = make([]float64, rows*d)
	}
	if cap(s.c0) < rows {
		s.c0 = make([]float64, rows)
		s.c1 = make([]float64, rows)
		s.c2 = make([]float64, rows)
	}
}

// foldBlock is the accumulator's one fold: the records of xs, flat
// row-major with stride d, each adding c0 to β, c1·x to α and c2·x·xᵀ to the
// upper triangle of M, with (c0, c1, c2) = task.Coefficients(y) for its label
// in ys. Records go through in tiles of kernelTileRows(d). Per tile the
// SYRK kernel runs on a left operand of c2-scaled rows against the raw tile
// — the raw tile itself while every c2 in it is 1 — and the α/β pass
// follows while the tile is still cache-resident. A Gram has no task and no
// labels, so every c2 is 1 and there is no α/β pass; a fold that shares the
// Gram has no M, so it runs the α/β pass alone. Every cell receives its
// per-record contributions in record order, so where tiles or calls split
// the records changes no bit.
//
//fm:noalloc
func (a *Accumulator) foldBlock(xs, ys []float64) {
	d := a.d
	n := len(xs) / d
	rows := kernelTileRows(d)
	sc := foldScratchPool.Get().(*foldScratch)
	defer foldScratchPool.Put(sc)
	sc.ensure(rows, d)
	for t0 := 0; t0 < n; t0 += rows {
		t1 := min(t0+rows, n)
		tile := xs[t0*d : t1*d]
		left := tile
		var c0, c1 []float64
		if a.task != nil {
			c0, c1 = sc.c0[:t1-t0], sc.c1[:t1-t0]
			c2 := sc.c2[:t1-t0]
			unit := true
			for r, y := range ys[t0:t1] {
				c0[r], c1[r], c2[r] = a.task.Coefficients(y)
				unit = unit && c2[r] == 1
			}
			if !unit && a.q.M != nil {
				left = sc.left[:len(tile)]
				for r, k := range c2 {
					dst := left[r*d:][:d]
					for j, v := range tile[r*d:][:d] {
						dst[j] = v * k
					}
				}
			}
		}
		if a.q.M != nil {
			syrkTileDispatch(a.q, left, tile, d)
		}
		a.foldAlphaBeta(tile, c0, c1)
	}
	a.n += n
}

// foldAlphaBeta is foldBlock's α/β pass over one tile: record r adds c0[r]
// to β and c1[r]·x to α, in record order. A Gram passes no coefficients.
//
//fm:noalloc
func (a *Accumulator) foldAlphaBeta(tile, c0, c1 []float64) {
	d := a.d
	alpha := a.q.Alpha[:d]
	beta := a.q.Beta
	c0 = c0[:len(c1)]
	for r, k := range c1 {
		for j, v := range tile[r*d:][:d] {
			alpha[j] += k * v
		}
		beta += c0[r]
	}
	a.q.Beta = beta
}

// Merge folds another accumulator's partial into a. Shards must be merged
// in index order for reproducibility; ParallelObjective does so. Both must
// be the same kind: whole, Gram, or sharing the Gram.
func (a *Accumulator) Merge(o *Accumulator) {
	if o.d != a.d || (o.q.M == nil) != (a.q.M == nil) {
		panic(fmt.Sprintf("core: Merge of a d=%d accumulator into a d=%d one of another kind", o.d, a.d))
	}
	if a.q.M != nil {
		a.q.M.AddScaledMat(o.q.M, 1)
	}
	linalg.AXPY(1, o.q.Alpha, a.q.Alpha)
	a.q.Beta += o.q.Beta
	a.n += o.n
}

// Quadratic finalizes and returns the accumulated objective: the upper
// triangle is mirrored to full symmetric form and the task's per-dataset
// terms are applied. The accumulator itself is left untouched, so streaming
// can continue and Quadratic can be called again later.
func (a *Accumulator) Quadratic() *poly.Quadratic {
	return a.QuadraticOver(nil, a.task)
}

// QuadraticOver finalizes the accumulated coefficients under task, which
// may differ from the task a folds: that is sound when the two share
// Coefficients, as RidgeTask shares LinearTask's and differs only in its
// data-independent finalization, so one live accumulator serves both plain
// and penalized refits. A fold that shares the Gram takes gram's M and its
// own n, α and β; gram must have folded the same records, and it is unused
// (nil will do) when a has its own M.
func (a *Accumulator) QuadraticOver(gram *Accumulator, task Task) *poly.Quadratic {
	m := a.q.M
	if m == nil {
		m = gram.q.M
	}
	out := &poly.Quadratic{M: m.Clone(), Alpha: linalg.CloneVec(a.q.Alpha), Beta: a.q.Beta}
	out.MaterializeSymmetric()
	task.FinalizeObjective(out, a.n)
	return out
}

// Clone returns a deep copy sharing no state with a; the copy continues to
// accumulate under the same task, and a copy of a sharing fold still shares
// whichever Gram it is given.
func (a *Accumulator) Clone() *Accumulator {
	q := &poly.Quadratic{Alpha: linalg.CloneVec(a.q.Alpha), Beta: a.q.Beta}
	if a.q.M != nil {
		q.M = a.q.M.Clone()
	}
	return &Accumulator{task: a.task, d: a.d, n: a.n, q: q}
}

// gramScale returns the factor task's finalization applies to a Gram it
// shares: what FinalizeObjective leaves of a 1×1 unit M at n = 0 (1 for
// linear, ⅛ for logistic). TestTaskTableWellFormed checks that every
// sharing row's finalization is exactly this scaling of the whole Gram.
func gramScale(task Task) float64 {
	q := poly.NewQuadratic(1)
	q.M.Set(0, 0, 1)
	task.FinalizeObjective(q, 0)
	return q.M.At(0, 0)
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

// StateOver returns a deep copy of the accumulator's content in packed
// form. A fold that shares the Gram packs gram's M, scaled by the factor
// its task's finalization applies: the M a fold that scaled each record by
// that factor would hold, so a snapshot reads the same however the fold is
// kept. The scaling is exact wherever no entry is subnormal. gram is
// unused (nil will do) when a has its own M.
func (a *Accumulator) StateOver(gram *Accumulator) AccumulatorState {
	m, scale := a.q.M, 1.0
	if m == nil {
		m, scale = gram.q.M, gramScale(a.task)
	}
	st := AccumulatorState{
		N:     a.n,
		Alpha: append([]float64(nil), a.q.Alpha...),
		MU:    make([]float64, 0, packedUpperLen(a.d)),
		Beta:  a.q.Beta,
	}
	for i := 0; i < a.d; i++ {
		st.MU = append(st.MU, m.Row(i)[i:]...)
	}
	if scale != 1 {
		for i := range st.MU {
			st.MU[i] *= scale
		}
	}
	return st
}

// Restore replaces a's content with a snapshot taken with StateOver from an
// accumulator of the same task and kind; that correspondence is the
// caller's responsibility (the state carries no task tag). A fold that
// shares the Gram takes n, α and β; its M is the Gram's, which
// GramFromState rebuilds.
func (a *Accumulator) Restore(st AccumulatorState) error {
	d := a.d
	switch {
	case len(st.Alpha) != d:
		return fmt.Errorf("core: accumulator state has %d coefficients, accumulator has %d", len(st.Alpha), d)
	case st.N < 0:
		return fmt.Errorf("core: accumulator state has negative record count %d", st.N)
	case len(st.MU) != packedUpperLen(d):
		return fmt.Errorf("core: accumulator state packed triangle has %d entries for %d coefficients (want %d)",
			len(st.MU), d, packedUpperLen(d))
	}
	a.n = st.N
	copy(a.q.Alpha, st.Alpha)
	a.q.Beta = st.Beta
	if a.q.M != nil {
		off := 0
		for i := 0; i < d; i++ {
			copy(a.q.M.Row(i)[i:], st.MU[off:off+d-i])
			off += d - i
		}
	}
	return nil
}

// GramFromState rebuilds a Gram from st, the state of a fold of task that
// shares it (see StateOver): the state's M divided by the task's scale, and
// its record count. The division is exact at a scale of 1, and at a
// power-of-two scale wherever no entry is subnormal. st must have passed
// Restore.
func GramFromState(task Task, st AccumulatorState) *Accumulator {
	scale := gramScale(task)
	g := NewGram(len(st.Alpha))
	g.n = st.N
	off := 0
	for i := 0; i < g.d; i++ {
		row := g.q.M.Row(i)[i:]
		for j := range row {
			row[j] = st.MU[off+j] / scale
		}
		off += len(row)
	}
	return g
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
// fold. The result is deterministic for a fixed (n, parallelism) pair:
// shard boundaries are pure functions of the inputs and partials merge in
// shard index order.
func ParallelObjective(task Task, ds *dataset.Dataset, parallelism int) *poly.Quadratic {
	return governedObjective(task, ds, parallelism, nil, nil)
}

// governedObjective is ParallelObjective under a Governor: the resolved
// worker count is submitted to gov and the pool uses only what is granted,
// so concurrent runs sharing the governor never oversubscribe its global
// cap; a nil gov changes nothing. It reports the kernel phase to probe,
// tagged with the compute tier the SYRK dispatch selects (KernelTier). The
// phase starts only after the grant, so time spent in Acquire is never
// attributed to compute.
func governedObjective(task Task, ds *dataset.Dataset, parallelism int, gov Governor, probe Probe) *poly.Quadratic {
	workers := effectiveParallelism(parallelism, ds.N())
	if gov != nil {
		granted, release := gov.Acquire(workers)
		defer release()
		if granted < workers && granted >= 1 {
			workers = granted
		}
	}
	endKernel := startPhaseTier(probe, PhaseKernel, KernelTier(ds.D()))
	defer endKernel()
	if workers == 1 {
		a := NewAccumulator(task, ds.D())
		a.AddFlat(ds.FlatRows(0, ds.N()), ds.Labels())
		return a.Quadratic()
	}
	shards := dataset.Shards(ds.N(), workers)
	accs := make([]*Accumulator, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s dataset.Shard) {
			defer wg.Done()
			a := NewAccumulator(task, ds.D())
			a.AddFlat(ds.FlatRows(s.Lo, s.Hi), ds.Labels()[s.Lo:s.Hi])
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
