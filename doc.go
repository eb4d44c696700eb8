// Package funcmech is a Go implementation of the Functional Mechanism
// (Zhang, Zhang, Xiao, Yang, Winslett: "Functional Mechanism: Regression
// Analysis under Differential Privacy", PVLDB 5(11), 2012): ε-differentially
// private linear and logistic regression that perturbs the polynomial
// coefficients of the objective function instead of the regression output.
//
// # Quick start
//
//	schema := funcmech.Schema{
//		Features: []funcmech.Attribute{
//			{Name: "age", Min: 16, Max: 95},
//			{Name: "hours", Min: 0, Max: 99},
//		},
//		Target: funcmech.Attribute{Name: "income", Min: 0, Max: 300000},
//	}
//	ds := funcmech.NewDataset(schema)
//	for _, rec := range records {
//		ds.Append([]float64{rec.Age, rec.Hours}, rec.Income)
//	}
//	model, report, err := funcmech.LinearRegression(ds, 0.8) // ε = 0.8
//	if err != nil { ... }
//	estimate := model.Predict([]float64{41, 40}) // raw units in, raw units out
//
// LinearRegression and LogisticRegression are the paper's two case studies;
// FitTask fits any task in the task table (TaskNames) by name. Every fit
// returns a *TaskModel, which Save persists and LoadModel reads back.
// Every private fit is a Release, made by NewRelease (over a Dataset) or
// NewReleaseFromAccumulator (from an Accumulator's folds): the constructor
// decides, without reading a record, whether the task, options and ε are
// usable at the release's d, and Release.Run draws the noise. FitTask,
// FitTaskFromAccumulator, the Session fits and the serving layer all
// refuse exactly what the constructors refuse.
//
// Attribute Min/Max bounds must be public domain knowledge (they calibrate
// the normalization the privacy analysis requires); they must not be
// computed from the sensitive data itself.
//
// # Records
//
// One record rule turns a raw record into a training record: the
// WithIntercept column, features clamped to the public bounds and scaled
// into the unit sphere, and the label under the task's target rule (with
// WithBinarizeThreshold for a boolean target). FitTask's one training
// copy, every Accumulator fold and every TaskModel evaluation apply it.
// Schema.CheckBatch refuses a ragged or NaN raw batch at Accumulator.AddFlat
// and the serving layer's ingest and dataset registration, and the rule
// refuses a NaN by record as it makes a fit's training copy; every record it
// accepts lies in the domain the sensitivity bounds assume. Schema and
// Attribute are aliases of the internal dataset package's types: one schema
// type serves every layer.
//
// # Performance
//
// A fit's dominant cost on large datasets is accumulating the objective's
// polynomial coefficients, an O(n·d²) pass over the records. That pass is
// sharded across a bounded worker pool — runtime.GOMAXPROCS(0) workers by
// default, tunable per fit with WithParallelism(n); WithParallelism(1)
// forces the serial sweep. Parallelism never changes the privacy
// calibration, only the floating-point summation order.
//
// Within each shard the pass runs as a blocked, SYRK-style kernel over the
// dataset's flat columnar storage (one contiguous row-major array, stride
// d): records are processed in tiles sized per d by kernelTileRows to a
// 64-KiB budget, and the upper triangle of the coefficient matrix is
// covered in 2×4 register blocks with the record loop innermost. The blocking preserves bit-for-bit
// reproducibility by construction — each coefficient cell still receives
// its per-record contributions in exact arrival order, one IEEE-754
// addition at a time; the registers only spread *distinct* cells across
// independent add chains, and floating-point addition on distinct cells
// cannot interact. A fit, refit, or snapshot-restored refit therefore
// produces the same bits the scalar record-by-record fold always produced
// (fixed seed, fixed parallelism), while running several times faster.
//
// # Streaming and incremental refits
//
// The fit step of the functional mechanism consumes only the objective's
// polynomial coefficients, which are sums over records. An Accumulator
// exploits that: records fold into the coefficient sums as they arrive and
// are never retained, and FitTaskFromAccumulator releases a private model
// for any task from the cached sums in O(d²), independent of how
// many records were ever ingested.
//
// Incremental refits preserve the paper's ε guarantee unchanged, for two
// reasons. First, the accumulated coefficients are internal state, never
// released: only the noisy minimizer leaves, exactly as in Algorithm 1, and
// the sensitivity Δ of the coefficients is the same data-independent bound
// whether they were computed in one sweep or incrementally (the sums are
// identical). Second, noise is drawn fresh per release, so each refit is an
// independent ε-differentially private mechanism over the records ingested
// so far; repeated refits compose sequentially (total cost Σεᵢ), which is
// precisely what a Session enforces. What streaming does NOT weaken is also
// worth stating: an un-noised Accumulator (and any snapshot written from
// it) holds raw aggregates and is as sensitive as the records themselves —
// persist it only in the trust domain that holds the data.
//
// # Durability of the accounting
//
// Session is the accountant: it holds the lifetime total and the spend
// under its own lock, and Charge debits only a Release, so only what a
// constructor accepted. A usable ε, for a release or a lifetime total, is
// finite and positive; that one rule (CheckEpsilon in internal/noise,
// beside the Laplace calibration it protects) is what the Release
// constructors, NewSession and the serving layer's tenant budgets apply,
// and a refused ε wraps ErrInvalidSpend. The constructors also refuse an ε
// whose Laplace scale overflows at the release's d (CheckScale).
//
// A Session's budget is in-memory; serving layers that must survive
// restarts persist it and put it back with RestoreSpent. For crash safety —
// where no graceful snapshot ever ran — Charge(release) exposes the debit
// as its own step so a caller can make it durable (e.g. a write-ahead log)
// before Release.Run draws noise. ReplaySpend re-applies journaled debits
// on boot, clamped at the total. The resulting guarantee is one-sided by
// design: a crash may over-count ε-spend (a durable debit whose fit never
// released), never under-count it. See internal/serve and internal/wal for
// the served implementation.
//
// # What the privacy guarantee covers
//
// The returned model weights are ε-differentially private with respect to
// replacing any single record of the training dataset, per the paper's
// Theorem 1. Everything else the library reports (the Report struct) is
// derived from public parameters or from the already-private coefficients.
// A release with no WithSeed or WithRand draws its noise from a fresh
// ChaCha8 stream keyed with 32 bytes from crypto/rand; WithSeed selects a
// math/rand stream, for research and reproduction only. The Laplace sampler
// is textbook inverse-CDF over float64, so floating-point side channels
// remain outside this library's scope (as they were outside the paper's).
//
// These invariants are machine-checked, not just documented: the fmlint
// analyzer suite (internal/lint, run via cmd/fmlint as a required CI gate)
// statically verifies that no serving code reaches a noise draw except
// through an audited charge-then-journal release site, that atomic renames
// are made durable with a directory fsync, that the bit-identity packages
// never fold floats under nondeterministic map iteration or read ambient
// entropy and wall clocks, and that the //fm:noalloc hot paths stay
// allocation-free. A change that silently weakened the ε-accounting or the
// reproducibility story would fail the build before it reached review.
//
// # Architecture
//
// The public API wraps the internal packages, which mirror the paper:
// internal/core implements Algorithms 1–2 and the §6 post-processing,
// internal/baseline the DPME/FP/NoPrivacy/Truncated comparison methods,
// internal/experiments the §7 evaluation harness (see cmd/fmrun), and
// internal/{linalg,noise,poly,dataset,census,histogram,regression} the
// substrates they stand on. See the README's Layout table for the full
// inventory, docs/ARCHITECTURE.md for the served-system map with the
// data-sensitivity table (which artifacts are un-noised and must stay in the
// trust domain), and docs/FORMAT.md for the fmbin binary wire format shared
// by ingest, snapshots and accumulator envelopes.
package funcmech
