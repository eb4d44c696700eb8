// Package stream is the append-only record-ingestion subsystem: named
// streams that fold arriving records into live objective-coefficient
// accumulators so that a differentially private refit never rescans data.
//
// The design leans on the functional mechanism's structure (paper
// Algorithm 1): the fit step consumes only the objective's polynomial
// coefficients, which are sums over records, so ingestion is a monoid fold
// and a refit costs O(d²) regardless of how many records ever arrived. Each
// stream owns per-task live accumulators (every registered task, median
// included, shares the ingested records), a monotone sequence number, and a
// shard discipline that lets concurrent ingest batches proceed while refits
// read a consistent merged view:
//
//   - A batch is folded into exactly one shard (chosen round-robin) under
//     that shard's mutex, so batches on different shards accumulate in
//     parallel and a batch is never partially visible to a refit.
//   - A refit snapshots each shard in index order (clone under the shard
//     lock) and merges the clones, seeing every batch that completed before
//     the snapshot began — batch-atomic, monotone consistency.
//
// With a single shard (the default) ingestion is totally ordered, which
// makes a refit bit-identical (at a fixed seed) to a one-shot fit over the
// same records in arrival order with serial accumulation. More shards
// parallelize ingestion at the cost of last-ulp reproducibility — the
// summation tree changes, exactly the WithParallelism trade-off, with no
// effect on the privacy calibration.
package stream

import (
	"fmt"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"funcmech"
)

// Config describes a stream at creation. The schema, intercept and binarize
// threshold shape the per-record fold, so they are immutable for the
// stream's lifetime.
type Config struct {
	Schema funcmech.Schema
	// Intercept folds an always-one bias column into every record.
	Intercept bool
	// BinarizeThreshold, when set, derives the logistic target as
	// (target > threshold). Without it, logistic refits require every
	// ingested target to be exactly 0 or 1.
	BinarizeThreshold *float64
	// Shards is the ingest parallelism: concurrent batches on different
	// shards fold without contending. ≤ 1 keeps the totally-ordered single
	// accumulator (bit-reproducible refits); see the package comment.
	Shards int
}

// RefitInfo records the last private release served from a stream.
type RefitInfo struct {
	Model   string    `json:"model"`
	Tenant  string    `json:"tenant"`
	Epsilon float64   `json:"epsilon"`
	Records uint64    `json:"records"` // sequence number the refit covered
	At      time.Time `json:"at"`
}

// Stream is one append-only record stream with live accumulators.
//
// Counts live in two places with distinct consistency domains: the shards
// hold the authoritative per-shard state (coefficients + batch count,
// guarded by the shard locks, which is what snapshots read so their counts
// always agree with the sums they persist), while the monitoring gauges
// behind countMu are updated after each fold commits and are never held
// across a fold — so /metrics and GET /v1/streams readers cannot stall
// behind an ingest that is waiting for CPU admission inside its shard lock.
type Stream struct {
	name    string
	cfg     Config
	created time.Time

	shards []*shard
	cursor atomic.Uint64 // round-robin shard selector

	countMu sync.Mutex // guards the monitoring gauges below
	records uint64
	batches uint64
	walLSN  uint64 // highest WAL LSN the restoring snapshot covered

	mu        sync.Mutex // guards refit metadata below
	refits    uint64
	lastRefit *RefitInfo
}

type shard struct {
	mu      sync.Mutex
	acc     *funcmech.Accumulator
	batches uint64
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// MaxShards bounds a stream's ingest parallelism. Each shard owns a full
// accumulator (two d×d coefficient matrices: the Gram that every fold with
// a per-record c2 of 1 shares, and median's), and shard counts beyond the
// core count buy nothing, so the bound exists to keep a client-supplied
// shard count from becoming a memory-exhaustion vector.
const MaxShards = 64

// New returns an empty stream. The name must be URL- and filename-safe
// (letters, digits, dot, underscore, dash; max 64) because it names both the
// HTTP route and the snapshot file.
func New(name string, cfg Config) (*Stream, error) {
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("stream: invalid name %q (want [A-Za-z0-9][A-Za-z0-9._-]{0,63})", name)
	}
	if cfg.Shards > MaxShards {
		return nil, fmt.Errorf("stream %q: %d shards exceeds the maximum %d", name, cfg.Shards, MaxShards)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	//fmlint:ignore nakedrand creation wall-clock is display metadata only; it never enters accumulators or released values
	s := &Stream{name: name, cfg: cfg, created: time.Now(), shards: make([]*shard, cfg.Shards)}
	for i := range s.shards {
		acc, err := newAccumulator(cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shard{acc: acc}
	}
	return s, nil
}

func newAccumulator(cfg Config) (*funcmech.Accumulator, error) {
	var opts []funcmech.Option
	if cfg.Intercept {
		opts = append(opts, funcmech.WithIntercept())
	}
	if cfg.BinarizeThreshold != nil {
		opts = append(opts, funcmech.WithBinarizeThreshold(*cfg.BinarizeThreshold))
	}
	return funcmech.NewAccumulator(cfg.Schema, opts...)
}

// Name returns the stream's name.
func (s *Stream) Name() string { return s.name }

// Config returns the stream's immutable configuration.
func (s *Stream) Config() Config { return s.cfg }

// Counts returns a consistent (records, batches) pair from the monitoring
// gauges. It never touches the shard locks, so it cannot stall behind an
// in-flight fold; a batch whose fold has committed but whose gauge update
// has not yet run is simply not counted until it is — the pair is always
// one that actually existed.
func (s *Stream) Counts() (records, batches uint64) {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	return s.records, s.batches
}

// AdvanceSeq raises the stream's ingest sequence gauges to at least the
// given totals; lower values are ignored, so the call is idempotent and
// safe against out-of-order journal records. It is the WAL-replay path: the
// coefficients of batches folded after the last snapshot died with the
// crash, but their sequence numbers were journaled, and keeping the
// sequence monotone means a post-crash audit sees the stream's exposure
// over-counted rather than silently rewound. After a crash the records
// gauge may therefore exceed the records a refit actually covers.
func (s *Stream) AdvanceSeq(records, batches uint64) {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	if records > s.records {
		s.records = records
	}
	if batches > s.batches {
		s.batches = batches
	}
}

// WALLSN returns the highest write-ahead-log LSN the snapshot this stream
// was restored from claimed to cover (0 for a live-created stream). Journal
// events at or below it are already folded into the restored state; replay
// must apply only events above it — crucially, ingest events journaled for
// an earlier, crash-lost incarnation of a recreated stream name all sit
// below the recreating snapshot's LSN and are thereby ignored.
func (s *Stream) WALLSN() uint64 {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	return s.walLSN
}

// Refits returns the number of private releases served from the stream.
func (s *Stream) Refits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refits
}

// LastRefit returns a copy of the most recent refit's metadata, or false.
func (s *Stream) LastRefit() (RefitInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastRefit == nil {
		return RefitInfo{}, false
	}
	return *s.lastRefit, true
}

// refitState returns the refit counter and metadata under one lock, so a
// snapshot can never persist a counter that disagrees with the metadata.
func (s *Stream) refitState() (uint64, *RefitInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refits, s.lastRefit
}

// IngestFlat folds a batch of records into one shard. The batch is flat
// row-major storage, each record its feature vector in schema order with
// the target appended (row width features+1), and it is all-or-nothing: an
// empty batch is refused, and Schema.CheckBatch refuses a ragged one or a
// NaN anywhere before any record is folded, so a rejected batch leaves the
// stream untouched and an accepted one becomes visible to refits
// atomically. Values outside the schema's public bounds are clamped, never
// rejected. It returns the number of records accepted; read totals via
// Counts. The serving layer's JSON and fmbin decoders fill the batch, which
// flows straight into the blocked objective kernel.
func (s *Stream) IngestFlat(flat []float64) (int, error) {
	return s.IngestFlatGated(flat, nil)
}

// IngestFlatGated is IngestFlat with an admission gate for the fold's CPU
// cost: gate is invoked after the target shard's lock is held — i.e. once
// the fold can actually proceed — and its release runs when the fold
// finishes. A serving layer passes a governor draw here; acquiring before
// the shard lock would hold global worker capacity while idle-blocked
// behind another batch. A nil gate means no admission control.
func (s *Stream) IngestFlatGated(flat []float64, gate func() (release func())) (int, error) {
	if len(flat) == 0 {
		return 0, fmt.Errorf("stream %q: empty ingest batch", s.name)
	}
	rows, err := s.cfg.Schema.CheckBatch(flat, 0)
	if err != nil {
		return 0, fmt.Errorf("stream %q: %w", s.name, err)
	}

	sh := s.shards[s.cursor.Add(1)%uint64(len(s.shards))]
	sh.mu.Lock()
	release := func() {}
	if gate != nil {
		release = gate()
	}
	if _, err := sh.acc.AddFlat(flat); err != nil {
		// Unreachable given the pre-validation above (AddFlat is itself
		// all-or-nothing); surface loudly rather than dropping a batch.
		release()
		sh.mu.Unlock()
		return 0, fmt.Errorf("stream %q: %v (batch rejected)", s.name, err)
	}
	sh.batches++
	release()
	sh.mu.Unlock()

	// Gauge update outside the shard lock: monitoring readers take only
	// countMu, which is never held across a fold.
	s.countMu.Lock()
	s.records += uint64(rows)
	s.batches++
	s.countMu.Unlock()
	return rows, nil
}

// Merged returns a consistent merged view of the live accumulators: each
// shard is snapshotted under its lock in index order and the clones are
// merged, so the view contains every batch that completed before Merged
// began (and possibly batches that complete during). Ingestion proceeds
// concurrently; the returned accumulator is private to the caller.
func (s *Stream) Merged() *funcmech.Accumulator {
	acc, _ := s.mergedView()
	return acc
}

// mergedView is Merged plus the batch count collected under the same lock
// pass, so a snapshot's counts can never disagree with its coefficients.
func (s *Stream) mergedView() (*funcmech.Accumulator, uint64) {
	var (
		out     *funcmech.Accumulator
		batches uint64
	)
	for _, sh := range s.shards {
		sh.mu.Lock()
		c := sh.acc.Clone()
		batches += sh.batches
		sh.mu.Unlock()
		if out == nil {
			out = c
			continue
		}
		// Configs are identical by construction; Merge cannot fail.
		if err := out.Merge(c); err != nil {
			panic(fmt.Sprintf("stream %q: shard merge: %v", s.name, err))
		}
	}
	return out, batches
}

// RecordRefit notes a served release in the stream's metadata. The counter
// and lastRefit change under one lock, so any reader that observes
// refits ≥ 1 also observes a populated LastRefit.
func (s *Stream) RecordRefit(info RefitInfo) {
	s.mu.Lock()
	s.lastRefit = &info
	s.refits++
	s.mu.Unlock()
}

// restoreState carries the snapshot metadata that is not implied by the
// merged accumulator itself.
type restoreState struct {
	batches uint64 // ingest batches folded into the accumulator
	refits  uint64
	// seq and seqBatches are the monotone ingest sequence gauges, which can
	// exceed the accumulator's own counts after a crash: WAL replay advances
	// the sequence for batches whose coefficients died with the process.
	seq        uint64
	seqBatches uint64
	walLSN     uint64 // highest WAL LSN the snapshot covers
	created    time.Time
	last       *RefitInfo
}

// restore rebuilds a stream from snapshot state: the merged accumulator is
// placed in shard 0 (empty accumulators fill the rest), so a refit after
// restore sees exactly the snapshotted coefficients and new batches keep
// spreading across shards. The record count is implied by the accumulator
// itself; the sequence gauges take the max with the journaled sequence so a
// crash never rewinds them.
func restore(name string, cfg Config, merged *funcmech.Accumulator, st restoreState) (*Stream, error) {
	s, err := New(name, cfg)
	if err != nil {
		return nil, err
	}
	s.shards[0].acc = merged
	s.shards[0].batches = st.batches
	s.records = max(uint64(merged.Len()), st.seq)
	s.batches = max(st.batches, st.seqBatches)
	s.walLSN = st.walLSN
	s.refits = st.refits
	if !st.created.IsZero() {
		s.created = st.created
	}
	s.lastRefit = st.last
	return s, nil
}
