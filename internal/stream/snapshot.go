package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"funcmech"
	"funcmech/internal/wal"
)

// snapshotEnvelope is the on-disk format of one stream, mirroring the model
// envelope conventions (kind + version gate, JSON): metadata here, the
// accumulator in its own versioned sub-envelope (funcmech.Accumulator.Save,
// which packs the coefficient vectors as a compressed fmbin frame,
// docs/FORMAT.md). Snapshot files contain raw coefficient sums — as
// sensitive as the records; see the data-sensitivity table in
// docs/ARCHITECTURE.md.
type snapshotEnvelope struct {
	Kind    string `json:"kind"` // "stream"
	Name    string `json:"name"`
	Shards  int    `json:"shards"`
	Records uint64 `json:"records"`
	Batches uint64 `json:"batches"`
	// Seq/SeqBatches are the monotone ingest sequence gauges; they exceed
	// Records/Batches only after a crash whose WAL replay advanced the
	// sequence past the coefficients that survived. Absent in pre-WAL
	// snapshots (decoding to 0, which the restore max()es away).
	Seq        uint64 `json:"seq,omitempty"`
	SeqBatches uint64 `json:"seq_batches,omitempty"`
	// WALLSN is the highest write-ahead-log LSN whose effects this snapshot
	// folds in; replay applies only journal records above it, which keeps
	// restore idempotent across the snapshot/WAL boundary.
	WALLSN      uint64          `json:"wal_lsn,omitempty"`
	Refits      uint64          `json:"refits"`
	LastRefit   *RefitInfo      `json:"last_refit,omitempty"`
	CreatedAt   time.Time       `json:"created_at"`
	SavedAt     time.Time       `json:"saved_at"`
	Accumulator json.RawMessage `json:"accumulator"`
	Version     int             `json:"version"`
}

const (
	snapshotKind    = "stream"
	snapshotVersion = 1
	snapshotSuffix  = ".stream.json"
)

// WriteSnapshot serializes the stream's consistent merged view. The record
// and batch counts are collected under the same shard-lock pass as the
// coefficients, so a snapshot taken during live ingestion can never persist
// counts that disagree with the sums it carries.
//
// walLSN is the highest write-ahead-log LSN the caller read *before* the
// state here was collected (0 without a WAL): that ordering guarantees
// every journal record the snapshot claims to cover had already taken
// effect, so skipping those records on replay can never under-count.
func (s *Stream) WriteSnapshot(w io.Writer, walLSN uint64) error {
	merged, batches := s.mergedView()
	var acc bytes.Buffer
	if err := merged.Save(&acc); err != nil {
		return fmt.Errorf("stream %q: %w", s.name, err)
	}
	refits, last := s.refitState() // one lock: counter and metadata agree
	seq, seqBatches := s.Counts()
	env := snapshotEnvelope{
		Kind:      snapshotKind,
		Name:      s.name,
		Shards:    s.cfg.Shards,
		Records:   uint64(merged.Len()),
		Batches:   batches,
		Refits:    refits,
		WALLSN:    walLSN,
		CreatedAt: s.created,
		//fmlint:ignore nakedrand snapshot save time is provenance metadata only; restore never reads it into state
		SavedAt:     time.Now().UTC(),
		Accumulator: json.RawMessage(bytes.TrimSpace(acc.Bytes())),
		Version:     snapshotVersion,
	}
	// Persist the sequence gauges only where they carry information beyond
	// the shard-consistent counts (i.e. after a crash advanced them).
	if seq > env.Records {
		env.Seq = seq
	}
	if seqBatches > env.Batches {
		env.SeqBatches = seqBatches
	}
	if last != nil {
		info := *last
		env.LastRefit = &info
	}
	return json.NewEncoder(w).Encode(env)
}

// ReadSnapshot rebuilds a stream from WriteSnapshot output. The restored
// stream refits bit-identically to the one that was saved (the merged
// coefficients round-trip exactly) and keeps ingesting from its sequence
// number. Version mismatches surface funcmech.ErrVersionMismatch.
func ReadSnapshot(r io.Reader) (*Stream, error) {
	var env snapshotEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("stream: decoding snapshot: %w", err)
	}
	if env.Kind != snapshotKind {
		return nil, fmt.Errorf("stream: snapshot kind %q, want %q", env.Kind, snapshotKind)
	}
	if env.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: stream snapshot version %d, want %d",
			funcmech.ErrVersionMismatch, env.Version, snapshotVersion)
	}
	acc, err := funcmech.LoadAccumulator(bytes.NewReader(env.Accumulator))
	if err != nil {
		return nil, fmt.Errorf("stream %q: %w", env.Name, err)
	}
	if uint64(acc.Len()) != env.Records {
		return nil, fmt.Errorf("stream %q: snapshot claims %d records but the accumulator holds %d",
			env.Name, env.Records, acc.Len())
	}
	cfg := Config{Schema: acc.Schema(), Intercept: acc.Intercept(), Shards: env.Shards}
	if th, ok := acc.BinarizeThreshold(); ok {
		cfg.BinarizeThreshold = &th
	}
	return restore(env.Name, cfg, acc, restoreState{
		batches:    env.Batches,
		refits:     env.Refits,
		seq:        env.Seq,
		seqBatches: env.SeqBatches,
		walLSN:     env.WALLSN,
		created:    env.CreatedAt,
		last:       env.LastRefit,
	})
}

// Store persists streams under a directory, one atomically-replaced file per
// stream (<name>.stream.json; stream names are filename-safe by
// construction). It is the substrate for serve.Storage's SnapshotDir.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a snapshot directory. Snapshot files
// hold raw coefficient sums, so the directory is created owner-only.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("stream: empty snapshot directory")
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Save writes one stream's snapshot atomically and durably
// (wal.WriteFileAtomic: temp file, fsync, rename, directory fsync — without
// the last step the atomic replace lives only in the page cache, and a
// power loss can resurrect the previous snapshot). walLSN is the journal
// position the snapshot covers; see Stream.WriteSnapshot.
func (st *Store) Save(s *Stream, walLSN uint64) error {
	return wal.WriteFileAtomic(filepath.Join(st.dir, s.Name()+snapshotSuffix), func(w io.Writer) error {
		return s.WriteSnapshot(w, walLSN)
	})
}

// SaveAll snapshots every stream in the registry at the same covered journal
// position, continuing past individual failures and returning the first
// error.
func (st *Store) SaveAll(r *Registry, walLSN uint64) error {
	var first error
	for _, s := range r.All() {
		if err := st.Save(s, walLSN); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// LoadAll restores every *.stream.json in the directory into the registry
// and returns how many streams were restored. A stream already present in
// the registry is an error (restore happens before serving begins).
func (st *Store) LoadAll(r *Registry) (int, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0, fmt.Errorf("stream: %w", err)
	}
	restored := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), snapshotSuffix) {
			continue
		}
		f, err := os.Open(filepath.Join(st.dir, e.Name()))
		if err != nil {
			return restored, fmt.Errorf("stream: %w", err)
		}
		s, err := ReadSnapshot(f)
		f.Close()
		if err != nil {
			return restored, fmt.Errorf("stream: snapshot %s: %w", e.Name(), err)
		}
		if err := r.Add(s); err != nil {
			return restored, err
		}
		restored++
	}
	return restored, nil
}
