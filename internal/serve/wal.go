package serve

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"path/filepath"

	"funcmech"
	"funcmech/internal/obs"
	"funcmech/internal/stream"
	"funcmech/internal/wal"
)

// The durability protocol, in one place. A crash may only ever over-count
// a tenant's lifetime ε. With a journal attached, fits and refits follow
// charge → journal → fit: the session is debited, the debit is appended
// (fsynced with Storage.Fsync), and only then is noise drawn. Open runs the
// complement at boot, Checkpoint folds the journal into the snapshots, and
// Close is the final Checkpoint.

// Storage names the directories of a Server's durable state; either may be
// empty. Without SnapshotDir nothing is snapshotted, so nothing compacts
// the journal.
type Storage struct {
	SnapshotDir string // stream snapshots (*.stream.json) and tenants.json
	WALDir      string // the write-ahead log's segments
	Fsync       bool   // sync the journal on every append
}

// ErrClosed is returned by Checkpoint and Close after Close.
var ErrClosed = errors.New("serve: server closed")

// Open returns a Server restored from st: the stream snapshots and
// tenants.json, then the journal events above the LSNs they cover. It
// attaches the journal with its next LSN above every LSN a snapshot claims,
// even when compaction left no record behind. A boot refused by a snapshot
// or by the replay writes nothing.
func Open(cfg Config, st Storage) (*Server, error) {
	s := New(cfg)
	var covered uint64 // the LSN tenants.json folds in
	if st.SnapshotDir != "" {
		store, err := stream.NewStore(st.SnapshotDir)
		if err != nil {
			return nil, err
		}
		n, err := store.LoadAll(s.streams)
		if err != nil {
			return nil, fmt.Errorf("serve: restoring snapshots: %w", err)
		}
		nt, lsn, err := s.tenants.loadBudgets(st.SnapshotDir)
		if err != nil {
			return nil, fmt.Errorf("serve: restoring tenant budgets: %w", err)
		}
		records, batches := s.streams.Totals()
		log.Printf("serve: restored %d stream(s) from %s (%d records over %d batches, no re-ingest needed) and %d tenant budget(s) covering wal lsn %d",
			n, st.SnapshotDir, records, batches, nt, lsn)
		s.store, covered = store, lsn
	}
	if st.WALDir == "" {
		return s, nil
	}
	applied, last, err := s.replayWAL(st.WALDir, covered)
	if err != nil {
		return nil, fmt.Errorf("serve: replaying wal: %w", err)
	}
	floor := max(last, covered)
	for _, str := range s.streams.All() {
		floor = max(floor, str.WALLSN())
	}
	l, err := wal.Open(st.WALDir, wal.Options{Fsync: st.Fsync, Floor: floor})
	if err != nil {
		return nil, fmt.Errorf("serve: opening wal: %w", err)
	}
	s.UseWAL(l)
	log.Printf("serve: wal replay applied %d event(s) from %s (last lsn %d, fsync=%v)", applied, st.WALDir, l.LastLSN(), st.Fsync)
	return s, nil
}

// Checkpoint is the one snapshot pass. It reads the journal's last LSN
// before it collects the state it saves as covering that LSN, so every
// charge journaled at or below it is in the saved spend; it compacts the
// covered segments only once the whole pass is durable. Passes are
// serialized, so none renames an older snapshot over a newer one. After
// Close it returns ErrClosed and writes nothing.
func (s *Server) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.checkpointLocked()
}

func (s *Server) checkpointLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.store == nil {
		return nil
	}
	var covered uint64
	if s.wlog != nil {
		covered = s.wlog.LastLSN()
	}
	if err := s.store.SaveAll(s.streams, covered); err != nil {
		return fmt.Errorf("serve: stream snapshot: %w", err)
	}
	budgets := filepath.Join(s.store.Dir(), budgetsFile)
	if err := wal.WriteFileAtomic(budgets, func(w io.Writer) error {
		return s.tenants.writeBudgets(w, covered)
	}); err != nil {
		return fmt.Errorf("serve: tenant-budget snapshot: %w", err)
	}
	if s.wlog != nil {
		// A failed compaction only keeps redundant segments.
		if n, err := s.wlog.Compact(covered); err != nil {
			log.Printf("serve: wal compaction failed: %v", err)
		} else if n > 0 {
			log.Printf("serve: wal compacted %d segment(s) up to lsn %d", n, covered)
		}
	}
	return nil
}

// Close runs the final Checkpoint and closes the journal. Called once
// requests have drained, its pass covers the journal's last LSN, so the
// next Open replays nothing.
func (s *Server) Close() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	err := s.checkpointLocked()
	if errors.Is(err, ErrClosed) {
		return err
	}
	s.closed = true
	if s.wlog != nil {
		if cerr := s.wlog.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("serve: closing wal: %w", cerr)
		}
	}
	return err
}

// errWALAppend marks a privacy event whose journal append failed. For a
// charge, the in-memory debit stands (conservative) but the fit is refused —
// noise must not be drawn against a charge that cannot be proven after a
// crash; for a tenant registration, the tenant is not created. Handlers map
// it to 500: it is a server-side durability failure, not a client error.
var errWALAppend = errors.New("serve: journaling")

// UseWAL attaches the write-ahead log to a Server built with New (Open
// attaches its own), before it serves: from then on every charge and tenant
// registration is journaled before it takes effect.
func (s *Server) UseWAL(l *wal.Log) {
	s.wlog = l
	s.tenants.mu.Lock()
	defer s.tenants.mu.Unlock()
	s.tenants.wlog = l
}

// chargeDurable debits the tenant's session for rel and, with a WAL
// attached, journals the debited cost before returning. op is wal.OpFit or
// wal.OpRefit; ref names the dataset or stream the release reads. The
// journal append (fsynced with -wal-fsync) is timed as a wal_fsync span on
// tr — this is the durability cost a fit pays before any noise is drawn.
func (s *Server) chargeDurable(tr *obs.Trace, t *Tenant, op, ref string, rel *funcmech.Release) error {
	cost, err := t.Session.Charge(rel)
	if err != nil {
		return err
	}
	if s.wlog == nil {
		return nil
	}
	sp := tr.StartSpan(obs.SpanWALFsync)
	_, err = s.wlog.Append(wal.Event{
		Kind:    wal.EventCharge,
		Tenant:  t.Name,
		Op:      op,
		Ref:     ref,
		Epsilon: cost,
	})
	sp.End(obs.Str("op", op), obs.Float("epsilon", cost))
	if err != nil {
		return fmt.Errorf("%w: %v", errWALAppend, err)
	}
	return nil
}

// writeChargeError maps a chargeDurable failure onto the typed error
// surface: exhaustion → 402, and the only other failure, a journal append
// that failed, → 500.
func (s *Server) writeChargeError(w http.ResponseWriter, t *Tenant, err error) {
	if errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.exhausted.Add(1)
		s.writeError(w, http.StatusPaymentRequired, codeBudgetExhausted, "tenant %q: %v", t.Name, err)
		return
	}
	s.writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
}

// replayWAL applies the journal in dir to the restored state before it is
// attached: tenant registrations go through Declare, charges above
// budgetsCovered (the LSN tenants.json folds in) are re-debited, and ingest
// sequences above each stream's own covered LSN advance its gauges. It
// returns how many events were applied and the journal's last valid LSN.
//
// A charge for a tenant the journal cannot account for fails the replay —
// booting anyway would serve traffic against an accountant known to be
// under-counting. Ingest events for unknown streams are skipped: stream
// state (unlike accounting) is only as durable as its snapshots, and a
// recreated stream's own snapshot LSN keeps a dead incarnation's events
// from leaking into it.
func (s *Server) replayWAL(dir string, budgetsCovered uint64) (applied int, last uint64, err error) {
	last, err = wal.Replay(dir, func(ev wal.Event) error {
		switch ev.Kind {
		case wal.EventTenant:
			_, created, err := s.tenants.Declare(ev.Tenant, ev.Total)
			if err != nil {
				return fmt.Errorf("serve: replaying tenant %q: %w", ev.Tenant, err)
			}
			if created {
				applied++
			}
		case wal.EventCharge:
			if ev.LSN <= budgetsCovered {
				return nil // tenants.json already folds this debit in
			}
			t, ok := s.tenants.Lookup(ev.Tenant)
			if !ok {
				return fmt.Errorf("serve: journaled charge (lsn %d) for unknown tenant %q", ev.LSN, ev.Tenant)
			}
			t.Session.ReplaySpend(ev.Epsilon)
			applied++
		case wal.EventIngest:
			st, ok := s.streams.Lookup(ev.Ref)
			if !ok || ev.LSN <= st.WALLSN() {
				return nil
			}
			st.AdvanceSeq(ev.Seq, ev.Batches)
			applied++
		}
		return nil
	})
	return applied, last, err
}
