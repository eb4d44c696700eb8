package serve

import (
	"errors"
	"fmt"
	"net/http"

	"funcmech"
	"funcmech/internal/obs"
	"funcmech/internal/wal"
)

// Crash-safe accounting. With a write-ahead log attached, the fit and refit
// handlers follow a charge → journal → fit discipline: the tenant's session
// is debited in memory, the debit is appended (and fsynced, with -wal-fsync)
// to the journal, and only then does the mechanism draw noise. A crash at
// any point can therefore only over-count a tenant's lifetime ε — a debit
// whose fit never completed — never under-count it, which is the side a
// privacy guarantee must err on. Boot runs the complement: restore the
// snapshots, then ReplayWAL applies every journaled event the snapshots do
// not cover.

// errWALAppend marks a privacy event whose journal append failed. For a
// charge, the in-memory debit stands (conservative) but the fit is refused —
// noise must not be drawn against a charge that cannot be proven after a
// crash; for a tenant registration, the tenant is not created. Handlers map
// it to 500: it is a server-side durability failure, not a client error.
var errWALAppend = errors.New("serve: journaling")

// UseWAL attaches the write-ahead log to the server and its tenant
// directory. Attach after boot-time restore and replay, before serving.
func (s *Server) UseWAL(l *wal.Log) {
	s.wlog = l
	s.tenants.UseWAL(l)
}

// WAL returns the attached journal (nil without one).
func (s *Server) WAL() *wal.Log { return s.wlog }

// chargeDurable debits the tenant's session for releasing task at ε and,
// with a WAL attached, journals the debited cost before returning. op is
// wal.OpFit or wal.OpRefit; ref names the dataset or stream the release
// reads. The journal append (fsynced with -wal-fsync) is timed as a
// wal_fsync span on tr — this is the durability cost a fit pays before any
// noise is drawn.
func (s *Server) chargeDurable(tr *obs.Trace, t *Tenant, op, ref, task string, epsilon float64, opts []funcmech.Option) error {
	cost, err := t.Session.Charge(task, epsilon, opts...)
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
// surface: exhaustion → 402, a malformed ε → 400, a journal failure → 500.
func (s *Server) writeChargeError(w http.ResponseWriter, t *Tenant, err error) {
	switch {
	case errors.Is(err, funcmech.ErrBudgetExhausted):
		t.exhausted.Add(1)
		s.writeError(w, http.StatusPaymentRequired, codeBudgetExhausted, "tenant %q: %v", t.Name, err)
	case errors.Is(err, funcmech.ErrInvalidSpend):
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
	case errors.Is(err, errWALAppend):
		s.writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
	default:
		s.writeError(w, http.StatusUnprocessableEntity, codeFitFailed, "%v", err)
	}
}

// ReplayWAL applies the journal in dir to the server's restored state:
// tenant registrations recreate missing tenants, charges above
// budgetsCovered (the LSN tenants.json folds in) are re-debited, and ingest
// sequences above each stream's own covered LSN advance that stream's
// gauges. Call after snapshot restore and before UseWAL; it returns how
// many events were applied and the last valid LSN in the journal (the floor
// for reopening the log).
//
// A charge for a tenant the journal cannot account for fails the replay —
// booting anyway would serve traffic against an accountant known to be
// under-counting. Ingest events for unknown streams are skipped: stream
// state (unlike accounting) is only as durable as its snapshots, and a
// recreated stream's own snapshot LSN keeps a dead incarnation's events
// from leaking into it.
func (s *Server) ReplayWAL(dir string, budgetsCovered uint64) (applied int, last uint64, err error) {
	last, err = wal.Replay(dir, func(ev wal.Event) error {
		switch ev.Kind {
		case wal.EventTenant:
			if t, ok := s.tenants.Lookup(ev.Tenant); ok {
				if t.Session.Total() != ev.Total {
					return fmt.Errorf("serve: journaled tenant %q budget %v disagrees with restored lifetime budget %v",
						ev.Tenant, ev.Total, t.Session.Total())
				}
				return nil
			}
			if _, err := s.tenants.Create(ev.Tenant, ev.Total); err != nil {
				return fmt.Errorf("serve: replaying tenant %q: %w", ev.Tenant, err)
			}
			applied++
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
