package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"funcmech"
)

// Durable tenant budget accounting. A tenant's ε-budget is a lifetime
// commitment over the data, so the Session accountants must survive process
// restarts: without persistence, a restart would silently reset every
// tenant's spend to zero while the stream state (and therefore the data's
// exposure) survives in the stream snapshots. This file holds the format of
// tenants.json, the one atomically-replaced file that persists the
// accountants beside the stream snapshots; Checkpoint writes it atomically
// and durably (wal.WriteFileAtomic) and Open restores it (wal.go).
//
// Snapshots alone are only as durable as their cadence: ε spent after the
// last snapshot and before a hard kill would be forgotten. The write-ahead
// log (internal/wal) closes that gap — every charge is journaled durably
// before any noise is drawn, Open replays the journal records the snapshot
// does not cover (the wal_lsn gate below), and Checkpoint compacts the
// journal it folds in. A crash can therefore only over-count a tenant's
// lifetime spend, never under-count it.

// tenantBudget is one tenant's persisted accountant state.
type tenantBudget struct {
	Name  string  `json:"name"`
	Total float64 `json:"total"`
	Spent float64 `json:"spent"`
}

// budgetsEnvelope is the on-disk format, following the repo's envelope
// conventions (kind + version gate, JSON).
type budgetsEnvelope struct {
	Kind    string         `json:"kind"` // "tenant-budgets"
	Tenants []tenantBudget `json:"tenants"`
	// WALLSN is the highest write-ahead-log LSN whose charges this snapshot
	// folds in; replay applies only journal records above it. Absent (0) in
	// pre-WAL files, which makes replay apply the whole surviving journal.
	WALLSN  uint64    `json:"wal_lsn,omitempty"`
	SavedAt time.Time `json:"saved_at"`
	Version int       `json:"version"`
}

const (
	budgetsKind    = "tenant-budgets"
	budgetsVersion = 1
	// budgetsFile is the snapshot-directory file name holding the tenant
	// accountants, next to the *.stream.json stream snapshots.
	budgetsFile = "tenants.json"
)

// writeBudgets serializes every tenant's accountant state. walLSN is the
// highest write-ahead-log LSN the caller read *before* this call (0 without
// a WAL): every charge journaled at or below it was debited before its
// journal record existed, so the spends read here necessarily include it —
// the ordering that lets replay skip covered records without under-counting.
func (ts *Tenants) writeBudgets(w io.Writer, walLSN uint64) error {
	env := budgetsEnvelope{
		Kind:    budgetsKind,
		WALLSN:  walLSN,
		SavedAt: time.Now().UTC(),
		Version: budgetsVersion,
	}
	for _, t := range ts.All() {
		env.Tenants = append(env.Tenants, tenantBudget{
			Name:  t.Name,
			Total: t.Session.Total(),
			Spent: t.Session.Spent(),
		})
	}
	return json.NewEncoder(w).Encode(env)
}

// readBudgets restores tenant accountants from writeBudgets output into the
// directory: each persisted tenant is declared with its persisted total
// (Declare) and gets its spend restored — the persisted spend is
// authoritative, because accounting is a lifetime property of the data. It
// returns how many tenants were restored along with the write-ahead-log LSN
// the snapshot covers (the replay gate for journaled charges). Version
// mismatches surface funcmech.ErrVersionMismatch.
func (ts *Tenants) readBudgets(r io.Reader) (int, uint64, error) {
	var env budgetsEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return 0, 0, fmt.Errorf("serve: decoding tenant budgets: %w", err)
	}
	if env.Kind != budgetsKind {
		return 0, 0, fmt.Errorf("serve: tenant budgets kind %q, want %q", env.Kind, budgetsKind)
	}
	if env.Version != budgetsVersion {
		return 0, 0, fmt.Errorf("%w: tenant budgets version %d, want %d",
			funcmech.ErrVersionMismatch, env.Version, budgetsVersion)
	}
	restored := 0
	for _, tb := range env.Tenants {
		t, _, err := ts.Declare(tb.Name, tb.Total)
		if err == nil {
			err = t.Session.RestoreSpent(tb.Spent)
		}
		if err != nil {
			return restored, env.WALLSN, fmt.Errorf("serve: restoring tenant %q: %w", tb.Name, err)
		}
		restored++
	}
	return restored, env.WALLSN, nil
}

// loadBudgets restores tenant accountants from dir/tenants.json. A missing
// file is not an error (first boot); it returns how many tenants were
// restored and the write-ahead-log LSN the file covers.
func (ts *Tenants) loadBudgets(dir string) (int, uint64, error) {
	f, err := os.Open(filepath.Join(dir, budgetsFile))
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	return ts.readBudgets(f)
}
