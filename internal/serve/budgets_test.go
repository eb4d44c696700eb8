package serve

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"funcmech"
)

func TestBudgetsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{}, Storage{SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := s.Tenants()
	a, err := ts.Create("acme", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Create("idle", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := a.Session.RestoreSpent(0.75); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // the final Checkpoint writes tenants.json
		t.Fatal(err)
	}

	// Fresh directory, nothing pre-registered: both tenants come back with
	// total and spend intact.
	back := NewTenants()
	n, _, err := back.loadBudgets(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d tenants, want 2", n)
	}
	got, ok := back.Lookup("acme")
	if !ok {
		t.Fatal("tenant acme not restored")
	}
	if got.Session.Total() != 2.0 || math.Abs(got.Session.Spent()-0.75) > 1e-15 {
		t.Fatalf("restored total=%v spent=%v, want 2.0/0.75", got.Session.Total(), got.Session.Spent())
	}

	// The restored accountant keeps enforcing the lifetime budget: the
	// charge happens before any record is read, so an empty dataset is
	// fine (its schema fixes d, which the ε check before the charge needs).
	empty := funcmech.NewDataset(*testStreamSchema())
	if _, _, err := got.Session.FitTask(empty, "linear", 1.5); !errors.Is(err, funcmech.ErrBudgetExhausted) {
		t.Fatalf("over-budget fit after restore: err = %v, want ErrBudgetExhausted", err)
	}
}

func TestBudgetsRestoreIntoExistingTenant(t *testing.T) {
	ts := NewTenants()
	a, _ := ts.Create("acme", 2.0)
	_ = a.Session.RestoreSpent(1.25)
	var buf bytes.Buffer
	if err := ts.writeBudgets(&buf, 0); err != nil {
		t.Fatal(err)
	}

	// A flag-created tenant with the same budget gets its spend restored...
	back := NewTenants()
	if _, err := back.Create("acme", 2.0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := back.readBudgets(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, _ := back.Lookup("acme")
	if got.Session.Spent() != 1.25 {
		t.Fatalf("spent = %v, want 1.25", got.Session.Spent())
	}

	// ...but a conflicting lifetime budget is an error, never a silent reset.
	conflicted := NewTenants()
	if _, err := conflicted.Create("acme", 5.0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conflicted.readBudgets(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("conflicting budget: expected error")
	}
}

func TestBudgetsLoadMissingFileIsFirstBoot(t *testing.T) {
	ts := NewTenants()
	n, _, err := ts.loadBudgets(t.TempDir())
	if err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v, want 0/nil", n, err)
	}
}

func TestBudgetsVersionMismatchTyped(t *testing.T) {
	ts := NewTenants()
	if _, _, err := ts.readBudgets(strings.NewReader(`{"kind":"tenant-budgets","version":99,"tenants":[]}`)); !errors.Is(err, funcmech.ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if _, _, err := ts.readBudgets(strings.NewReader(`{"kind":"other","version":1}`)); err == nil {
		t.Fatal("wrong kind: expected error")
	}
}
