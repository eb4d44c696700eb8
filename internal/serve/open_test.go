package serve

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOpenFloorSurvivesCompactingRestart: a Close whose pass compacted every
// sealed segment leaves a journal holding no records, while tenants.json
// claims to cover its last LSN. The next boot must hand out LSNs above that
// claim, or a charge it journals would be skipped by the following replay —
// e2e_crash.sh's last phase.
func TestOpenFloorSurvivesCompactingRestart(t *testing.T) {
	st := Storage{SnapshotDir: t.TempDir(), WALDir: t.TempDir(), Fsync: true}
	s, ts := openServer(t, st)
	createTenant(t, ts.URL, "acme", 4.0)
	registerRowsDataset(t, ts.URL, "toy", 200)
	if code := fitStatus(t, ts.URL, "acme", 0.5, ""); code != http.StatusOK {
		t.Fatalf("fit: status %d", code)
	}
	for i := 0; i < 2; i++ { // the second Close compacts the first's segment
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, ts = openServer(t, st)
	}
	registerRowsDataset(t, ts.URL, "toy", 200)
	if code := fitStatus(t, ts.URL, "acme", 0.5, ""); code != http.StatusOK {
		t.Fatalf("fit after the compacting restart: status %d", code)
	}
	// Crash, then boot again.
	s, _ = openServer(t, st)
	if got := spentOf(t, s, "acme"); got != 1.0 {
		t.Fatalf("recovered spend = %v, want exactly 1 (the charge after the compacting restart was lost)", got)
	}
}

// TestCheckpointRacingFitsRecoversAcknowledgedSpend: Checkpoint reads the
// journal's LSN before it collects the spend it saves, so a fit charged
// mid-pass is either in the saved spend or above the covered LSN. A crash
// after passes that raced fits must recover at least every acknowledged
// charge. It may recover more than were attempted: a charge debited before
// the LSN read but journaled after it is both saved and replayed, the
// over-count the protocol accepts.
func TestCheckpointRacingFitsRecoversAcknowledgedSpend(t *testing.T) {
	st := Storage{SnapshotDir: t.TempDir(), WALDir: t.TempDir(), Fsync: true}
	s, ts := openServer(t, st)
	createTenant(t, ts.URL, "acme", 1e6)
	registerRowsDataset(t, ts.URL, "toy", 50)

	var (
		stop              atomic.Bool
		acked             atomic.Int64
		wg                sync.WaitGroup
		checkpointErr     error
		checkpointsPassed = make(chan struct{})
	)
	const fit = `{"tenant":"acme","dataset":"toy","model":"linear","epsilon":1}`
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Post(ts.URL+"/v1/fit", "application/json", strings.NewReader(fit))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					acked.Add(1)
				}
			}
		}()
	}
	go func() {
		defer close(checkpointsPassed)
		for i := 0; i < 20 && checkpointErr == nil; i++ {
			checkpointErr = s.Checkpoint()
		}
	}()
	<-checkpointsPassed // every pass ran while fits were in flight
	stop.Store(true)
	wg.Wait()
	if checkpointErr != nil {
		t.Fatal(checkpointErr)
	}

	s2, _ := openServer(t, st) // a crash: s is dropped without Close
	got := spentOf(t, s2, "acme")
	if got < float64(acked.Load()) {
		t.Fatalf("recovered spend %v is below the %d acknowledged charges", got, acked.Load())
	}
}

// TestCheckpointRacingCloseLeavesNoStaleSnapshot: a periodic pass that
// collected its state before the final one must never land after it, or the
// snapshot would claim less than the compacted journal had held. A pass
// racing Close either finishes before Close's own or is refused: nothing is
// written once Close returns, and the snapshots cover the journal's last LSN
// and hold the exact spend.
func TestCheckpointRacingCloseLeavesNoStaleSnapshot(t *testing.T) {
	for round := 0; round < 8; round++ {
		st := Storage{SnapshotDir: t.TempDir(), WALDir: t.TempDir(), Fsync: true}
		s, ts := openServer(t, st)
		t.Cleanup(func() { _ = s.Close() }) // stops the periodic loop if the round fails
		createTenant(t, ts.URL, "acme", 1e6)
		registerRowsDataset(t, ts.URL, "toy", 50)
		createStream(t, ts.URL, streamRequest{Name: "readings", Schema: testStreamSchema()})

		periodic := make(chan error, 1)
		go func() {
			for {
				if err := s.Checkpoint(); err != nil {
					periodic <- err
					return
				}
			}
		}()
		for i := 0; i < 10; i++ {
			ingestRows(t, ts.URL, "readings", streamRows(5))
			if code := fitStatus(t, ts.URL, "acme", 1, ""); code != http.StatusOK {
				t.Fatalf("fit: status %d", code)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		closed := dirContents(t, st.SnapshotDir, st.WALDir)
		if err := <-periodic; !errors.Is(err, ErrClosed) {
			t.Fatalf("periodic Checkpoint after Close: err = %v, want ErrClosed", err)
		}
		sameContents(t, closed, dirContents(t, st.SnapshotDir, st.WALDir))

		last := s.wlog.LastLSN()
		back := NewTenants()
		if _, lsn, err := back.loadBudgets(st.SnapshotDir); err != nil || lsn != last {
			t.Fatalf("round %d: tenants.json covers lsn %d (err %v), want the journal's last %d", round, lsn, err, last)
		}
		if got, _ := back.Lookup("acme"); got.Session.Spent() != 10 {
			t.Fatalf("round %d: tenants.json holds spend %v, want 10", round, got.Session.Spent())
		}
		s2, _ := openServer(t, st)
		readings, ok := s2.Streams().Lookup("readings")
		if !ok {
			t.Fatalf("round %d: stream snapshot lost", round)
		}
		if readings.WALLSN() != last || readings.Merged().Len() != 50 {
			t.Fatalf("round %d: stream snapshot covers lsn %d and %d records, want lsn %d and 50 records",
				round, readings.WALLSN(), readings.Merged().Len(), last)
		}
	}
}

// TestCheckpointAfterCloseWritesNothing: Close is final. A Checkpoint (or a
// second Close) afterwards is refused and leaves both directories byte for
// byte as Close left them.
func TestCheckpointAfterCloseWritesNothing(t *testing.T) {
	st := Storage{SnapshotDir: t.TempDir(), WALDir: t.TempDir(), Fsync: true}
	s, ts := openServer(t, st)
	createTenant(t, ts.URL, "acme", 4.0)
	createStream(t, ts.URL, streamRequest{Name: "readings", Schema: testStreamSchema()})
	ingestRows(t, ts.URL, "readings", streamRows(20))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, st.SnapshotDir, st.WALDir)
	if err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: err = %v, want ErrClosed", err)
	}
	sameContents(t, before, dirContents(t, st.SnapshotDir, st.WALDir))
}

// sameContents fails unless nothing was written since Close left before.
func sameContents(t *testing.T, before, after map[string][]byte) {
	t.Helper()
	if len(after) != len(before) {
		t.Fatalf("files after Close changed from %d to %d", len(before), len(after))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Fatalf("%s changed after Close", name)
		}
	}
}

// dirContents maps every file under dirs to its bytes.
func dirContents(t *testing.T, dirs ...string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[path] = data
		}
	}
	return out
}

// TestTenantsDeclare pins the one lifetime-total rule: an absent tenant is
// created, the same total keeps the tenant and its spend, any other total
// is an error, and so is a total that is not finite and positive — for
// Create too.
func TestTenantsDeclare(t *testing.T) {
	ts := NewTenants()
	a, created, err := ts.Declare("acme", 2)
	if err != nil || !created {
		t.Fatalf("first Declare: created=%v err=%v, want a new tenant", created, err)
	}
	if err := a.Session.RestoreSpent(0.5); err != nil {
		t.Fatal(err)
	}
	again, created, err := ts.Declare("acme", 2)
	if err != nil || created || again != a || again.Session.Spent() != 0.5 {
		t.Fatalf("same-total Declare: created=%v err=%v spent=%v, want the existing tenant untouched",
			created, err, again.Session.Spent())
	}
	if _, _, err := ts.Declare("acme", 3); err == nil {
		t.Fatal("Declare with a different total: want an error")
	}
	if _, err := ts.Create("acme", 2); err == nil {
		t.Fatal("Create of an existing tenant: want an error")
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, _, err := ts.Declare("x", bad); err == nil {
			t.Errorf("Declare(x, %v) accepted", bad)
		}
		if _, err := ts.Create("x", bad); err == nil {
			t.Errorf("Create(x, %v) accepted", bad)
		}
	}
	if _, ok := ts.Lookup("x"); ok {
		t.Fatal("a refused budget registered its tenant")
	}
}
