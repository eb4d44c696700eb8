package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"funcmech"
	"funcmech/internal/stream"
	"funcmech/internal/wal"
)

// openServer is newTestServer for a Server restored by Open from st, as
// fmserve boots. Dropping the returned Server without Close is a crash.
func openServer(t *testing.T, st Storage) (*Server, *httptest.Server) {
	t.Helper()
	s, err := Open(Config{}, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newWALServer is openServer over a journal alone, as fmserve -wal-dir.
func newWALServer(t *testing.T, dir string) (*Server, *httptest.Server, *wal.Log) {
	t.Helper()
	s, ts := openServer(t, Storage{WALDir: dir, Fsync: true})
	return s, ts, s.wlog
}

func ingestRows(t *testing.T, base, name string, rows [][]float64) {
	t.Helper()
	resp := postJSON(t, base+"/v1/streams/"+name+"/ingest", map[string]any{"rows": rows})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
}

func streamRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		x1 := float64(i%10) + 0.5
		x2 := float64(i%5) + 0.25
		rows[i] = []float64{x1, x2, 3*x1 + 2*x2}
	}
	return rows
}

// TestWALJournalsEveryPrivacyEvent drives the full handler surface and then
// reads the journal back: every admitted charge (with its true cost, the
// resample doubling included), the tenant registration, and the ingest
// sequence must all be provable from disk.
func TestWALJournalsEveryPrivacyEvent(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := newWALServer(t, dir)
	createTenant(t, ts.URL, "acme", 4.0)
	registerRowsDataset(t, ts.URL, "toy", 200)
	createStream(t, ts.URL, streamRequest{Name: "readings", Schema: testStreamSchema()})
	ingestRows(t, ts.URL, "readings", streamRows(30))

	fit := func(eps float64, post string) {
		resp := postJSON(t, ts.URL+"/v1/fit", fitRequest{
			Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: eps,
			Options: fitOptions{PostProcess: post, Seed: ptr(int64(3))},
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fit: status %d", resp.StatusCode)
		}
	}
	fit(0.5, "")
	fit(0.25, "resample") // costs 0.5 (Lemma 5)

	resp := postJSON(t, ts.URL+"/v1/streams/readings/refit", refitRequest{
		Tenant: "acme", Model: "linear", Epsilon: 0.75,
		Options: refitOptions{Seed: ptr(int64(3))},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refit: status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var tenants, charges, ingests []wal.Event
	if _, err := wal.Replay(dir, func(ev wal.Event) error {
		switch ev.Kind {
		case wal.EventTenant:
			tenants = append(tenants, ev)
		case wal.EventCharge:
			charges = append(charges, ev)
		case wal.EventIngest:
			ingests = append(ingests, ev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 1 || tenants[0].Tenant != "acme" || tenants[0].Total != 4.0 {
		t.Fatalf("tenant events = %+v, want one acme/4.0 registration", tenants)
	}
	wantCharges := []wal.Event{
		{Kind: wal.EventCharge, Tenant: "acme", Op: wal.OpFit, Ref: "toy", Epsilon: 0.5},
		{Kind: wal.EventCharge, Tenant: "acme", Op: wal.OpFit, Ref: "toy", Epsilon: 0.5}, // 2×0.25
		{Kind: wal.EventCharge, Tenant: "acme", Op: wal.OpRefit, Ref: "readings", Epsilon: 0.75},
	}
	if len(charges) != len(wantCharges) {
		t.Fatalf("journaled %d charges, want %d: %+v", len(charges), len(wantCharges), charges)
	}
	var journaled float64
	for i, got := range charges {
		want := wantCharges[i]
		want.LSN = got.LSN
		if got != want {
			t.Fatalf("charge %d = %+v, want %+v", i, got, want)
		}
		journaled += got.Epsilon
	}
	tenant, _ := s.Tenants().Lookup("acme")
	if spent := tenant.Session.Spent(); math.Abs(spent-journaled) > 1e-15 {
		t.Fatalf("in-memory spend %v disagrees with journaled total %v", spent, journaled)
	}
	if len(ingests) != 1 || ingests[0].Ref != "readings" || ingests[0].Seq != 30 || ingests[0].Batches != 1 {
		t.Fatalf("ingest events = %+v, want one readings/30/1", ingests)
	}
}

// TestWALCrashRecoveryExactSpend is the headline bug: no snapshot was ever
// written, the process dies hard, and the restarted server must still know
// the tenant and its exact ε-spend — and keep enforcing the lifetime budget
// where the pre-WAL code would happily have re-spent it. These are the
// first two phases of scripts/e2e_crash.sh.
func TestWALCrashRecoveryExactSpend(t *testing.T) {
	st := Storage{SnapshotDir: t.TempDir(), WALDir: t.TempDir(), Fsync: true}
	_, ts := openServer(t, st)
	createTenant(t, ts.URL, "acme", 4.0)
	registerRowsDataset(t, ts.URL, "toy", 200)
	for i := 0; i < 3; i++ {
		if code := fitStatus(t, ts.URL, "acme", 0.5, ""); code != http.StatusOK {
			t.Fatalf("fit %d: status %d", i, code)
		}
	}
	// kill -9: no drain, no snapshot, no Close. Every charge was fsynced
	// before its fit drew noise, so the journal alone carries the truth.
	if applied, last, err := New(Config{}).replayWAL(st.WALDir, 0); err != nil || applied != 4 || last == 0 {
		t.Fatalf("replay applied %d events up to lsn %d (err %v), want 1 registration + 3 charges", applied, last, err)
	}

	s2, ts2 := openServer(t, st)
	tenant, ok := s2.Tenants().Lookup("acme")
	if !ok {
		t.Fatal("tenant not recreated from journal")
	}
	if got := tenant.Session.Spent(); got != 1.5 {
		t.Fatalf("recovered spend = %v, want exactly 1.5", got)
	}
	if got := tenant.Session.Total(); got != 4.0 {
		t.Fatalf("recovered total = %v, want 4.0", got)
	}

	// The recovered accountant keeps enforcing: 2.5 remain, so 3.0 must 402.
	registerRowsDataset(t, ts2.URL, "toy", 200)
	resp := postJSON(t, ts2.URL+"/v1/fit", fitRequest{
		Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 3.0,
	})
	body := decode[errorResponse](t, resp)
	if resp.StatusCode != http.StatusPaymentRequired || body.Error.Code != codeBudgetExhausted {
		t.Fatalf("over-budget fit after recovery: status %d code %q", resp.StatusCode, body.Error.Code)
	}
}

// fitStatus posts one linear fit on dataset "toy" and returns its status.
func fitStatus(t *testing.T, base, tenant string, eps float64, post string) int {
	t.Helper()
	resp := postJSON(t, base+"/v1/fit", fitRequest{
		Tenant: tenant, Dataset: "toy", Model: "linear", Epsilon: eps,
		Options: fitOptions{PostProcess: post},
	})
	resp.Body.Close()
	return resp.StatusCode
}

// spentOf returns a tenant's recovered spend, failing if it is unknown.
func spentOf(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	tenant, ok := s.Tenants().Lookup(name)
	if !ok {
		t.Fatalf("tenant %q missing after boot", name)
	}
	return tenant.Session.Spent()
}

// TestWALReplayIdempotentAcrossSnapshotBoundary covers the wal_lsn gate: a
// Checkpoint folds a prefix of the journal into tenants.json, replay applies
// only the suffix, and every later boot — after a crash or a Close —
// reproduces the identical spend (e2e_crash.sh's clean-restart phases).
func TestWALReplayIdempotentAcrossSnapshotBoundary(t *testing.T) {
	st := Storage{SnapshotDir: t.TempDir(), WALDir: t.TempDir(), Fsync: true}
	s1, ts := openServer(t, st)
	createTenant(t, ts.URL, "acme", 4.0)
	registerRowsDataset(t, ts.URL, "toy", 200)
	createStream(t, ts.URL, streamRequest{Name: "readings", Schema: testStreamSchema()})
	ingestRows(t, ts.URL, "readings", streamRows(30))
	for i := 0; i < 2; i++ {
		if code := fitStatus(t, ts.URL, "acme", 0.25, ""); code != http.StatusOK {
			t.Fatalf("fit: status %d", code)
		}
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	covered := s1.wlog.LastLSN()
	// Journaled but not snapshotted: only replay can recover it.
	if code := fitStatus(t, ts.URL, "acme", 0.25, ""); code != http.StatusOK {
		t.Fatalf("fit: status %d", code)
	}

	s, ts := openServer(t, st)
	if _, lsn, err := NewTenants().loadBudgets(st.SnapshotDir); err != nil || lsn != covered {
		t.Fatalf("tenants.json covers wal lsn %d (err %v), want %d", lsn, err, covered)
	}
	if got := spentOf(t, s, "acme"); got != 0.75 {
		t.Fatalf("recovered spend = %v, want exactly 0.75 (2 snapshotted + 1 replayed)", got)
	}
	// Only Close's final pass can save these.
	ingestRows(t, ts.URL, "readings", streamRows(10))
	for _, restart := range []string{"clean", "clean", "crash"} {
		if restart == "clean" {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		s, _ = openServer(t, st)
		if got := spentOf(t, s, "acme"); got != 0.75 {
			t.Fatalf("spend after a %s restart = %v, want 0.75 (replay not idempotent)", restart, got)
		}
		readings, ok := s.Streams().Lookup("readings")
		if !ok {
			t.Fatalf("stream lost in a %s restart", restart)
		}
		if records, _ := readings.Counts(); records != 40 || readings.Merged().Len() != 40 {
			t.Fatalf("stream after a %s restart: %d records, %d folded; want 40",
				restart, records, readings.Merged().Len())
		}
	}
}

// TestWALIngestReplayRespectsStreamIncarnations: journal records from a
// crash-lost incarnation of a stream name must not advance a recreated
// stream restored from its own (later) snapshot — the snapshot's wal_lsn is
// the gate — while genuinely uncovered records do advance the sequence.
func TestWALIngestReplayRespectsStreamIncarnations(t *testing.T) {
	dir := t.TempDir()
	snapDir := t.TempDir()

	// Incarnation 1: 30 records journaled, then a hard kill with no snapshot.
	_, ts1, _ := newWALServer(t, dir)
	createStream(t, ts1.URL, streamRequest{Name: "readings", Schema: testStreamSchema()})
	ingestRows(t, ts1.URL, "readings", streamRows(30))

	// Incarnation 2: replay skips the orphan events (no such stream), the
	// name is recreated, 10 records arrive, and a snapshot covers them.
	s2 := New(Config{})
	if _, _, err := s2.replayWAL(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Streams().Lookup("readings"); ok {
		t.Fatal("replay resurrected a stream whose data died with the crash")
	}
	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2.UseWAL(l2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	createStream(t, ts2.URL, streamRequest{Name: "readings", Schema: testStreamSchema()})
	ingestRows(t, ts2.URL, "readings", streamRows(10))
	store, err := stream.NewStore(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	covered := l2.LastLSN()
	if err := store.SaveAll(s2.Streams(), covered); err != nil {
		t.Fatal(err)
	}
	// One more batch after the snapshot — journaled, coefficients lost.
	ingestRows(t, ts2.URL, "readings", streamRows(5))
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 3 restores the snapshot and replays: the 30 records of the
	// dead incarnation stay dead (lsn ≤ wal_lsn gate), the 5 post-snapshot
	// records advance the sequence past what the coefficients cover.
	s3 := New(Config{})
	if _, err := store.LoadAll(s3.Streams()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s3.replayWAL(dir, 0); err != nil {
		t.Fatal(err)
	}
	st, ok := s3.Streams().Lookup("readings")
	if !ok {
		t.Fatal("stream not restored")
	}
	records, batches := st.Counts()
	if records != 15 {
		t.Fatalf("records = %d, want 15 (10 snapshotted + 5 replayed; 30 dead ones must not leak)", records)
	}
	if got := st.Merged().Len(); got != 10 {
		t.Fatalf("coefficients cover %d records, want the 10 the snapshot carried", got)
	}
	// The service-wide ingest totals are sums of the stream sequences, so
	// the replayed records count there too.
	m := scrapeMetrics(t, s3)
	if got := m["fm_ingest_records_total"]; got != 15 {
		t.Fatalf("fm_ingest_records_total = %v, want 15 (the stream's sequence)", got)
	}
	if got, want := m["fm_ingest_batches_total"], float64(batches); got != want {
		t.Fatalf("fm_ingest_batches_total = %v, want the stream's %v batches", got, want)
	}

	// Idempotence across a clean restart: snapshot again covering
	// everything, reboot, and nothing moves.
	if err := store.SaveAll(s3.Streams(), l2.LastLSN()); err != nil {
		t.Fatal(err)
	}
	s4 := New(Config{})
	if _, err := store.LoadAll(s4.Streams()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s4.replayWAL(dir, 0); err != nil {
		t.Fatal(err)
	}
	st4, _ := s4.Streams().Lookup("readings")
	if got, _ := st4.Counts(); got != 15 {
		t.Fatalf("records after second clean restart = %d, want 15 (idempotent)", got)
	}
}

// TestWriteChargeErrorMapping pins the typed error surface of the charge
// path: exhaustion → 402, journal failure → 500.
func TestWriteChargeErrorMapping(t *testing.T) {
	cases := []struct {
		err       error
		status    int
		code      string
		exhausted int64
	}{
		{fmt.Errorf("tenant: %w", funcmech.ErrBudgetExhausted), http.StatusPaymentRequired, codeBudgetExhausted, 1},
		{fmt.Errorf("%w: disk gone", errWALAppend), http.StatusInternalServerError, codeInternal, 0},
	}
	srv := New(Config{})
	for _, tc := range cases {
		tenant := &Tenant{Name: "t", Session: funcmech.NewSession(1)}
		rec := httptest.NewRecorder()
		srv.writeChargeError(rec, tenant, tc.err)
		if rec.Code != tc.status {
			t.Errorf("%v: status %d, want %d", tc.err, rec.Code, tc.status)
		}
		var body errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Error.Code != tc.code {
			t.Errorf("%v: code %q, want %q", tc.err, body.Error.Code, tc.code)
		}
		if got := tenant.Exhausted(); got != tc.exhausted {
			t.Errorf("%v: exhausted counter %d, want %d", tc.err, got, tc.exhausted)
		}
	}
}
