package stream

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"funcmech"
)

func testSchema() funcmech.Schema {
	return funcmech.Schema{
		Features: []funcmech.Attribute{
			{Name: "age", Min: 16, Max: 95},
			{Name: "hours", Min: 0, Max: 99},
		},
		Target: funcmech.Attribute{Name: "income", Min: 0, Max: 100000},
	}
}

// width is a test record's width: two features and the target.
const width = 3

// testRows builds n deterministic raw records (features..., target) as one
// flat row-major batch.
func testRows(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float64, 0, n*width)
	for i := 0; i < n; i++ {
		age := 16 + rng.Float64()*79
		hours := rng.Float64() * 99
		income := 900*age + 300*hours + 2000*rng.NormFloat64()
		flat = append(flat, age, hours, math.Min(math.Max(income, 0), 100000))
	}
	return flat
}

// records returns records [lo, hi) of a flat batch.
func records(flat []float64, lo, hi int) []float64 { return flat[lo*width : hi*width] }

// datasetOf builds a one-shot dataset holding the records of a flat batch.
func datasetOf(flat []float64) *funcmech.Dataset {
	ds := funcmech.NewDataset(testSchema())
	for r := 0; r < len(flat); r += width {
		ds.Append(flat[r:r+width-1], flat[r+width-1])
	}
	return ds
}

func TestShardCapEnforced(t *testing.T) {
	if _, err := New("big", Config{Schema: testSchema(), Shards: MaxShards + 1}); err == nil {
		t.Fatal("expected error for shard count beyond MaxShards")
	}
	if _, err := New("ok", Config{Schema: testSchema(), Shards: MaxShards}); err != nil {
		t.Fatal(err)
	}
}

// TestIngestFlatGatedRunsGateUnderShardLock: the gate fires exactly once per
// accepted batch (and not at all for rejected ones), and its release runs
// before IngestFlatGated returns.
func TestIngestFlatGatedRunsGateUnderShardLock(t *testing.T) {
	s, err := New("g", Config{Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	var acquired, released int
	gate := func() func() {
		acquired++
		return func() { released++ }
	}
	if _, err := s.IngestFlatGated(testRows(5, 1), gate); err != nil {
		t.Fatal(err)
	}
	if acquired != 1 || released != 1 {
		t.Fatalf("gate acquired=%d released=%d, want 1/1", acquired, released)
	}
	if _, err := s.IngestFlatGated([]float64{1, 2}, gate); err == nil {
		t.Fatal("expected rejection for ragged batch")
	}
	if acquired != 1 {
		t.Fatalf("gate fired for a rejected batch (acquired=%d)", acquired)
	}
}

// TestNewRefusesNonFiniteThreshold: the threshold shapes every boolean
// fold for the stream's lifetime, so a NaN or infinite one is refused when
// the stream is made, before any record arrives.
func TestNewRefusesNonFiniteThreshold(t *testing.T) {
	for _, th := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New("th", Config{Schema: testSchema(), BinarizeThreshold: &th}); err == nil {
			t.Errorf("New accepted binarize threshold %v", th)
		}
	}
}

func TestStreamNameValidation(t *testing.T) {
	for _, bad := range []string{"", ".hidden", "a/b", "a b", "-dash", strings.Repeat("x", 65)} {
		if _, err := New(bad, Config{Schema: testSchema()}); err == nil {
			t.Errorf("name %q: expected error", bad)
		}
	}
	if _, err := New("ok-1.2_3", Config{Schema: testSchema()}); err != nil {
		t.Fatal(err)
	}
}

func TestIngestAllOrNothing(t *testing.T) {
	s, err := New("t", Config{Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestFlat(nil); err == nil {
		t.Fatal("empty batch: expected error")
	}
	// A bad record anywhere rejects the whole batch.
	bad := []float64{20, 40, 1000, 21, 41}
	if _, err := s.IngestFlat(bad); err == nil {
		t.Fatal("short record: expected error")
	}
	nan := []float64{20, 40, 1000, 21, 41, math.NaN()}
	if _, err := s.IngestFlat(nan); err == nil {
		t.Fatal("NaN record: expected error")
	}
	if records, batches := s.Counts(); records != 0 || batches != 0 || s.Merged().Len() != 0 {
		t.Fatalf("rejected batches mutated the stream: records=%d batches=%d len=%d",
			records, batches, s.Merged().Len())
	}

	n, err := s.IngestFlat(testRows(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	records, batches := s.Counts()
	if n != 10 || records != 10 || batches != 1 {
		t.Fatalf("accepted=%d records=%d batches=%d, want 10/10/1", n, records, batches)
	}
}

// TestConcurrentIngestExactCounts: many goroutines ingesting batches across
// shards lose nothing — the invariant the serving layer's counters assert.
func TestConcurrentIngestExactCounts(t *testing.T) {
	s, err := New("t", Config{Schema: testSchema(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const workers, batches, rows = 8, 20, 17
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if _, err := s.IngestFlat(testRows(rows, int64(w*1000+b))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := uint64(workers * batches * rows)
	records, accepted := s.Counts()
	if records != want {
		t.Fatalf("records = %d, want %d", records, want)
	}
	if got := s.Merged().Len(); uint64(got) != want {
		t.Fatalf("Merged().Len() = %d, want %d", got, want)
	}
	if accepted != workers*batches {
		t.Fatalf("batches = %d, want %d", accepted, workers*batches)
	}
}

// TestSingleShardRefitBitIdenticalToOneShot: the package-comment promise —
// with one shard, a refit equals a one-shot serial fit over the records in
// arrival order, bit for bit, however ingestion was batched.
func TestSingleShardRefitBitIdenticalToOneShot(t *testing.T) {
	rows := testRows(600, 2)
	s, err := New("t", Config{Schema: testSchema(), Intercept: true})
	if err != nil {
		t.Fatal(err)
	}
	// Uneven batching must not matter on a single shard.
	for _, cut := range [][2]int{{0, 100}, {100, 101}, {101, 350}, {350, 600}} {
		if _, err := s.IngestFlat(records(rows, cut[0], cut[1])); err != nil {
			t.Fatal(err)
		}
	}

	m1, _, err := funcmech.LinearRegression(datasetOf(rows), 0.9,
		funcmech.WithSeed(11), funcmech.WithParallelism(1), funcmech.WithIntercept())
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := funcmech.FitTaskFromAccumulator(s.Merged(), "linear", 0.9, funcmech.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := m1.Weights(), m2.Weights()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d: one-shot %v vs refit %v (want bit-identical)", i, w1[i], w2[i])
		}
	}
}

// TestShardedRefitMatchesOneShotToRoundOff: with several shards the
// summation tree differs, so agreement is to round-off — the same contract
// WithParallelism documents.
func TestShardedRefitMatchesOneShotToRoundOff(t *testing.T) {
	rows := testRows(900, 3)
	s, err := New("t", Config{Schema: testSchema(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i += 90 {
		if _, err := s.IngestFlat(records(rows, i, i+90)); err != nil {
			t.Fatal(err)
		}
	}
	m1, _, err := funcmech.LinearRegression(datasetOf(rows), 0.9, funcmech.WithSeed(5), funcmech.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := funcmech.FitTaskFromAccumulator(s.Merged(), "linear", 0.9, funcmech.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := m1.Weights(), m2.Weights()
	for i := range w1 {
		if d := math.Abs(w1[i] - w2[i]); d > 1e-9*math.Max(1, math.Abs(w1[i])) {
			t.Fatalf("weight %d: %v vs %v (diff %v beyond round-off)", i, w1[i], w2[i], d)
		}
	}
}

// TestSnapshotRoundTrip: save → load preserves counts, metadata, and — the
// restart contract — refit weights bit-identically.
func TestSnapshotRoundTrip(t *testing.T) {
	th := 50000.0
	s, err := New("trip", Config{Schema: testSchema(), Intercept: true, BinarizeThreshold: &th, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(300, 4)
	for i := 0; i < 300; i += 60 {
		if _, err := s.IngestFlat(records(rows, i, i+60)); err != nil {
			t.Fatal(err)
		}
	}
	m1, _, err := funcmech.FitTaskFromAccumulator(s.Merged(), "logistic", 1.0, funcmech.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	records, batches := s.Counts()
	s.RecordRefit(RefitInfo{Model: "logistic", Tenant: "acme", Epsilon: 1.0, Records: records})

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r, b := back.Counts(); back.Name() != "trip" || r != records || b != batches || back.Refits() != 1 {
		t.Fatalf("restored metadata drifted: %s %d/%d/%d", back.Name(), r, b, back.Refits())
	}
	cfg := back.Config()
	if !cfg.Intercept || cfg.BinarizeThreshold == nil || *cfg.BinarizeThreshold != th || cfg.Shards != 3 {
		t.Fatalf("restored config drifted: %+v", cfg)
	}
	if last, ok := back.LastRefit(); !ok || last.Model != "logistic" || last.Tenant != "acme" {
		t.Fatalf("last refit drifted: %+v ok=%v", last, ok)
	}

	m2, _, err := funcmech.FitTaskFromAccumulator(back.Merged(), "logistic", 1.0, funcmech.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := m1.Weights(), m2.Weights()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d changed across snapshot restart: %v vs %v", i, w1[i], w2[i])
		}
	}

	// Ingestion resumes on the restored stream.
	if _, err := back.IngestFlat(testRows(10, 5)); err != nil {
		t.Fatal(err)
	}
	if r, _ := back.Counts(); r != records+10 {
		t.Fatalf("post-restore ingest: records=%d, want %d", r, records+10)
	}
}

func TestSnapshotVersionMismatchTyped(t *testing.T) {
	s, err := New("v", Config{Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestFlat(testRows(5, 6)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(buf.String(), `"version":1}`, `"version":99}`, 1)
	if _, err := ReadSnapshot(strings.NewReader(tampered)); !errors.Is(err, funcmech.ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
}

func TestStoreSaveLoadAll(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	for _, name := range []string{"a", "b"} {
		s, err := reg.Create(name, Config{Schema: testSchema()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.IngestFlat(testRows(25, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SaveAll(reg, 0); err != nil {
		t.Fatal(err)
	}
	// A stray file must be ignored.
	if err := os.WriteFile(filepath.Join(st.Dir(), "README"), []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}

	back := NewRegistry()
	n, err := st.LoadAll(back)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d streams, want 2", n)
	}
	records, batches := back.Totals()
	if records != 50 || batches != 2 {
		t.Fatalf("restored totals records=%d batches=%d, want 50/2", records, batches)
	}
	if _, ok := back.Lookup("a"); !ok {
		t.Fatal("stream a missing after restore")
	}
}

func TestRegistryDuplicate(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Create("dup", Config{Schema: testSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("dup", Config{Schema: testSchema()}); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestAdvanceSeqMonotone(t *testing.T) {
	s, err := New("seq", Config{Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestFlat(testRows(5, 3)); err != nil {
		t.Fatal(err)
	}
	s.AdvanceSeq(9, 4) // WAL replay: batches whose coefficients died
	if r, b := s.Counts(); r != 9 || b != 4 {
		t.Fatalf("Counts = %d/%d after AdvanceSeq(9,4), want 9/4", r, b)
	}
	s.AdvanceSeq(2, 1) // stale journal record: never rewinds
	if r, b := s.Counts(); r != 9 || b != 4 {
		t.Fatalf("Counts = %d/%d after stale AdvanceSeq, want 9/4 unchanged", r, b)
	}
	// New ingest keeps counting from the advanced sequence.
	if _, err := s.IngestFlat(testRows(3, 2)); err != nil {
		t.Fatal(err)
	}
	if r, _ := s.Counts(); r != 12 {
		t.Fatalf("records = %d after post-advance ingest, want 12", r)
	}
}

func TestSnapshotCarriesSeqAndWALLSN(t *testing.T) {
	s, err := New("seq", Config{Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestFlat(testRows(5, 3)); err != nil {
		t.Fatal(err)
	}
	s.AdvanceSeq(9, 4)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf, 77); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.WALLSN(); got != 77 {
		t.Fatalf("WALLSN = %d, want 77", got)
	}
	if r, b := back.Counts(); r != 9 || b != 4 {
		t.Fatalf("restored sequence = %d/%d, want 9/4 (never rewound by restore)", r, b)
	}
	if got := back.Merged().Len(); got != 5 {
		t.Fatalf("restored coefficients cover %d records, want the 5 actually folded", got)
	}
}
