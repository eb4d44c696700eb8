package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"funcmech/internal/wal"
)

// TestLedgerModel is a seeded, replayable model check of the ε ledger. Each
// seed drives a random sequence of operations through the code fmserve
// runs: Open, the HTTP handler, Checkpoint, crashes (the Server dropped
// without Close and reopened from the same directories) and clean restarts.
// A model predicts every response, and after every step the test checks,
// per tenant:
//
//   - the journal's charge events, Session spend and fm_epsilon_spent agree;
//   - each 2xx release added exactly one charge of its cost (2ε for
//     resample), and so did a 422 answered after its charge;
//   - a request refused before its charge (400, 402, 404) added none,
//     an ε whose Laplace scale overflows at d among them;
//   - spend never exceeds the budget.
//
// Steps run one at a time, so nothing is in flight at a crash and the
// recovered spend must equal the acknowledged spend exactly. A failure names
// the seed and the operations up to the failing step; rerun one seed with
// -run 'TestLedgerModel/seed=N'.
func TestLedgerModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := &ledgerModel{
				t:       t,
				seed:    seed,
				rng:     rand.New(rand.NewSource(seed)),
				st:      Storage{SnapshotDir: t.TempDir(), WALDir: t.TempDir(), Fsync: true},
				tenants: make(map[string]*ledgerTenant),
				charges: make(map[uint64]wal.Event),
				live:    -1,
				saved:   -1,
			}
			m.boot("open")
			for step := 0; step < 120; step++ {
				m.step()
			}
		})
	}
}

// ledgerTenant is the model of one tenant: its lifetime budget and the
// spend the server acknowledged, summed in charge order like the Session.
type ledgerTenant struct {
	total, spent float64
}

type ledgerModel struct {
	t       *testing.T
	seed    int64
	rng     *rand.Rand
	st      Storage
	srv     *Server
	ops     []string
	tenants map[string]*ledgerTenant
	charges map[uint64]wal.Event // every charge ever journaled, by LSN
	// live and saved are the records in the stream's fold in memory and in
	// its last snapshot; -1 means no such stream or no snapshot.
	live, saved int
}

func (m *ledgerModel) fail(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d, step %d: %s\noperations:\n  %s",
		m.seed, len(m.ops), fmt.Sprintf(format, args...), strings.Join(m.ops, "\n  "))
}

// boot opens the directories as fmserve does, registers the dataset that
// -gen would (datasets are not durable), and checks the recovered ledger.
func (m *ledgerModel) boot(op string) {
	m.ops = append(m.ops, op)
	srv, err := Open(Config{}, m.st)
	if err != nil {
		m.fail("Open: %v", err)
	}
	m.srv = srv
	m.live = m.saved
	m.request(http.MethodPost, "/v1/datasets", toyDataset(), http.StatusCreated)
	m.checkCharges(0, "", "", 0)
	m.check()
}

func (m *ledgerModel) pick(names ...string) string { return names[m.rng.Intn(len(names))] }

func (m *ledgerModel) step() {
	switch r := m.rng.Intn(20); {
	case r < 3:
		name, budget := m.pick("a", "b", "c"), []float64{1, 2.5, 4, 0}[m.rng.Intn(4)]
		want := http.StatusCreated
		switch {
		case m.tenants[name] != nil: // whatever the budget
			want = http.StatusConflict
		case budget == 0:
			want = http.StatusBadRequest
		}
		m.ops = append(m.ops, fmt.Sprintf("tenant %s budget %v", name, budget))
		m.request(http.MethodPost, "/v1/tenants", tenantRequest{Name: name, Budget: budget}, want)
		if want == http.StatusCreated {
			m.tenants[name] = &ledgerTenant{total: budget}
		}
		m.checkCharges(0, "", "", 0)
	case r < 10:
		m.release(false)
	case r < 12:
		if m.live < 0 {
			m.ops = append(m.ops, "create stream")
			m.request(http.MethodPost, "/v1/streams", streamRequest{Name: "readings", Schema: testStreamSchema()}, http.StatusCreated)
			m.live = 0
		}
		m.ops = append(m.ops, "ingest 20 rows")
		m.request(http.MethodPost, "/v1/streams/readings/ingest", map[string]any{"rows": streamRows(20)}, http.StatusOK)
		m.live += 20
		m.checkCharges(0, "", "", 0)
	case r < 15:
		m.release(true)
	case r < 17:
		m.ops = append(m.ops, "checkpoint")
		if err := m.srv.Checkpoint(); err != nil {
			m.fail("Checkpoint: %v", err)
		}
		m.saved = m.live
	case r < 19:
		m.boot("crash") // the old Server is dropped without Close
		return
	default:
		m.ops = append(m.ops, "close")
		if err := m.srv.Close(); err != nil {
			m.fail("Close: %v", err)
		}
		m.saved = m.live
		m.boot("open")
		return
	}
	m.check()
}

// release sends one fit or refit the model prices: a valid release, a
// malformed one (400), one whose ε gives an infinite Laplace scale at d
// (400, refused with the malformed ones before admission), one far over
// budget (402), a logistic fit that fails after its charge (422), or one
// for an unknown tenant (404).
func (m *ledgerModel) release(refit bool) {
	name := m.pick("a", "b", "c", "z")
	tenant := m.tenants[name]
	eps := []float64{0.25, 0.5, 1}[m.rng.Intn(3)]
	model, post := "linear", m.pick("", "", "resample")
	kind := m.pick("valid", "valid", "valid", "malformed", "overflow", "over", "fails")
	switch kind {
	case "malformed":
		eps = -1
	case "overflow":
		eps = 1e-320
	case "over":
		eps = 8 // above every budget the model creates
	case "fails":
		model = "logistic" // the targets are not binary
	}
	cost := eps
	if post == "resample" {
		cost *= 2
	}
	want, charged := http.StatusOK, true
	if kind == "fails" {
		want = http.StatusUnprocessableEntity
	}
	switch {
	case refit && m.live < 0, tenant == nil:
		want, charged = http.StatusNotFound, false
	case kind == "malformed", kind == "overflow", refit && m.live == 0:
		want, charged = http.StatusBadRequest, false
	case tenant.spent+cost > tenant.total:
		want, charged = http.StatusPaymentRequired, false
	}
	path, op, ref := "/v1/fit", wal.OpFit, "toy"
	var body any = fitRequest{Tenant: name, Dataset: ref, Model: model, Epsilon: eps, Options: fitOptions{PostProcess: post}}
	if refit {
		path, op, ref = "/v1/streams/readings/refit", wal.OpRefit, "readings"
		body = refitRequest{Tenant: name, Model: model, Epsilon: eps, Options: refitOptions{PostProcess: post}}
	}
	m.ops = append(m.ops, fmt.Sprintf("%s %s tenant %s ε %v %s (%s)", op, model, name, eps, post, kind))
	m.request(http.MethodPost, path, body, want)
	if !charged {
		m.checkCharges(0, "", "", 0)
		return
	}
	tenant.spent += cost
	m.checkCharges(1, name, op+" "+ref, cost)
}

// request serves one request in process and checks its status.
func (m *ledgerModel) request(method, path string, body any, want int) {
	m.t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		m.t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	m.srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	m.ops[len(m.ops)-1] += fmt.Sprintf(" → %d", rec.Code)
	if rec.Code != want {
		m.fail("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body)
	}
}

// checkCharges reads the journal and checks that the last step added
// exactly n charge events, each of cost ε for tenant with the given
// "op ref". LSNs are never reused, so an LSN already seen must carry the
// event it carried before.
func (m *ledgerModel) checkCharges(n int, tenant, opRef string, cost float64) {
	m.t.Helper()
	var added []wal.Event
	if _, err := wal.Replay(m.st.WALDir, func(ev wal.Event) error {
		if ev.Kind != wal.EventCharge {
			return nil
		}
		if old, ok := m.charges[ev.LSN]; !ok {
			added = append(added, ev)
			m.charges[ev.LSN] = ev
		} else if old != ev {
			m.fail("lsn %d reused: journaled %+v, then %+v", ev.LSN, old, ev)
		}
		return nil
	}); err != nil {
		m.fail("replaying the journal: %v", err)
	}
	if len(added) != n {
		m.fail("the step journaled %d charges, want %d: %+v", len(added), n, added)
	}
	for _, ev := range added {
		if ev.Tenant != tenant || ev.Op+" "+ev.Ref != opRef || ev.Epsilon != cost {
			m.fail("journaled %+v, want a %s charge of %v for %s", ev, opRef, cost, tenant)
		}
	}
}

// check compares every tenant's spend across the model, the Session, the
// journal's charges and /metrics, and the stream's fold with the model.
func (m *ledgerModel) check() {
	m.t.Helper()
	journaled := make(map[string]float64) // every ε is dyadic, so sums are exact in any order
	for _, ev := range m.charges {
		journaled[ev.Tenant] += ev.Epsilon
	}
	metrics := scrapeMetrics(m.t, m.srv)
	if got := len(m.srv.Tenants().All()); got != len(m.tenants) {
		m.fail("server has %d tenants, model %d", got, len(m.tenants))
	}
	for name, want := range m.tenants {
		t, ok := m.srv.Tenants().Lookup(name)
		if !ok {
			m.fail("tenant %s lost", name)
		}
		spent := t.Session.Spent()
		metric := metrics[fmt.Sprintf("fm_epsilon_spent{tenant=%q}", name)]
		switch {
		case spent != want.spent:
			m.fail("tenant %s: Session spend %v, acknowledged %v", name, spent, want.spent)
		case journaled[name] != spent:
			m.fail("tenant %s: journaled charges sum to %v, Session spend %v", name, journaled[name], spent)
		case metric != spent:
			m.fail("tenant %s: fm_epsilon_spent %v, Session spend %v", name, metric, spent)
		case spent > t.Session.Total():
			m.fail("tenant %s: spend %v exceeds budget %v", name, spent, t.Session.Total())
		}
	}
	st, ok := m.srv.Streams().Lookup("readings")
	switch {
	case ok != (m.live >= 0):
		m.fail("stream present = %v, model has %d records", ok, m.live)
	case ok && st.Merged().Len() != m.live:
		m.fail("stream fold holds %d records, model %d", st.Merged().Len(), m.live)
	}
}

// toyDataset registers 200 noiseless linear rows as dataset "toy".
func toyDataset() datasetRequest {
	return datasetRequest{Name: "toy", Schema: testStreamSchema(), Rows: streamRows(200)}
}
