package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"funcmech"
	"funcmech/internal/obs"
	"funcmech/internal/stream"
	"funcmech/internal/wal"
)

// Config sizes a Server.
type Config struct {
	// WorkerCap is the Governor's token capacity, shared by fits in flight,
	// ingest folds and the fits' extra kernel workers. Excess fits queue
	// until a token frees or their context is cancelled. 0 means
	// GOMAXPROCS(0).
	WorkerCap int
}

// Server is the multi-tenant training service: an http.Handler over a
// dataset registry, a stream registry, a tenant directory and a parallelism
// governor. Construct with Open (durable state, see wal.go) or New, preload
// via Registry/Tenants/Streams, mount Handler.
type Server struct {
	registry *Registry
	streams  *stream.Registry
	tenants  *Tenants
	governor *Governor
	wlog     *wal.Log      // optional write-ahead log; see wal.go
	store    *stream.Store // optional snapshot directory; see Open
	ckptMu   sync.Mutex    // serializes Checkpoint and Close
	closed   bool          // set by Close, under ckptMu
	start    time.Time
	mux      *http.ServeMux
	metrics  *metrics      // Prometheus families behind GET /metrics
	recorder *obs.Recorder // trace ring behind GET /v1/debug/traces
}

// New returns a Server with empty registry and tenant directory.
func New(cfg Config) *Server {
	s := &Server{
		registry: NewRegistry(),
		streams:  stream.NewRegistry(),
		tenants:  NewTenants(),
		governor: NewGovernor(cfg.WorkerCap),
		start:    time.Now(),
		mux:      http.NewServeMux(),
	}
	s.recorder = obs.NewRecorder(traceRingSize, nil)
	s.metrics = newMetrics(s)
	s.mux.Handle("GET /metrics", s.metrics.reg)
	s.mux.Handle("GET /v1/debug/traces", s.recorder)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegisterDataset)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /v1/tenants", s.handleCreateTenant)
	s.mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	s.mux.HandleFunc("GET /v1/tenants/{name}", s.handleGetTenant)
	s.mux.HandleFunc("POST /v1/fit", s.handleFit)
	s.mux.HandleFunc("POST /v1/streams", s.handleCreateStream)
	s.mux.HandleFunc("GET /v1/streams", s.handleListStreams)
	s.mux.HandleFunc("POST /v1/streams/{name}/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/streams/{name}/refit", s.handleRefit)
	return s
}

// Registry returns the dataset registry, for startup preloading.
func (s *Server) Registry() *Registry { return s.registry }

// Streams returns the stream registry.
func (s *Server) Streams() *stream.Registry { return s.streams }

// Tenants returns the tenant directory, for startup preloading.
func (s *Server) Tenants() *Tenants { return s.tenants }

// Governor returns the admission gate.
func (s *Server) Governor() *Governor { return s.governor }

// Handler returns the service's HTTP routes, wrapped in the tracing and
// metrics middleware (see middleware.go).
func (s *Server) Handler() http.Handler { return s.traced(s.mux) }

// apiError is the typed error envelope every non-2xx response carries.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

// Error codes; the HTTP status is advisory, the code is the contract.
const (
	codeInvalidRequest  = "invalid_request"
	codeNotFound        = "not_found"
	codeConflict        = "conflict"
	codeBudgetExhausted = "budget_exhausted"
	codeFitFailed       = "fit_failed"
	codeInternal        = "internal"
	// codeUnknownTask is a 400 whose message enumerates the registered task
	// names — the machine-readable contract for clients probing the task
	// surface of a build.
	codeUnknownTask = "unknown_task"
)

// writeOptionsError maps a Release constructor's refusal of a fit or refit
// request (its model, its options, its ε at the release's d, or a refit's
// empty fold) to its wire code: an unknown task gets the dedicated
// unknown_task code, anything else is a plain invalid request. The refusal
// always comes before admission and the budget charge, so neither outcome
// consumes ε.
func (s *Server) writeOptionsError(w http.ResponseWriter, err error) {
	if errors.Is(err, funcmech.ErrUnknownTask) {
		s.writeError(w, http.StatusBadRequest, codeUnknownTask, "%v", err)
		return
	}
	s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // headers already sent; nothing useful left to do on error
}

// writeError writes the typed error envelope and counts the refusal by its
// code — a Server method so fm_refusals_total{reason} increments exactly
// where the API contract's error codes are assigned.
func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.metrics.refusals.With(code).Inc()
	writeJSON(w, status, errorResponse{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// decodeBody decodes the request body — one JSON value, then nothing but
// whitespace, within maxBodyBytes — into v, refusing unknown fields. On
// error the response has already been written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v); err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// decodeStrict decodes exactly one JSON value from r into v, refusing
// unknown fields and anything but whitespace after it: the JSON decode of
// every request body and of the fmbin registration's schema parameter.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Decode stops at the end of the first value; a second value or stray
	// bytes after it would otherwise be dropped unread.
	if _, err := dec.Token(); err == nil {
		return errors.New("trailing data after the JSON value")
	} else if err != io.EOF {
		return fmt.Errorf("after the JSON value: %w", err)
	}
	return nil
}

// GET /healthz

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// POST /v1/datasets

type generateJSON struct {
	Profile string `json:"profile"`
	N       int    `json:"n"`
	Seed    int64  `json:"seed"`
}

type datasetRequest struct {
	Name string `json:"name"`
	// Generate builds a synthetic census dataset server-side.
	Generate *generateJSON `json:"generate,omitempty"`
	// Schema+Rows register inline data: each row is the feature vector in
	// schema order with the target appended as the last element.
	Schema *funcmech.Schema `json:"schema,omitempty"`
	Rows   [][]float64      `json:"rows,omitempty"`
}

type datasetInfo struct {
	Name     string `json:"name"`
	Records  int    `json:"records"`
	Features int    `json:"features"`
}

// handleRegisterDataset registers a generated census dataset or inline
// rows; inline rows of either body type go through registerInline.
func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	if isFmbinRequest(r) {
		s.handleRegisterDatasetBinary(w, r)
		return
	}
	var req datasetRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset registration requires a name")
		return
	}
	switch {
	case req.Generate != nil && (req.Schema != nil || len(req.Rows) > 0):
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: generate and schema/rows are mutually exclusive", req.Name)
	case req.Generate != nil:
		ds, err := GenerateCensus(req.Generate.Profile, req.Generate.N, req.Generate.Seed)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
			return
		}
		s.register(w, req.Name, ds)
	case req.Schema != nil:
		if err := req.Schema.Validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: %v", req.Name, err)
			return
		}
		// Check each row's width as it is flattened, which a flat batch
		// cannot show; the buffer grows only by rows already decoded.
		want := len(req.Schema.Features) + 1
		var flat []float64
		for i, row := range req.Rows {
			if len(row) != want {
				s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: row %d has %d values, want %d features + target", req.Name, i, len(row), want)
				return
			}
			flat = append(flat, row...)
		}
		s.registerInline(w, req.Name, *req.Schema, flat)
	default:
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: supply either generate or schema+rows", req.Name)
	}
}

// handleRegisterDatasetBinary registers inline data negotiated as
// Content-Type: application/x-fmbin (docs/FORMAT.md): the body is exactly
// one fmbin frame of feature-vector-plus-target rows, so the name and
// schema ride as query parameters — ?name=...&schema={...} with the same
// schema JSON the default path embeds in its body, decoded as strictly.
func (s *Server) handleRegisterDatasetBinary(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "binary dataset registration requires a name query parameter")
		return
	}
	rawSchema := r.URL.Query().Get("schema")
	if rawSchema == "" {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: binary registration requires a schema query parameter", name)
		return
	}
	var schema funcmech.Schema
	if err := decodeStrict(strings.NewReader(rawSchema), &schema); err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: bad schema parameter: %v", name, err)
		return
	}
	if err := schema.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: %v", name, err)
		return
	}
	flat, ok := s.decodeFrameBody(w, r, len(schema.Features)+1, nil)
	if !ok {
		return
	}
	s.registerInline(w, name, schema, flat)
}

// registerInline is the one builder of a dataset from inline rows of either
// body type, once the caller has validated schema: flat holds the records
// row-major, each its features then its target. A ragged batch, a NaN
// (Schema.CheckBatch) or no rows is a 400, and nothing is registered.
func (s *Server) registerInline(w http.ResponseWriter, name string, schema funcmech.Schema, flat []float64) {
	rows, err := schema.CheckBatch(flat, 0)
	if err == nil && rows == 0 {
		err = errors.New("no rows supplied")
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: %v", name, err)
		return
	}
	ds := funcmech.NewDataset(schema)
	ds.Grow(rows)
	for want := schema.D() + 1; len(flat) > 0; flat = flat[want:] {
		ds.Append(flat[:want-1], flat[want-1])
	}
	s.register(w, name, ds)
}

// register adds ds under name: 201, or 409 when the name is taken.
func (s *Server) register(w http.ResponseWriter, name string, ds *funcmech.Dataset) {
	if err := s.registry.Register(name, ds); err != nil {
		s.writeError(w, http.StatusConflict, codeConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, datasetInfo{Name: name, Records: ds.Len(), Features: ds.NumFeatures()})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	infos := []datasetInfo{}
	for _, name := range s.registry.Names() {
		ds, _ := s.registry.Lookup(name)
		infos = append(infos, datasetInfo{Name: name, Records: ds.Len(), Features: ds.NumFeatures()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

// POST /v1/tenants, GET /v1/tenants[/{name}]

type tenantRequest struct {
	Name   string  `json:"name"`
	Budget float64 `json:"budget"`
}

type tenantInfo struct {
	Name             string  `json:"name"`
	EpsilonTotal     float64 `json:"epsilon_total"`
	EpsilonSpent     float64 `json:"epsilon_spent"`
	EpsilonRemaining float64 `json:"epsilon_remaining"`
	Fits             int64   `json:"fits"`
	BudgetRefusals   int64   `json:"budget_refusals"`
}

// infoFor reads the three ε figures from one Session snapshot, so a charge
// landing mid-read cannot tear the row (remaining = total − spent).
func infoFor(t *Tenant) tenantInfo {
	total, spent, remaining := t.Session.Snapshot()
	return tenantInfo{
		Name:             t.Name,
		EpsilonTotal:     total,
		EpsilonSpent:     spent,
		EpsilonRemaining: remaining,
		Fits:             t.Fits(),
		BudgetRefusals:   t.Exhausted(),
	}
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req tenantRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t, err := s.tenants.Create(req.Name, req.Budget)
	if err != nil {
		status, code := http.StatusBadRequest, codeInvalidRequest
		switch {
		case errors.Is(err, errWALAppend):
			// A server-side durability failure, not a malformed request —
			// same mapping as a charge whose journal append fails.
			status, code = http.StatusInternalServerError, codeInternal
		default:
			if _, exists := s.tenants.Lookup(req.Name); exists {
				status, code = http.StatusConflict, codeConflict
			}
		}
		s.writeError(w, status, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, infoFor(t))
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenants.Lookup(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound, "unknown tenant %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, infoFor(t))
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	infos := []tenantInfo{}
	for _, t := range s.tenants.All() {
		infos = append(infos, infoFor(t))
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": infos})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// POST /v1/fit

// fitOptions is /v1/fit's option surface. Whether the options are well
// formed for the model is the library's call (funcmech.NewRelease); only
// the post_process vocabulary is the wire's own.
type fitOptions struct {
	// PostProcess is one of "regularize+trim" (default), "regularize",
	// "resample" (costs 2ε), "none".
	PostProcess       string   `json:"post_process,omitempty"`
	RidgeWeight       float64  `json:"ridge_weight,omitempty"`
	Intercept         bool     `json:"intercept,omitempty"`
	BinarizeThreshold *float64 `json:"binarize_threshold,omitempty"`
	Parallelism       int      `json:"parallelism,omitempty"`
	Seed              *int64   `json:"seed,omitempty"`
}

type fitRequest struct {
	Tenant  string     `json:"tenant"`
	Dataset string     `json:"dataset"`
	Model   string     `json:"model"` // a task name
	Epsilon float64    `json:"epsilon"`
	Options fitOptions `json:"options"`
}

// releaseOptions maps the option fields /v1/fit and refits share onto
// library options.
func releaseOptions(postProcess string, seed *int64, ridgeWeight float64) ([]funcmech.Option, error) {
	var opts []funcmech.Option
	switch postProcess {
	case "", "regularize+trim":
	case "regularize":
		opts = append(opts, funcmech.WithPostProcess(funcmech.RegularizeOnly))
	case "resample":
		opts = append(opts, funcmech.WithPostProcess(funcmech.Resample))
	case "none":
		opts = append(opts, funcmech.WithPostProcess(funcmech.NoPostProcess))
	default:
		return nil, fmt.Errorf("unknown post_process %q", postProcess)
	}
	if seed != nil {
		opts = append(opts, funcmech.WithSeed(*seed))
	}
	if ridgeWeight != 0 {
		opts = append(opts, funcmech.WithRidge(ridgeWeight))
	}
	return opts, nil
}

func (o fitOptions) build() ([]funcmech.Option, error) {
	opts, err := releaseOptions(o.PostProcess, o.Seed, o.RidgeWeight)
	if err != nil {
		return nil, err
	}
	if o.Intercept {
		opts = append(opts, funcmech.WithIntercept())
	}
	if o.Parallelism != 0 {
		opts = append(opts, funcmech.WithParallelism(o.Parallelism))
	}
	if o.BinarizeThreshold != nil {
		opts = append(opts, funcmech.WithBinarizeThreshold(*o.BinarizeThreshold))
	}
	return opts, nil
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r.Context())
	var req fitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	tenant, ok := s.tenants.Lookup(req.Tenant)
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound, "unknown tenant %q", req.Tenant)
		return
	}
	dsSpan := tr.StartSpan(obs.SpanDataset)
	ds, ok := s.registry.Lookup(req.Dataset)
	if ok {
		dsSpan.End(obs.Int("records", int64(ds.Len())), obs.Int("features", int64(ds.NumFeatures())))
	} else {
		dsSpan.End()
		s.writeError(w, http.StatusNotFound, codeNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	opts, err := req.Options.build()
	var rel *funcmech.Release
	if err == nil {
		// The probe attributes kernel vs solve vs noise time to this trace;
		// with no trace on the context it degrades to the bare calls.
		rel, err = funcmech.NewRelease(ds, req.Model, req.Epsilon, append(opts, funcmech.WithProbe(obs.TraceProbe{T: tr}))...)
	}
	if err != nil {
		s.writeOptionsError(w, err)
		return
	}

	// Admission comes before the charge: the fit queues here for a governor
	// token until one frees or the client gives up, and a fit abandoned in
	// the queue costs no ε. Nothing below waits — the grant widens the
	// kernel only onto tokens that are free when it starts.
	admSpan := tr.StartSpan(obs.SpanQueueWait)
	grant, err := s.governor.Admit(r.Context())
	admSpan.End(obs.Str("stage", "admission"))
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, codeFitFailed, "cancelled while queued for a fit slot")
		return
	}
	s.metrics.fitsInFlight.Add(1)
	defer func() {
		s.metrics.fitsInFlight.Add(-1)
		grant.Release()
	}()
	s.release(w, tr, releaseRequest{tenant: tenant, model: req.Model, rel: rel, gov: grant, dataset: req.Dataset})
}

// releaseRequest is one release the library has accepted: a fit from a
// registered dataset, which runs under its admission grant, or a refit
// from a stream's merged fold (st and acc set).
type releaseRequest struct {
	tenant  *Tenant
	model   string
	rel     *funcmech.Release
	gov     funcmech.Governor
	dataset string
	st      *stream.Stream
	acc     *funcmech.Accumulator
}

// releaseResponse answers both release endpoints: a fit names its dataset,
// a refit its stream and the records its fold covers.
type releaseResponse struct {
	Tenant           string           `json:"tenant"`
	Dataset          string           `json:"dataset,omitempty"`
	Stream           string           `json:"stream,omitempty"`
	Model            string           `json:"model"`
	RecordsCovered   int              `json:"records_covered,omitempty"`
	Weights          []float64        `json:"weights"`
	Report           *funcmech.Report `json:"report"`
	EpsilonRemaining float64          `json:"epsilon_remaining"`
	ElapsedMS        float64          `json:"elapsed_ms"`
}

// release is the service's one audited noise release site, behind both
// /v1/fit and /v1/streams/{name}/refit: the release draws Laplace noise
// only after chargeDurable has debited the session and journaled the spend
// to the fsynced WAL, so a crash anywhere below can only over-count the
// tenant's spend. It runs the release it charged.
//
//fmlint:releases-noise
func (s *Server) release(w http.ResponseWriter, tr *obs.Trace, rq releaseRequest) {
	op, ref, outcomes := wal.OpFit, rq.dataset, s.metrics.fits
	if rq.st != nil {
		op, ref, outcomes = wal.OpRefit, rq.st.Name(), s.metrics.refits
	}
	start := time.Now()
	if err := s.chargeDurable(tr, rq.tenant, op, ref, rq.rel); err != nil {
		outcomes.record(err)
		s.writeChargeError(w, rq.tenant, err)
		return
	}
	m, report, err := rq.rel.Run(rq.gov)
	elapsed := time.Since(start)
	if outcomes.record(err) && rq.st == nil {
		s.metrics.fitSeconds.Observe(elapsed.Seconds())
	}
	if err != nil {
		// The charge stands — a post-debit failure is itself data-dependent
		// information, so refunding it would be unsound (see Session docs).
		s.writeError(w, http.StatusUnprocessableEntity, codeFitFailed, "%v", err)
		return
	}
	rq.tenant.fits.Add(1)
	resp := releaseResponse{
		Tenant:           rq.tenant.Name,
		Dataset:          rq.dataset,
		Model:            rq.model,
		Weights:          m.Weights(),
		Report:           report,
		EpsilonRemaining: rq.tenant.Session.Remaining(),
		ElapsedMS:        ms(elapsed),
	}
	if rq.st != nil {
		rq.st.RecordRefit(stream.RefitInfo{
			Model:   rq.model,
			Tenant:  rq.tenant.Name,
			Epsilon: report.Epsilon,
			Records: uint64(rq.acc.Len()),
			At:      time.Now().UTC(),
		})
		resp.Stream, resp.RecordsCovered = rq.st.Name(), rq.acc.Len()
	}
	writeJSON(w, http.StatusOK, resp)
}
