package serve

import (
	"context"
	"log"
	"net/http"

	"funcmech"
	"funcmech/internal/obs"
	"funcmech/internal/stream"
	"funcmech/internal/wal"
)

// Streaming endpoints: records arrive continuously via append-only streams
// and private models are refitted from the streams' live coefficient
// accumulators — no dataset rescan, so a refit's cost is O(d²) regardless of
// how many records were ever ingested. Budgets are charged per release
// through the tenant's Session, exactly like /v1/fit.

// POST /v1/streams

type streamRequest struct {
	Name   string           `json:"name"`
	Schema *funcmech.Schema `json:"schema"`
	// Intercept and BinarizeThreshold shape the per-record fold, so they are
	// fixed at stream creation (refits must not pass them again).
	Intercept         bool     `json:"intercept,omitempty"`
	BinarizeThreshold *float64 `json:"binarize_threshold,omitempty"`
	// Shards is the ingest parallelism; ≤1 (default) keeps refits
	// bit-reproducible against a serial one-shot fit.
	Shards int `json:"shards,omitempty"`
}

type streamInfo struct {
	Name      string            `json:"name"`
	Features  int               `json:"features"`
	Records   uint64            `json:"records"`
	Batches   uint64            `json:"batches"`
	Refits    uint64            `json:"refits"`
	Shards    int               `json:"shards"`
	Intercept bool              `json:"intercept"`
	Threshold *float64          `json:"binarize_threshold,omitempty"`
	LastRefit *stream.RefitInfo `json:"last_refit,omitempty"`
}

func infoForStream(s *stream.Stream) streamInfo {
	cfg := s.Config()
	records, batches := s.Counts() // one pass: the pair is consistent
	info := streamInfo{
		Name:      s.Name(),
		Features:  len(cfg.Schema.Features),
		Records:   records,
		Batches:   batches,
		Refits:    s.Refits(),
		Shards:    cfg.Shards,
		Intercept: cfg.Intercept,
		Threshold: cfg.BinarizeThreshold,
	}
	if last, ok := s.LastRefit(); ok {
		info.LastRefit = &last
	}
	return info
}

func (s *Server) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	var req streamRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "stream creation requires a name")
		return
	}
	if req.Schema == nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "stream %q: a schema is required", req.Name)
		return
	}
	st, err := s.streams.Create(req.Name, stream.Config{
		Schema:            *req.Schema,
		Intercept:         req.Intercept,
		BinarizeThreshold: req.BinarizeThreshold,
		Shards:            req.Shards,
	})
	if err != nil {
		status, code := http.StatusBadRequest, codeInvalidRequest
		if _, exists := s.streams.Lookup(req.Name); exists {
			status, code = http.StatusConflict, codeConflict
		}
		s.writeError(w, status, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, infoForStream(st))
}

// GET /v1/streams

func (s *Server) handleListStreams(w http.ResponseWriter, _ *http.Request) {
	infos := []streamInfo{}
	for _, st := range s.streams.All() {
		infos = append(infos, infoForStream(st))
	}
	writeJSON(w, http.StatusOK, map[string]any{"streams": infos})
}

// POST /v1/streams/{name}/ingest

type ingestResponse struct {
	Stream   string `json:"stream"`
	Accepted int    `json:"accepted"`
	Records  uint64 `json:"records_total"`
	Batches  uint64 `json:"batches_total"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	st, ok := s.streams.Lookup(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound, "unknown stream %q", r.PathValue("name"))
		return
	}
	want := len(st.Config().Schema.Features) + 1
	bufp := ingestBufPool.Get().(*[]float64)
	defer ingestBufPool.Put(bufp)
	// The JSON body is {"rows": [...]}: raw records, each the feature vector
	// in schema order with the target appended. Out-of-bounds values clamp
	// to the schema's public bounds. Binary negotiation (docs/FORMAT.md)
	// carries the same rows as the columns of one fmbin frame.
	var flat []float64
	if isFmbinRequest(r) {
		flat, ok = s.decodeFrameBody(w, r, want, (*bufp)[:0])
	} else {
		flat, ok = s.decodeJSONIngestBody(w, r, want, (*bufp)[:0])
	}
	*bufp = flat // keep the grown capacity for the next request
	if !ok {
		return
	}

	// The fold is the ingest path's O(batch·d²) CPU cost; it takes one
	// governor token so heavy ingest traffic and in-flight fits share the
	// same capacity. The token is taken inside the gate — after the shard
	// lock is held — so a batch queued behind another batch does not sit on
	// global capacity. Nothing is charged here, so the wait ignores the
	// client's context and cannot fail.
	tr := obs.TraceFrom(r.Context())
	accepted, err := st.IngestFlatGated(flat, func() func() {
		sp := tr.StartSpan(obs.SpanQueueWait)
		grant, _ := s.governor.Admit(context.Background())
		sp.End(obs.Str("stage", "governor"))
		return grant.Release
	})
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	records, batches := st.Counts()
	if s.wlog != nil {
		wsp := tr.StartSpan(obs.SpanWALFsync)
		// Journal the post-batch sequence so a crash never rewinds a
		// stream's sequence numbers. Best-effort toward the client by
		// design: the batch is already folded, so surfacing an append
		// failure as an error would invite a retry that double-folds the
		// records — and unlike a charge, an under-counted sequence costs
		// consistency, not privacy. The operator still needs the moment the
		// journal broke (a failed append poisons it, and every later charge
		// will 500), so the failure is logged. Out-of-order appends from
		// racing batches are harmless: replay advances the gauges
		// monotonically.
		if _, err := s.wlog.Append(wal.Event{Kind: wal.EventIngest, Ref: st.Name(), Seq: records, Batches: batches}); err != nil {
			log.Printf("serve: journaling ingest sequence for stream %q: %v", st.Name(), err)
		}
		wsp.End(obs.Str("op", "ingest"))
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Stream:   st.Name(),
		Accepted: accepted,
		Records:  records,
		Batches:  batches,
	})
}

// POST /v1/streams/{name}/refit

type refitOptions struct {
	// PostProcess is one of "regularize+trim" (default), "regularize",
	// "resample" (costs 2ε), "none".
	PostProcess string  `json:"post_process,omitempty"`
	RidgeWeight float64 `json:"ridge_weight,omitempty"`
	Seed        *int64  `json:"seed,omitempty"`
	// Intercept, binarize_threshold and parallelism are deliberately absent:
	// the first two are fixed at stream creation, and a refit has no record
	// sweep to parallelize. DisallowUnknownFields rejects them with a 400.
}

type refitRequest struct {
	Tenant  string       `json:"tenant"`
	Model   string       `json:"model"` // a task name
	Epsilon float64      `json:"epsilon"`
	Options refitOptions `json:"options"`
}

func (s *Server) handleRefit(w http.ResponseWriter, r *http.Request) {
	st, ok := s.streams.Lookup(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound, "unknown stream %q", r.PathValue("name"))
		return
	}
	var req refitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	tenant, ok := s.tenants.Lookup(req.Tenant)
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound, "unknown tenant %q", req.Tenant)
		return
	}
	tr := obs.TraceFrom(r.Context())
	opts, err := releaseOptions(req.Options.PostProcess, req.Options.Seed, req.Options.RidgeWeight)
	if err != nil {
		s.writeOptionsError(w, err)
		return
	}
	// The release reads this merged fold, so its record count — not the
	// stream's sequence gauge, which WAL replay can advance past the folds
	// a snapshot restored — decides whether there is anything to release.
	accSpan := tr.StartSpan(obs.SpanDataset)
	acc := st.Merged()
	accSpan.End(obs.Int("records", int64(acc.Len())), obs.Str("source", "stream"))
	rel, err := funcmech.NewReleaseFromAccumulator(acc, req.Model, req.Epsilon, append(opts, funcmech.WithProbe(obs.TraceProbe{T: tr}))...)
	if err != nil {
		s.writeOptionsError(w, err)
		return
	}

	// Refits take no governor token: a refit never rescans records, but its
	// merge, noise draw and spectral trim still cost CPU (a d = 64 refit's
	// handler takes about 2 ms on a 2-vCPU Xeon, 1.0–1.3 ms of it the trim),
	// and bounding them is still open. Budget enforcement is identical to
	// /v1/fit: the same release site charges, journals, and only then draws
	// noise.
	s.release(w, tr, releaseRequest{tenant: tenant, model: req.Model, rel: rel, st: st, acc: acc})
}
