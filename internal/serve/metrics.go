package serve

import (
	"errors"
	"sync/atomic"
	"time"

	"funcmech"
	"funcmech/internal/obs"
)

// Prometheus metric families served at GET /metrics. Every family name is a
// string literal in this file — scripts/check_docs.sh machine-checks that
// the table in docs/OBSERVABILITY.md and this file agree in both
// directions, so the reference cannot drift from the code.
//
// Label discipline mirrors the trace-attr redaction boundary: the only
// label values are endpoint patterns, typed error codes, HTTP status
// classes, and tenant/stream names — identifiers, never data.

// Metric family names.
const (
	metricFitsTotal                = "fm_fits_total"
	metricFitsRefusedBudgetTotal   = "fm_fits_refused_budget_total"
	metricFitsErrorTotal           = "fm_fits_error_total"
	metricRefitsTotal              = "fm_refits_total"
	metricRefitsRefusedBudgetTotal = "fm_refits_refused_budget_total"
	metricRefitsErrorTotal         = "fm_refits_error_total"
	metricIngestRecordsTotal       = "fm_ingest_records_total"
	metricIngestBatchesTotal       = "fm_ingest_batches_total"
	metricHTTPResponsesTotal       = "fm_http_responses_total"
	metricRefusalsTotal            = "fm_refusals_total"
	metricWALAppendsTotal          = "fm_wal_appends_total"
	metricFitSeconds               = "fm_fit_seconds"
	metricHTTPRequestSeconds       = "fm_http_request_seconds"
	metricGovernorWorkerCap        = "fm_governor_worker_cap"
	metricGovernorWorkersInUse     = "fm_governor_workers_in_use"
	metricGovernorQueued           = "fm_governor_queued"
	metricFitsInFlight             = "fm_fits_in_flight"
	metricWALLastLSN               = "fm_wal_last_lsn"
	metricWALSegments              = "fm_wal_segments"
	metricEpsilonTotal             = "fm_epsilon_total"
	metricEpsilonSpent             = "fm_epsilon_spent"
	metricEpsilonRemaining         = "fm_epsilon_remaining"
	metricStreamRecords            = "fm_stream_records"
	metricStreamBatches            = "fm_stream_batches"
	metricUptimeSeconds            = "fm_uptime_seconds"
)

// metrics owns the registry behind GET /metrics, the only place the service
// keeps counters. Handlers increment the outcome counters, the fit-latency
// histogram and the HTTP families directly; everything else is collected at
// scrape time from the server's live components (Governor, Tenants,
// Streams, WAL), so no two families can disagree, even after a restart.
type metrics struct {
	reg           *obs.Registry
	fits          outcomes
	refits        outcomes
	fitSeconds    *obs.Histogram    // successful fits only
	httpSeconds   *obs.HistogramVec // by endpoint pattern
	httpResponses *obs.CounterVec   // by endpoint pattern and status code
	refusals      *obs.CounterVec   // by typed API error code
	fitsInFlight  atomic.Int32      // fits admitted and not yet answered
}

// outcomes counts fit or refit attempts by how they ended, so a privacy
// refusal (the budget working as designed, HTTP 402) is never conflated with
// a genuine failure.
type outcomes struct{ ok, refused, failed *obs.Counter }

// record counts one attempt that ended with err and reports whether it
// succeeded: nil is ok, ErrBudgetExhausted (however wrapped) is refused,
// and anything else, a failed journal append included, is an error.
func (o outcomes) record(err error) bool {
	switch {
	case err == nil:
		o.ok.Inc()
		return true
	case errors.Is(err, funcmech.ErrBudgetExhausted):
		o.refused.Inc()
	default:
		o.failed.Inc()
	}
	return false
}

// newMetrics builds the registry over the server's components. Called from
// New after every component exists; WAL families appear even before UseWAL
// (they read zero until a journal is attached).
func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}
	m.fits = outcomes{
		ok:      reg.NewCounter(metricFitsTotal, "Successful fits released."),
		refused: reg.NewCounter(metricFitsRefusedBudgetTotal, "Fits refused with budget_exhausted (402)."),
		failed:  reg.NewCounter(metricFitsErrorTotal, "Fits failed after admission for non-budget reasons."),
	}
	m.refits = outcomes{
		ok:      reg.NewCounter(metricRefitsTotal, "Successful stream refits released."),
		refused: reg.NewCounter(metricRefitsRefusedBudgetTotal, "Refits refused with budget_exhausted (402)."),
		failed:  reg.NewCounter(metricRefitsErrorTotal, "Refits failed for non-budget reasons."),
	}
	// The ingest totals are sums of the per-stream sequence gauges behind
	// fm_stream_records/fm_stream_batches. Streams are never removed, so the
	// sums only grow.
	reg.NewCounterFunc(metricIngestRecordsTotal, "Records accepted across all streams.", func() uint64 {
		records, _ := s.streams.Totals()
		return records
	})
	reg.NewCounterFunc(metricIngestBatchesTotal, "Ingest batches accepted across all streams.", func() uint64 {
		_, batches := s.streams.Totals()
		return batches
	})
	reg.NewCounterFunc(metricWALAppendsTotal, "WAL events journaled by this process.", func() uint64 {
		if s.wlog != nil {
			return s.wlog.Appends()
		}
		return 0
	})

	m.httpResponses = reg.NewCounterVec(metricHTTPResponsesTotal, "HTTP responses by endpoint pattern and status code.", "endpoint", "code")
	m.refusals = reg.NewCounterVec(metricRefusalsTotal, "Non-2xx responses by typed API error code.", "reason")

	m.fitSeconds = reg.NewHistogram(metricFitSeconds, "Latency of successful fits (seconds).", nil)
	m.httpSeconds = reg.NewHistogramVec(metricHTTPRequestSeconds, "HTTP request latency by endpoint pattern (seconds).", nil, "endpoint")

	reg.NewGaugeFunc(metricGovernorWorkerCap, "Governor tokens: the bound on fits in flight, ingest folds and extra kernel workers together.", func() float64 {
		return float64(s.governor.Cap())
	})
	reg.NewGaugeFunc(metricGovernorWorkersInUse, "Governor tokens currently held.", func() float64 {
		return float64(s.governor.InUse())
	})
	reg.NewGaugeFunc(metricGovernorQueued, "Fits and ingest folds currently blocked waiting for a governor token.", func() float64 {
		return float64(s.governor.Waiting())
	})
	reg.NewGaugeFunc(metricFitsInFlight, "Fits currently admitted.", func() float64 {
		return float64(m.fitsInFlight.Load())
	})
	reg.NewGaugeFunc(metricWALLastLSN, "Last assigned WAL log sequence number.", func() float64 {
		if s.wlog != nil {
			return float64(s.wlog.LastLSN())
		}
		return 0
	})
	reg.NewGaugeFunc(metricWALSegments, "WAL segment files, active included.", func() float64 {
		if s.wlog != nil {
			return float64(s.wlog.Segments())
		}
		return 0
	})
	reg.NewGaugeFunc(metricUptimeSeconds, "Seconds since process start.", func() float64 {
		return time.Since(s.start).Seconds()
	})

	// Per-tenant ε ledger, fed from the Session accountants — the operator
	// surface of the paper's sequential-composition budget. One Snapshot per
	// tenant keeps each row internally consistent (total = spent+remaining).
	tenantKeys := []string{"tenant"}
	reg.NewLabeledGaugeFunc(metricEpsilonTotal, "Tenant lifetime privacy budget ε.", tenantKeys, func() []obs.LabeledSample {
		return s.tenantSamples(func(total, _, _ float64) float64 { return total })
	})
	reg.NewLabeledGaugeFunc(metricEpsilonSpent, "Tenant lifetime ε spent (WAL-durable).", tenantKeys, func() []obs.LabeledSample {
		return s.tenantSamples(func(_, spent, _ float64) float64 { return spent })
	})
	reg.NewLabeledGaugeFunc(metricEpsilonRemaining, "Tenant lifetime ε remaining.", tenantKeys, func() []obs.LabeledSample {
		return s.tenantSamples(func(_, _, remaining float64) float64 { return remaining })
	})

	streamKeys := []string{"stream"}
	reg.NewLabeledGaugeFunc(metricStreamRecords, "Records accepted into each stream (its ingest sequence).", streamKeys, func() []obs.LabeledSample {
		return s.streamSamples(func(records, _ uint64) float64 { return float64(records) })
	})
	reg.NewLabeledGaugeFunc(metricStreamBatches, "Batches accepted into each stream.", streamKeys, func() []obs.LabeledSample {
		return s.streamSamples(func(_, batches uint64) float64 { return float64(batches) })
	})
	return m
}

// tenantSamples collects one sample per tenant from a consistent Session
// snapshot.
func (s *Server) tenantSamples(pick func(total, spent, remaining float64) float64) []obs.LabeledSample {
	tenants := s.tenants.All()
	out := make([]obs.LabeledSample, 0, len(tenants))
	for _, t := range tenants {
		total, spent, remaining := t.Session.Snapshot()
		out = append(out, obs.LabeledSample{
			LabelValues: []string{t.Name},
			Value:       pick(total, spent, remaining),
		})
	}
	return out
}

// streamSamples collects one sample per stream from a consistent Counts
// read.
func (s *Server) streamSamples(pick func(records, batches uint64) float64) []obs.LabeledSample {
	streams := s.streams.All()
	out := make([]obs.LabeledSample, 0, len(streams))
	for _, st := range streams {
		records, batches := st.Counts()
		out = append(out, obs.LabeledSample{
			LabelValues: []string{st.Name()},
			Value:       pick(records, batches),
		})
	}
	return out
}
