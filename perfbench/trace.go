package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"funcmech"
	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/fmbin"
	"funcmech/internal/serve"
	"funcmech/internal/stream"
	"funcmech/internal/wal"
)

// The traced run answers where an op's time goes. Each request is first
// timed once through serve.Server.Handler() in-process, then replayed on two
// twin states through the public calls that handler makes: once on a traced
// twin, with a span kept around each call, and once on an untraced twin, so
// the difference is the tracing overhead. Each twin holds its own copy of
// the handler's dataset or stream and its own write-ahead log, and receives
// every request once, as the handler does. Spans are recorded here, in the
// benchmark's own files; inside core they come from the phases it already
// reports through core.Probe.

// Layer span names; each names the Go package it measures.
const (
	spanFmbinDecode = "fmbin.decode"      // fmbin.Decode
	spanIngest      = "stream.ingest"     // Stream.IngestFlatGated
	spanFold        = "funcmech.fold"     // Accumulator.AddFlat, inside the ingest gate
	spanMerge       = "stream.merge"      // Stream.Merged
	spanWAL         = "wal.append"        // wal.Log.Append
	spanNormalize   = "dataset.normalize" // Normalizer.NormalizeForLinear
	spanRun         = "core.run"          // core.Run; its self time is Task.Validate
	spanRelease     = "funcmech.release"  // funcmech.FitTaskFromAccumulator
	spanKernel      = "core.kernel"       // core's kernel phase: the objective fold
	spanPerturb     = "core.perturb"      // core's noise phase: core.Perturb
	spanSolve       = "regression.solve"  // core's first solve phase: regression.MinimizeQuadratic
	spanTrim        = "core.trim"         // core's second solve phase: core.SpectralTrim
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Req    int    `json:"req"`
}

// tracer keeps spans in memory. A nil tracer records nothing, which is how
// the untraced twin runs the same calls.
type tracer struct {
	t0    time.Time
	req   int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Req: t.req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// phaseProbe turns the phases core reports into spans under parent. A
// regularise-then-trim release reports a second solve phase only when its
// Cholesky attempt failed: that second solve is core.SpectralTrim.
type phaseProbe struct {
	tr     *tracer
	parent int
	solves int
}

func (p *phaseProbe) Phase(name string) func() {
	span := "core." + name
	switch name {
	case core.PhaseKernel:
		span = spanKernel
	case core.PhaseNoise:
		span = spanPerturb
	case core.PhaseSolve:
		p.solves++
		span = spanSolve
		if p.solves > 1 {
			span = spanTrim
		}
	}
	i := p.tr.begin(span, p.parent)
	return func() { p.tr.end(i) }
}

// countingSource counts the uniform draws the noise layer takes.
type countingSource struct {
	src rand.Source64
	n   int64
}

func (c *countingSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// twin is one replay state: the dataset or stream the handler serves, held
// directly, with its own write-ahead log.
type twin struct {
	w        *workload
	tr       *tracer // nil on the untraced twin
	log      *wal.Log
	task     core.BlockTask // the linear task core.Run releases
	draws    *countingSource
	rng      *rand.Rand
	releases int

	st   *stream.Stream // stream workloads
	buf  []float64      // fmbin decode buffer
	norm int            // bytes of the last normalised copy
}

// newTwin builds a twin loaded as the handler's set-up loads its server.
// Both twins draw noise from the same seed, so their releases do the same
// work.
func newTwin(w *workload, tr *tracer, log *wal.Log, seed int64) (*twin, error) {
	spec, ok := core.LookupTask(core.TaskNameLinear)
	if !ok {
		return nil, fmt.Errorf("linear task not registered")
	}
	task, err := spec.New(core.TaskParams{})
	if err != nil {
		return nil, err
	}
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	tw := &twin{w: w, tr: tr, log: log, task: task, draws: src, rng: rand.New(src)}
	if w.stream == "" {
		return tw, nil
	}
	thr := *w.threshold
	tw.st, err = stream.New(w.stream, stream.Config{Schema: publicSchema(w.schema), BinarizeThreshold: &thr, Shards: 2})
	if err != nil {
		return nil, err
	}
	if w.gated == opRefit {
		for _, flat := range w.flats {
			if _, err := tw.st.IngestFlat(flat); err != nil {
				return nil, err
			}
		}
	}
	return tw, nil
}

func publicSchema(s *dataset.Schema) funcmech.Schema {
	out := funcmech.Schema{Target: funcmech.Attribute{Name: s.Target.Name, Min: s.Target.Min, Max: s.Target.Max}}
	for _, a := range s.Features {
		out.Features = append(out.Features, funcmech.Attribute{Name: a.Name, Min: a.Min, Max: a.Max})
	}
	return out
}

// replay makes the calls the handler makes for op (with ingest body b). It
// reports whether a release fell back to spectral trimming, which only the
// traced twin can tell.
func (tw *twin) replay(op opKind, b int) (bool, error) {
	switch op {
	case opFit:
		return tw.fit()
	case opRefit:
		return tw.refit()
	}
	return false, tw.ingest(b)
}

// probe returns the phase probe for a release under span parent, or nil on
// the untraced twin.
func (tw *twin) probe(parent int) *phaseProbe {
	if tw.tr == nil {
		return nil
	}
	return &phaseProbe{tr: tw.tr, parent: parent}
}

func (tw *twin) charge(op, ref string) error {
	i := tw.tr.begin(spanWAL, -1)
	_, err := tw.log.Append(wal.Event{Kind: wal.EventCharge, Tenant: tenantName, Op: op, Ref: ref, Epsilon: releaseEpsilon})
	tw.tr.end(i)
	return err
}

// fit replays funcmech.FitTask: the normalisation it makes, then core.Run.
func (tw *twin) fit() (bool, error) {
	if err := tw.charge(wal.OpFit, tw.w.dataset); err != nil {
		return false, err
	}
	i := tw.tr.begin(spanNormalize, -1)
	norm := dataset.NewNormalizer(tw.w.census.Schema).NormalizeForLinear(tw.w.census)
	tw.tr.end(i)
	tw.norm = norm.N() * (norm.D() + 1) * 8
	i = tw.tr.begin(spanRun, -1)
	var opts core.Options
	p := tw.probe(i)
	if p != nil {
		opts.Probe = p
	}
	_, err := core.Run(tw.task, norm, releaseEpsilon, tw.rng, opts)
	tw.tr.end(i)
	tw.releases++
	return p != nil && p.solves > 1, err
}

func (tw *twin) ingest(b int) error {
	flat := tw.w.flats[b]
	if tw.w.binary {
		i := tw.tr.begin(spanFmbinDecode, -1)
		var err error
		flat, _, err = fmbin.Decode(tw.w.bodies[b], tw.buf[:0])
		tw.tr.end(i)
		if err != nil {
			return err
		}
		tw.buf = flat
	}
	i := tw.tr.begin(spanIngest, -1)
	var gate func() func()
	if tw.tr != nil {
		gate = func() func() {
			f := tw.tr.begin(spanFold, i)
			return func() { tw.tr.end(f) }
		}
	}
	_, err := tw.st.IngestFlatGated(flat, gate)
	tw.tr.end(i)
	if err != nil {
		return err
	}
	records, batches := tw.st.Counts()
	i = tw.tr.begin(spanWAL, -1)
	_, err = tw.log.Append(wal.Event{Kind: wal.EventIngest, Ref: tw.w.stream, Seq: records, Batches: batches})
	tw.tr.end(i)
	return err
}

// refit replays the refit handler: the stream's merged fold, then the
// release funcmech.FitTaskFromAccumulator makes from it.
func (tw *twin) refit() (bool, error) {
	if err := tw.charge(wal.OpRefit, tw.w.stream); err != nil {
		return false, err
	}
	i := tw.tr.begin(spanMerge, -1)
	acc := tw.st.Merged()
	tw.tr.end(i)
	i = tw.tr.begin(spanRelease, -1)
	opts := []funcmech.Option{funcmech.WithRand(tw.rng)}
	p := tw.probe(i)
	if p != nil {
		opts = append(opts, funcmech.WithProbe(p))
	}
	_, _, err := funcmech.FitTaskFromAccumulator(acc, core.TaskNameLinear, releaseEpsilon, opts...)
	tw.tr.end(i)
	tw.releases++
	return p != nil && p.solves > 1, err
}

// liveFolds counts the folds a record updates: the fold specs whose
// release still succeeds on the twin stream.
func (tw *twin) liveFolds() int {
	if tw.st == nil {
		return 0
	}
	merged := tw.st.Merged()
	n := 0
	for _, spec := range core.FoldSpecs() {
		if _, _, err := funcmech.FitTaskFromAccumulator(merged, spec.Name, checkEpsilon, funcmech.WithSeed(1)); err == nil {
			n++
		}
	}
	return n
}

// tracedReq is one request of the traced run.
type tracedReq struct {
	Op        opKind  `json:"op"`
	HandlerMS float64 `json:"handler_ms"`
	Bytes     int     `json:"bytes"`
	Records   int     `json:"records"` // records an ingest carries
	Trimmed   bool    `json:"trimmed,omitempty"`
}

// opAccount splits one op type's timed-run p50 into its parts.
type opAccount struct {
	Op       opKind             `json:"op"`
	N        int                `json:"n"`
	TimedP50 float64            `json:"timed_p50_ms"`
	Handler  float64            `json:"handler_p50_ms"`
	Wait     float64            `json:"serve.wait_ms"`
	Self     float64            `json:"serve.self_ms"`
	Layers   map[string]float64 `json:"layer_self_ms"` // median per-request self time
	// Slack is how far the layers may add up past the handler p50 before
	// splitVerdict fails the op (ms).
	Slack float64 `json:"split_slack_ms"`
}

// traceReport is the traced run's output.
type traceReport struct {
	Metrics  map[string]float64 `json:"metrics"`
	Accounts []opAccount        `json:"accounts"`
	Requests []tracedReq        `json:"requests"`
	Spans    []span             `json:"spans"`
	Verdicts []verdict          `json:"verdicts"`
	Ledger   *ledger            `json:"-"`
}

// runTraced drives the traced run for d. timedP50 holds the timed run's
// p50 per op (ms), and ratio the timed run's ingests per refit.
func runTraced(w *workload, seed int64, d time.Duration, dir string, timedP50 map[opKind]float64, ratio int) (*traceReport, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	// The handler's log, then the traced and the untraced twin's.
	var logs [3]*wal.Log
	for i, name := range []string{"wal-handler", "wal-traced", "wal-untraced"} {
		l, err := wal.Open(filepath.Join(dir, name), wal.Options{Fsync: true})
		if err != nil {
			return nil, err
		}
		defer l.Close()
		logs[i] = l
	}

	srv := serve.New(serve.Config{})
	srv.UseWAL(logs[0])
	ic := &inprocConn{h: srv.Handler()}
	led := newLedger(w)
	cl := &client{c: ic, led: led, w: w}
	if err := setup(w, []*client{cl}); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	s1, err := scrape(ic)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	traced, err := newTwin(w, tr, logs[1], seed)
	if err != nil {
		return nil, err
	}
	untraced, err := newTwin(w, nil, logs[2], seed)
	if err != nil {
		return nil, err
	}
	twins := [2]*twin{traced, untraced}

	rep := &traceReport{Ledger: led}
	var tracedNS, untracedNS int64
	deadline := time.Now().Add(d)
	// Run until the deadline, and at least until the gated op has been
	// traced once.
	gatedSeen := false
	for k, sent, since := 0, 0, 0; time.Now().Before(deadline) || !gatedSeen; k++ {
		op := w.gated
		if op == opRefit && since < ratio {
			op = opIngest
		}
		b := sent % max(1, len(w.bodies))
		req := tracedReq{Op: op}
		var ok bool
		switch op {
		case opIngest:
			ok = cl.ingest(phaseTimed, b)
			req.Bytes, req.Records = len(w.bodies[b]), w.rowsIn(b)
			sent++
			since++
		default:
			_, ok = cl.release(phaseTimed, w.fit, releaseEpsilon)
			req.Bytes = len(w.fit)
			if op == opRefit {
				since = 0
			}
		}
		if !ok {
			return nil, fmt.Errorf("traced %s request failed: %v", op, led.problems)
		}
		gatedSeen = gatedSeen || op == w.gated
		req.HandlerMS = float64(ic.last.Nanoseconds()) / 1e6

		// Alternate which twin replays first.
		tr.req = k
		for pass := 0; pass < 2; pass++ {
			tw := twins[(pass+k)%2]
			start := time.Now()
			trimmed, err := tw.replay(op, b)
			ns := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("replaying %s: %w", op, err)
			}
			if tw == traced {
				tracedNS += ns
				req.Trimmed = trimmed
			} else {
				untracedNS += ns
			}
		}
		rep.Requests = append(rep.Requests, req)
	}
	s2, err := scrape(ic)
	if err != nil {
		return nil, err
	}
	folds := traced.liveFolds()
	rep.Verdicts = checkPhase(w, cl, [][]promSample{s1, s2})
	rep.Spans = tr.spans

	walDelta := counterSum(s2, "fm_wal_appends_total", nil) - counterSum(s1, "fm_wal_appends_total", nil)
	rep.Accounts, rep.Metrics = account(w, rep.Requests, tr.spans, timedP50)
	rep.Verdicts = append(rep.Verdicts, splitVerdict(rep.Accounts))
	m := rep.Metrics
	m["wal.appends_per_op"] = walDelta / float64(len(rep.Requests))
	m["funcmech.folds_per_record"] = float64(folds)
	m["dataset.bytes_copied_per_fit"] = float64(traced.norm)
	if traced.releases > 0 {
		m["noise.draws_per_release"] = float64(traced.draws.n) / float64(traced.releases)
	}
	if untracedNS > 0 {
		m["trace.overhead_share"] = float64(tracedNS-untracedNS) / float64(untracedNS)
	}
	return rep, nil
}

// splitShare and splitSE bound how far an op's layer medians may add up
// past its handler p50: by splitShare of that p50, or by splitSE standard
// errors of the difference between the two medians when sampling noise is
// larger. Each twin call runs right after the handler call it replays, but
// a release's cost follows its noise draws, which the handler and the twins
// take from different sources, so a handful of refits can differ by a
// fifth. A larger excess means the twins do work the handler does not,
// and the split is wrong.
const (
	splitShare = 0.1
	splitSE    = 3
)

// splitVerdict checks that no op's layers cost more than its handler:
// serve.self_ms, the handler p50 minus the layer medians, is at least
// −Slack for every op.
func splitVerdict(accounts []opAccount) verdict {
	var bad, selfs []string
	for _, a := range accounts {
		selfs = append(selfs, fmt.Sprintf("%s %.4g of %.4g, slack %.3g", a.Op, a.Self, a.Handler, a.Slack))
		if -a.Self > a.Slack {
			bad = append(bad, fmt.Sprintf("%s: layers add up to %.4g ms past the handler p50 %.4g ms (slack %.3g ms)", a.Op, -a.Self, a.Handler, a.Slack))
		}
	}
	v := verdict{
		Name:   "trace_layers_within_handler",
		OK:     len(bad) == 0,
		Detail: fmt.Sprintf("serve.self_ms ≥ −slack for every op (ms: %s)", strings.Join(selfs, ", ")),
	}
	if len(bad) > 0 {
		v.Detail = strings.Join(bad, "; ")
	}
	return v
}

// seMedian estimates the standard error of a sample's median, 1.2533·σ/√n,
// with σ taken robustly as the interquartile range over 1.349.
func seMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	iqr := quantile(s, 0.75) - quantile(s, 0.25)
	return 1.2533 * iqr / 1.349 / math.Sqrt(float64(len(s)))
}

// account turns spans into per-request layer times and splits each op
// type's timed p50 into serve.wait_ms + serve.self_ms + layer self times.
// The parts add up by definition: serve.self_ms is the handler p50 minus
// the layers' median self times, and serve.wait_ms is the timed p50 minus
// the handler p50. splitVerdict checks the first against the op's slack.
func account(w *workload, reqs []tracedReq, spans []span, timedP50 map[opKind]float64) ([]opAccount, map[string]float64) {
	self := make([]map[string]float64, len(reqs)) // per request: layer → self ms
	incl := make([]map[string]float64, len(reqs)) // per request: layer → inclusive ms
	top := make([]float64, len(reqs))             // per request: top-level spans' ms
	for i := range reqs {
		self[i], incl[i] = map[string]float64{}, map[string]float64{}
	}
	for _, s := range spans {
		ms := float64(s.End-s.Start) / 1e6
		incl[s.Req][s.Name] += ms
		self[s.Req][s.Name] += ms
		if s.Parent >= 0 {
			self[s.Req][spans[s.Parent].Name] -= ms
		} else {
			top[s.Req] += ms
		}
	}
	medianOver := func(vals []map[string]float64, name string, keep func(tracedReq) bool) float64 {
		var xs []float64
		for i, r := range reqs {
			if keep(r) {
				xs = append(xs, vals[i][name])
			}
		}
		return median(xs)
	}
	is := func(op opKind) func(tracedReq) bool { return func(r tracedReq) bool { return r.Op == op } }

	// The gated op's account comes first; the traced run always has one.
	ops := []opKind{w.gated}
	for _, op := range []opKind{opFit, opIngest, opRefit} {
		if op != w.gated {
			ops = append(ops, op)
		}
	}
	var accounts []opAccount
	for _, op := range ops {
		var handler, twin []float64
		layers := map[string]bool{}
		for i, r := range reqs {
			if r.Op == op {
				handler = append(handler, r.HandlerMS)
				twin = append(twin, top[i])
				for name := range self[i] {
					layers[name] = true
				}
			}
		}
		if len(handler) == 0 {
			continue
		}
		a := opAccount{Op: op, N: len(handler), TimedP50: timedP50[op], Handler: median(handler), Layers: map[string]float64{}}
		a.Self = a.Handler
		for name := range layers {
			a.Layers[name] = medianOver(self, name, is(op))
			a.Self -= a.Layers[name]
		}
		a.Wait = a.TimedP50 - a.Handler
		a.Slack = max(splitShare*a.Handler, splitSE*math.Hypot(seMedian(handler), seMedian(twin)))
		accounts = append(accounts, a)
	}
	m := map[string]float64{"serve.wait_ms": accounts[0].Wait, "serve.self_ms": accounts[0].Self}

	var bytes, records float64
	var releases, trimmed int
	for _, r := range reqs {
		if r.Op == opIngest {
			bytes += float64(r.Bytes)
			records += float64(r.Records)
		} else {
			releases++
			if r.Trimmed {
				trimmed++
			}
		}
	}
	if records > 0 {
		m["serve.wire_bytes_per_record"] = bytes / records
	}
	isTrimmed := func(r tracedReq) bool { return r.Trimmed }
	isRelease := func(r tracedReq) bool { return r.Op != opIngest }
	all := func(tracedReq) bool { return true }
	m[spanFmbinDecode+"_ms"] = medianOver(incl, spanFmbinDecode, is(opIngest))
	m[spanIngest+"_ms"] = medianOver(incl, spanIngest, is(opIngest))
	var perRecord []float64
	for i, r := range reqs {
		if r.Op == opIngest && r.Records > 0 {
			perRecord = append(perRecord, incl[i][spanFold]*1e6/float64(r.Records))
		}
	}
	m["funcmech.fold_ns_per_record"] = median(perRecord)
	m[spanMerge+"_ms"] = medianOver(incl, spanMerge, is(opRefit))
	m[spanWAL+"_ms"] = medianOver(incl, spanWAL, all)
	m[spanNormalize+"_ms"] = medianOver(incl, spanNormalize, is(opFit))
	m[spanRun+"_self_ms"] = medianOver(self, spanRun, is(opFit))
	m[spanKernel+"_ms"] = medianOver(incl, spanKernel, is(opFit))
	m[spanPerturb+"_ms"] = medianOver(incl, spanPerturb, isRelease)
	m[spanSolve+"_ms"] = medianOver(incl, spanSolve, isRelease)
	m[spanTrim+"_ms"] = medianOver(incl, spanTrim, isTrimmed)
	if releases > 0 {
		m["core.trim_share"] = float64(trimmed) / float64(releases)
	}
	return accounts, m
}
