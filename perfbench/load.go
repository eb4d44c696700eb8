package main

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setup loads a fresh server's state and warms it: the tenant, then the
// census upload (fit) or the stream with its preload (streams), then a
// fixed number of untimed requests of each op the timed phase sends. With
// two connections the warm-up runs on both, as the timed phase will.
func setup(w *workload, conns []*client) error {
	cl := conns[0]
	if _, ok := cl.postJSON(phaseSetup, epTenants, "/v1/tenants",
		map[string]any{"name": tenantName, "budget": tenantBudget}); !ok {
		return fmt.Errorf("creating tenant")
	}
	if w.dataset != "" {
		schema, err := jsonString(schemaJSON(w.schema))
		if err != nil {
			return err
		}
		path := "/v1/datasets?name=" + url.QueryEscape(w.dataset) + "&schema=" + url.QueryEscape(schema)
		if _, ok := cl.call(phaseSetup, epDatasets, http.MethodPost, path, "application/x-fmbin", w.frame); !ok {
			return fmt.Errorf("uploading dataset %q", w.dataset)
		}
	} else {
		if _, ok := cl.postJSON(phaseSetup, epStreams, "/v1/streams", map[string]any{
			"name":               w.stream,
			"schema":             schemaJSON(w.schema),
			"binarize_threshold": *w.threshold,
			"shards":             2,
		}); !ok {
			return fmt.Errorf("creating stream %q", w.stream)
		}
		if w.gated == opRefit {
			// Preload: every distinct batch once.
			for b := range w.bodies {
				if !cl.ingest(phaseSetup, b) {
					return fmt.Errorf("preloading stream %q", w.stream)
				}
			}
		}
	}
	if len(conns) == 1 {
		// One connection plays both roles' warm-up in turn.
		for i := 0; i < 2; i++ {
			if err := warm(w, cl, i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = warm(w, c, i)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warm sends connection i's fixed warm-up share.
func warm(w *workload, cl *client, i int) error {
	switch {
	case w.gated == opFit:
		for k := 0; k < w.sz.warmFits; k++ {
			if _, ok := cl.release(phaseSetup, w.fit, releaseEpsilon); !ok {
				return fmt.Errorf("warm-up fit failed")
			}
		}
	case w.gated == opIngest || i == 0:
		n := w.sz.warmIngests
		if w.binary {
			n = w.sz.warmBatches
		}
		for k := 0; k < n; k++ {
			if !cl.ingest(phaseSetup, (i*len(w.bodies)/2+k)%len(w.bodies)) {
				return fmt.Errorf("warm-up ingest failed")
			}
		}
	default: // the refit workload's analyst connection
		for k := 0; k < w.sz.warmRefits; k++ {
			if _, ok := cl.release(phaseSetup, w.fit, releaseEpsilon); !ok {
				return fmt.Errorf("warm-up refit failed")
			}
		}
	}
	return nil
}

// Stretches in which the hypervisor stole more than cleanSteal of the
// vCPUs' time measure the host rather than the program: under heavy steal,
// per-op CPU rises with it and throughput falls by more than the steal
// itself. The timed phase is therefore sampled in windows and runs until it
// holds d worth of clean windows, or for maxStretch·d in all; the gated
// metrics always come from the d worth of windows with the least steal,
// which are the clean ones whenever there are enough. Set-ups follow the
// same rule (see runWorkload).
const (
	cleanSteal = 0.05
	maxStretch = 1.5
)

// stretched is the most attempts the rule allows for n clean ones.
func stretched(n int) int { return int(math.Ceil(maxStretch * float64(n))) }

// leastStolen marks the n entries with the least steal, the earlier one
// first on ties.
func leastStolen(steal []float64, n int) []bool {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	used := make([]bool, len(steal))
	for _, i := range idx[:min(n, len(idx))] {
		used[i] = true
	}
	return used
}

// window is one sampling interval of the timed phase.
type window struct {
	End   time.Duration `json:"end"`          // offset from phase start
	Steal float64       `json:"steal"`        // share of CPU time stolen
	CPU   float64       `json:"server_cpu_s"` // fmserve user+system CPU
	Done  int           `json:"completions"`
	Used  bool          `json:"used"` // the gated metrics read it
}

// sample is one completed request.
type sample struct {
	lat  time.Duration // from send (or scheduled send) to response
	done time.Duration // completion offset from phase start
}

// timed is what the measured phase produced.
type timed struct {
	lat      map[opKind][]sample
	windows  []window
	lateness []time.Duration
}

// runTimed drives the measured phase against the fmserve process pid.
// Closed loops send their next request when the previous one completes;
// the refit workload's analyst sends on an open-loop schedule and its
// latency counts from the scheduled send time.
func runTimed(w *workload, conns []*client, d time.Duration, pid int) timed {
	res := timed{lat: map[opKind][]sample{}}
	var mu sync.Mutex
	add := func(op opKind, ss []sample, late []time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		res.lat[op] = append(res.lat[op], ss...)
		res.lateness = append(res.lateness, late...)
	}
	win := min(d, time.Second)
	need := int(d / win)
	start := time.Now()
	var stop atomic.Bool
	sampled := make(chan []window, 1)
	go func() {
		var ws []window
		clean := 0
		prevStat := readCPUStat()
		prevCPU, _ := cpuSeconds(pid)
		tick := time.NewTicker(win)
		defer tick.Stop()
		for range tick.C {
			stat := readCPUStat()
			cpu, err := cpuSeconds(pid)
			if err != nil {
				cpu = prevCPU
			}
			wd := window{End: time.Since(start), Steal: stealShare(prevStat, stat), CPU: cpu - prevCPU}
			if wd.Steal <= cleanSteal {
				clean++
			}
			ws = append(ws, wd)
			prevStat, prevCPU = stat, cpu
			if clean >= need || len(ws) >= stretched(need) {
				stop.Store(true)
				sampled <- ws
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i, cl := range conns {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			var ss []sample
			var late []time.Duration
			switch {
			case w.gated == opFit:
				for !stop.Load() {
					t := time.Now()
					if _, ok := cl.release(phaseTimed, w.fit, releaseEpsilon); ok {
						ss = append(ss, sample{time.Since(t), time.Since(start)})
					}
				}
				add(opFit, ss, nil)
			case w.gated == opIngest || i == 0:
				for k := 0; !stop.Load(); k++ {
					t := time.Now()
					if cl.ingest(phaseTimed, (i*len(w.bodies)/2+k)%len(w.bodies)) {
						ss = append(ss, sample{time.Since(t), time.Since(start)})
					}
				}
				add(opIngest, ss, nil)
			default:
				period := time.Second / refitRate
				for k := 0; ; k++ {
					due := start.Add(time.Duration(k) * period)
					time.Sleep(time.Until(due))
					if stop.Load() {
						break
					}
					late = append(late, time.Since(due))
					if _, ok := cl.release(phaseTimed, w.fit, releaseEpsilon); ok {
						ss = append(ss, sample{time.Since(due), time.Since(start)})
					}
				}
				add(opRefit, ss, late)
			}
		}(i, cl)
	}
	wg.Wait()
	res.windows = <-sampled

	// Book each completion to its window; requests still in flight when the
	// phase stopped complete after the last window and are not counted.
	for _, ss := range res.lat {
		for _, s := range ss {
			if i := res.windowOf(s.done); i >= 0 {
				res.windows[i].Done++
			}
		}
	}
	steal := make([]float64, len(res.windows))
	for i, wd := range res.windows {
		steal[i] = wd.Steal
	}
	for i, used := range leastStolen(steal, need) {
		res.windows[i].Used = used
	}
	return res
}

// windowOf returns the index of the window holding offset t, or -1.
func (t *timed) windowOf(off time.Duration) int {
	i := sort.Search(len(t.windows), func(i int) bool { return off < t.windows[i].End })
	if i == len(t.windows) {
		return -1
	}
	return i
}

// usedLatencies returns op's latencies that completed in used windows.
func (t *timed) usedLatencies(op opKind) []time.Duration {
	var out []time.Duration
	for _, s := range t.lat[op] {
		if i := t.windowOf(s.done); i >= 0 && t.windows[i].Used {
			out = append(out, s.lat)
		}
	}
	return out
}

// usedTotals sums the used windows: their length, completions and fmserve
// CPU seconds.
func (t *timed) usedTotals() (seconds float64, done int, cpu float64) {
	prev := time.Duration(0)
	for _, wd := range t.windows {
		if wd.Used {
			seconds += (wd.End - prev).Seconds()
			done += wd.Done
			cpu += wd.CPU
		}
		prev = wd.End
	}
	return seconds, done, cpu
}
