// Command perfbench is the repository's end-to-end benchmark: it boots a
// real fmserve per workload, drives it over loopback from this single
// generator process with at most two connections, checks every output, and
// prints the end-to-end metrics. With --trace 1 it then runs the traced
// run, which splits each op's p50 into per-layer times.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload fit_census_d14 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options configure one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	fmserve  string // fmserve binary
	outDir   string // result and trace files
	walRoot  string // write-ahead logs (a tmpfs when run.sh can mount one)
	sz       sizes
	out      io.Writer // human-readable report
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		o      options
		trace  int
		output string
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: fit_census_d14, ingest_json_d14, refit_fmbin_d64, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input-generation seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds of measurement: the timed phase, or with --trace 1 the timed phase and the traced run, half each")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.StringVar(&o.fmserve, "fmserve", filepath.Join(".bench_build", "fmserve"), "fmserve binary to benchmark")
	flag.StringVar(&output, "out", ".bench_run", "directory for result and trace files")
	flag.StringVar(&o.walRoot, "wal-root", "", "directory for the write-ahead logs (default: under --out)")
	flag.Parse()
	o.trace = trace == 1
	o.outDir = output
	if o.walRoot == "" {
		o.walRoot = output
	}
	o.out = os.Stdout
	o.sz = fullSizes()
	res, err := runAll(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs one workload, or every workload with "all" (metrics then
// carry a "<workload>/" prefix).
func runAll(o options) (*result, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat(o.fmserve); err != nil {
		return nil, fmt.Errorf("fmserve binary: %w (build it with perfbench/run.sh)", err)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		w, err := newWorkload(name, o.seed, o.sz)
		if err != nil {
			return nil, err
		}
		res, _, err := runWorkload(w, o)
		if err != nil {
			return nil, err
		}
		if len(names) == 1 {
			return res, nil
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	return all, nil
}

// report is everything one workload run measured, kept for the result file.
type report struct {
	Workload  string                                 `json:"workload"`
	Seed      int64                                  `json:"seed"`
	Seconds   float64                                `json:"seconds"`
	Noise     map[string]any                         `json:"noise"`
	Setups    []setupRun                             `json:"setups"`
	EndToEnd  map[string]metric                      `json:"end_to_end"`
	Samples   map[string]int                         `json:"samples"`
	Latency   map[string]map[string]float64          `json:"latency_ms"`
	Windows   []window                               `json:"windows"`
	Requests  map[string]map[phase]map[string]*tally `json:"requests"`
	Verdicts  []verdict                              `json:"verdicts"`
	PerLayer  map[string]metric                      `json:"per_layer,omitempty"`
	Accounts  []opAccount                            `json:"accounts,omitempty"`
	TraceFile string                                 `json:"trace_file,omitempty"`
}

// setupRun is one set-up: its duration and the CPU steal over it.
type setupRun struct {
	Seconds float64 `json:"s"`
	Steal   float64 `json:"steal"`
	Used    bool    `json:"used"` // setup_s reads it
}

// runWorkload runs one workload: setups, timed phase and checks against a
// real fmserve, then the traced run when asked.
func runWorkload(w *workload, o options) (*result, *report, error) {
	runDir := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, nil, err
	}
	rep := &report{Workload: w.name, Seed: o.seed, Seconds: o.seconds,
		Requests: map[string]map[phase]map[string]*tally{}}
	fmt.Fprintf(o.out, "workload %s seed=%d seconds=%g trace=%v\n", w.name, o.seed, o.seconds, o.trace)

	walDir := filepath.Join(o.walRoot, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, nil, err
	}
	rep.Noise = noiseControls(runDir, walDir)
	var (
		srv       *server
		conns     []*httpConn
		clients   []*client
		led       *ledger
		attempted int
		failed    int
	)
	stopAll := func() {
		for _, c := range conns {
			c.close()
		}
		srv.stop()
	}
	defer stopAll()
	// Set-ups follow the timed phase's steal rule: set up until enough of
	// them ran clean, or stretched(setups) times, and take setup_s from the
	// least-stolen ones. The last server stays up for the timed phase.
	for clean := 0; clean < o.sz.setups && len(rep.Setups) < stretched(o.sz.setups); {
		if len(rep.Setups) > 0 {
			a, f := led.totals()
			attempted, failed = attempted+a, failed+f
			rep.Requests[fmt.Sprintf("discarded_setup_%d", len(rep.Setups))] = led.tallies
			stopAll()
		}
		stat0 := readCPUStat()
		start := time.Now()
		var err error
		srv, err = startServer(o.fmserve, filepath.Join(walDir, "wal"))
		if err != nil {
			return nil, nil, err
		}
		conns = []*httpConn{newHTTPConn(srv.addr), newHTTPConn(srv.addr)}
		led = newLedger(w)
		clients = []*client{{c: conns[0], led: led, w: w}, {c: conns[1], led: led, w: w}}
		if err := setup(w, clients); err != nil {
			return nil, nil, fmt.Errorf("setup: %w (problems: %v; fmserve log: %v)", err, led.problems, srv.tail())
		}
		run := setupRun{Seconds: time.Since(start).Seconds(), Steal: stealShare(stat0, readCPUStat())}
		if run.Steal <= cleanSteal {
			clean++
		}
		rep.Setups = append(rep.Setups, run)
	}
	rep.Noise["gomaxprocs_fmserve"] = srv.procs

	s1, err := scrape(conns[0])
	if err != nil {
		return nil, nil, err
	}
	pid := srv.cmd.Process.Pid
	stat0 := readCPUStat()
	// A traced invocation splits its time: half timed phase, half traced run.
	phaseLen := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		phaseLen /= 2
	}
	tm := runTimed(w, clients, phaseLen, pid)
	stat1 := readCPUStat()
	rss, err := rssMB(pid)
	if err != nil {
		return nil, nil, err
	}
	s2, err := scrape(conns[0])
	if err != nil {
		return nil, nil, err
	}
	rep.Noise["steal_share"] = stealShare(stat0, stat1)
	rep.Verdicts = checkPhase(w, clients[0], [][]promSample{s1, s2})
	rep.Requests["final_server"] = led.tallies
	a, f := led.totals()
	attempted, failed = attempted+a, failed+f
	stopAll()
	srv, conns = nil, nil

	seconds, ops, cpu := tm.usedTotals()
	gated := msOf(tm.usedLatencies(w.gated))
	if len(gated) == 0 || ops == 0 {
		return nil, nil, fmt.Errorf("timed phase completed no %s requests (problems: %v)", w.gated, led.problems)
	}
	steal := make([]float64, len(rep.Setups))
	for i, r := range rep.Setups {
		steal[i] = r.Steal
	}
	var setupS []float64
	for i, used := range leastStolen(steal, o.sz.setups) {
		rep.Setups[i].Used = used
		if used {
			setupS = append(setupS, rep.Setups[i].Seconds)
		}
	}
	rep.EndToEnd = map[string]metric{
		"setup_s":              {median(setupS), "s"},
		"ops_per_s":            {float64(ops) / seconds, "1/s"},
		"p50_ms":               {quantile(gated, 0.5), "ms"},
		"server_cpu_ms_per_op": {cpu * 1000 / float64(ops), "ms"},
		"server_rss_mb":        {rss, "MB"},
	}
	rep.Samples = map[string]int{"ops": ops, "setups": len(setupS)}
	rep.Latency = map[string]map[string]float64{}
	timedP50 := map[opKind]float64{}
	for op := range tm.lat {
		ms := msOf(tm.usedLatencies(op))
		rep.Samples[string(op)] = len(ms)
		rep.Latency[string(op)] = map[string]float64{"p50": quantile(ms, 0.5), "p90": quantile(ms, 0.9), "p99": quantile(ms, 0.99)}
		timedP50[op] = quantile(ms, 0.5)
	}
	if len(tm.lateness) > 0 {
		late := msOf(tm.lateness)
		rep.Latency["open_loop_lateness"] = map[string]float64{"p50": quantile(late, 0.5), "max": late[len(late)-1]}
	}
	rep.Windows = tm.windows
	rep.Noise["used_steal_max"] = usedSteal(rep)
	printEndToEnd(o.out, w, rep)
	if most := usedSteal(rep); most > cleanSteal {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: host contended; the end-to-end metrics read stretches with up to %.1f%% CPU steal (clean is <= %.0f%%)\n",
			w.name, o.seed, 100*most, 100*cleanSteal)
	}

	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: rep.EndToEnd}
	if o.trace {
		ratio := 1
		if n := rep.Samples[string(opRefit)]; n > 0 {
			ratio = max(1, (rep.Samples[string(opIngest)]+n/2)/n)
		}
		tr, err := runTraced(w, o.seed, phaseLen, filepath.Join(walDir, "trace"), timedP50, ratio)
		if err != nil {
			return nil, nil, err
		}
		rep.Verdicts = append(rep.Verdicts, tr.Verdicts...)
		ta, tf := tr.Ledger.totals()
		res.Attempted += ta
		res.Failed += tf
		rep.Accounts = tr.Accounts
		rep.PerLayer = perLayerMetrics(tr.Metrics)
		rep.TraceFile = filepath.Join(runDir, "trace.json")
		if err := writeJSON(rep.TraceFile, tr); err != nil {
			return nil, nil, err
		}
		printTrace(o.out, rep)
		res.Metrics = rep.PerLayer
	}
	for _, v := range rep.Verdicts {
		res.Correct = res.Correct && v.OK
		status := "PASS"
		if !v.OK {
			status = "FAIL"
		}
		fmt.Fprintf(o.out, "check %-40s %s  %s\n", v.Name, status, v.Detail)
	}
	res.Correct = res.Correct && res.Failed == 0
	fmt.Fprintf(o.out, "requests attempted=%d failed=%d\n", res.Attempted, res.Failed)
	if err := writeJSON(filepath.Join(runDir, "result.json"), rep); err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// noiseControls records what else could move the numbers.
func noiseControls(dir, walDir string) map[string]any {
	n := map[string]any{
		"nproc":                runtime.NumCPU(),
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"go_version":           runtime.Version(),
		"cpu_model":            cpuModel(),
		"wal_fs":               fsType(walDir),
		"disk_fs":              fsType(dir),
		"wal_fsync":            true,
	}
	if p50, p99, err := fsyncProbe(dir, 200); err == nil {
		n["fsync_probe_p50_us"], n["fsync_probe_p99_us"] = p50, p99
	}
	return n
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
