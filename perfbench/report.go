package main

import (
	"fmt"
	"io"
	"strings"
)

// perLayerUnits lists every per-layer metric with its unit, in report
// order. Each name is <Go package>.<quantity>.
var perLayerUnits = []struct{ name, unit string }{
	{"serve.wait_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.wire_bytes_per_record", "B/record"},
	{"fmbin.decode_ms", "ms"},
	{"stream.ingest_ms", "ms"},
	{"funcmech.fold_ns_per_record", "ns"},
	{"funcmech.folds_per_record", "count"},
	{"stream.merge_ms", "ms"},
	{"wal.append_ms", "ms"},
	{"wal.appends_per_op", "count"},
	{"dataset.normalize_ms", "ms"},
	{"dataset.bytes_copied_per_fit", "B"},
	{"core.run_self_ms", "ms"},
	{"core.kernel_ms", "ms"},
	{"core.perturb_ms", "ms"},
	{"noise.draws_per_release", "count"},
	{"regression.solve_ms", "ms"},
	{"core.trim_share", "share"},
	{"core.trim_ms", "ms"},
	{"trace.overhead_share", "share"},
}

// perLayerMetrics gives every per-layer metric a value; a layer the
// workload never calls reads 0.
func perLayerMetrics(m map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, pl := range perLayerUnits {
		out[pl.name] = metric{Value: m[pl.name], Unit: pl.unit}
	}
	return out
}

func printEndToEnd(out io.Writer, w *workload, rep *report) {
	noise := rep.Noise
	fmt.Fprintf(out, "noise nproc=%v gomaxprocs_generator=%v gomaxprocs_fmserve=%v go=%v cpu=%q steal_share=%.4f wal_fs=%v wal_fsync=%v fsync_probe_p50_us=%.1f fsync_probe_p99_us=%.1f (fsync probe is context, not gated)\n",
		noise["nproc"], noise["gomaxprocs_generator"], noise["gomaxprocs_fmserve"], noise["go_version"], noise["cpu_model"],
		noise["steal_share"], noise["wal_fs"], noise["wal_fsync"], noise["fsync_probe_p50_us"], noise["fsync_probe_p99_us"])
	clean, used, done, steal := 0, 0, make([]string, len(rep.Windows)), make([]string, len(rep.Windows))
	for i, wd := range rep.Windows {
		if wd.Steal <= cleanSteal {
			clean++
		}
		if wd.Used {
			used++
		}
		done[i], steal[i] = fmt.Sprint(wd.Done), fmt.Sprintf("%.2f", wd.Steal)
	}
	fmt.Fprintf(out, "windows %d, %d clean (steal <= %g); metrics from the %d least stolen, max steal %.3f\n",
		len(rep.Windows), clean, cleanSteal, used, usedSteal(rep))
	fmt.Fprintf(out, "windows completions [%s] steal [%s]\n", strings.Join(done, " "), strings.Join(steal, " "))
	runs := make([]string, len(rep.Setups))
	for i, r := range rep.Setups {
		runs[i] = fmt.Sprintf("%.4f(steal %.2f)", r.Seconds, r.Steal)
		if r.Used {
			runs[i] += "*"
		}
	}
	e := rep.EndToEnd
	ops := rep.Samples["ops"]
	fmt.Fprintf(out, "e2e setup_s = %.4f s (median of the %d marked * of %d set-ups: %s)\n",
		e["setup_s"].Value, rep.Samples["setups"], len(rep.Setups), strings.Join(runs, " "))
	fmt.Fprintf(out, "e2e ops_per_s = %.2f 1/s (%d requests)\n", e["ops_per_s"].Value, ops)
	fmt.Fprintf(out, "e2e p50_ms = %.3f ms (%s, n=%d)\n", e["p50_ms"].Value, w.gated, rep.Samples[string(w.gated)])
	fmt.Fprintf(out, "e2e server_cpu_ms_per_op = %.3f ms (%d requests)\n", e["server_cpu_ms_per_op"].Value, ops)
	fmt.Fprintf(out, "e2e server_rss_mb = %.1f MB (VmRSS at end of timed phase)\n", e["server_rss_mb"].Value)
	for _, op := range []opKind{opFit, opIngest, opRefit} {
		if l, ok := rep.Latency[string(op)]; ok {
			name := "release"
			if op == opIngest {
				name = "ingest"
			}
			n := rep.Samples[string(op)]
			fmt.Fprintf(out, "op %s: %s_p50_ms=%.3f %s_p90_ms=%.3f p99_ms=%.3f n=%d (%d samples above p90)\n",
				op, name, l["p50"], name, l["p90"], l["p99"], n, n/10)
		}
	}
	if l, ok := rep.Latency["open_loop_lateness"]; ok {
		fmt.Fprintf(out, "open-loop analyst lateness p50_ms=%.3f max_ms=%.3f\n", l["p50"], l["max"])
	}
	for _, srvName := range sortedKeys(rep.Requests) {
		for _, p := range phases {
			for _, ep := range sortedKeys(rep.Requests[srvName][p]) {
				t := rep.Requests[srvName][p][ep]
				codes := make([]string, 0, len(t.ByCode))
				for _, c := range sortedKeys(t.ByCode) {
					codes = append(codes, fmt.Sprintf("%s:%d", c, t.ByCode[c]))
				}
				fmt.Fprintf(out, "requests %s phase=%s endpoint=%q attempted=%d ok=%d failed=%d codes={%s}\n",
					srvName, p, ep, t.Attempted, t.OK, t.Failed, strings.Join(codes, " "))
			}
		}
	}
}

// usedSteal is the most steal any window or set-up the end-to-end metrics
// read was exposed to. Above cleanSteal the host was contended for the
// whole of the run's stretch.
func usedSteal(rep *report) float64 {
	var most float64
	for _, wd := range rep.Windows {
		if wd.Used {
			most = max(most, wd.Steal)
		}
	}
	for _, r := range rep.Setups {
		if r.Used {
			most = max(most, r.Steal)
		}
	}
	return most
}

func printTrace(out io.Writer, rep *report) {
	for _, a := range rep.Accounts {
		sum := a.Wait + a.Self
		fmt.Fprintf(out, "trace op=%s n=%d timed_p50_ms=%.4f = serve.wait_ms %.4f + handler_p50_ms %.4f\n",
			a.Op, a.N, a.TimedP50, a.Wait, a.Handler)
		fmt.Fprintf(out, "trace op=%s   handler_p50_ms %.4f = serve.self_ms %.4f", a.Op, a.Handler, a.Self)
		for _, name := range sortedKeys(a.Layers) {
			fmt.Fprintf(out, " + %s %.4f", name, a.Layers[name])
			sum += a.Layers[name]
		}
		fmt.Fprintf(out, "  (parts sum to %.4f)\n", sum)
	}
	for _, pl := range perLayerUnits {
		fmt.Fprintf(out, "layer %s = %.6g %s\n", pl.name, rep.PerLayer[pl.name].Value, pl.unit)
	}
	fmt.Fprintf(out, "trace spans written to %s\n", rep.TraceFile)
}
