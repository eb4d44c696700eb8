#!/usr/bin/env bash
# bench_report.sh — run the mechanism's hot-path benchmark suite and emit
# BENCH_pr9.json at the repo root: the current point of the repo's
# performance trajectory. The file carries two raw `go test -bench` outputs:
#
#   baseline — the pre-PR4 numbers (scalar per-record fold over slice-of-rows
#              storage), captured on the machine named in its own cpu: line
#              and checked in as scripts/bench_baseline_pr4.txt;
#   current  — the suite as of this checkout (the reproducible SYRK kernel:
#              AVX2 vector sweep or portable generic fold, swept across d
#              in BenchmarkObjectiveDSweep, the one fold per task in
#              BenchmarkFold, the public stream fold — one shared Gram plus
#              median's weighted fold per batch — in BenchmarkIngestFold,
#              which the BenchmarkIngest pattern selects, and the symmetric
#              eigen solver in BenchmarkEigenSymmetric), measured by this
#              run.
#
# plus a machine-readable summary of the headline series (ns/op and
# allocs/op per benchmark, averaged across -count repetitions). CI runs this
# in the bench job and scripts/bench_check.sh gates regressions against the
# committed file.
#
# Environment:
#   BENCH_COUNT   repetitions per benchmark (default 5)
#   BENCH_OUT     output file (default BENCH_pr9.json at the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "bench-report: jq is required" >&2; exit 1; }

COUNT="${BENCH_COUNT:-5}"
OUT="${BENCH_OUT:-BENCH_pr9.json}"
PATTERN='BenchmarkObjective|BenchmarkIngest|BenchmarkColumnarKernel|BenchmarkRefitFromStream'
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "bench-report: running $PATTERN (count=$COUNT)" >&2
go test -bench "$PATTERN" -benchmem -run '^$' -count "$COUNT" -timeout 60m . | tee "$WORK/current.txt" >&2
# The spectral-trim solver runs on every d=64 refit; its n = 14/64/128
# benchmark lives in internal/linalg and joins the same output.
echo "bench-report: running BenchmarkEigenSymmetric (count=$COUNT)" >&2
go test -bench BenchmarkEigenSymmetric -benchmem -run '^$' -count "$COUNT" -timeout 60m ./internal/linalg | tee -a "$WORK/current.txt" >&2
# Every task folds through the one SYRK fold in internal/core; its
# per-task cost (linear, logistic, median at d = 14 and 64) joins too.
echo "bench-report: running BenchmarkFold (count=$COUNT)" >&2
go test -bench BenchmarkFold -benchmem -run '^$' -count "$COUNT" -timeout 60m ./internal/core | tee -a "$WORK/current.txt" >&2

# summarize <file>: benchmark name → mean ns/op and allocs/op across reps.
summarize() {
  awk '
    /^Benchmark/ {
      name = $1
      sub(/-[0-9]+$/, "", name) # drop the GOMAXPROCS suffix: machine detail, not identity
      for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op") {
          ns[name] += $(i-1); nns[name]++
          if (!(name in mn) || $(i-1) < mn[name]) mn[name] = $(i-1)
        }
        if ($(i) == "allocs/op") { al[name] += $(i-1); nal[name]++ }
      }
    }
    END {
      printf "{"
      sep = ""
      for (name in ns) {
        # min_ns_per_op is the regression-gate estimator: the minimum across
        # repetitions discards scheduler noise a mean would absorb.
        printf "%s\"%s\":{\"ns_per_op\":%.1f,\"min_ns_per_op\":%.1f", sep, name, ns[name]/nns[name], mn[name]
        if (nal[name] > 0) printf ",\"allocs_per_op\":%.1f", al[name]/nal[name]
        printf "}"
        sep = ","
      }
      printf "}\n"
    }' "$1"
}

summarize "$WORK/current.txt" > "$WORK/current-summary.json"
summarize scripts/bench_baseline_pr4.txt > "$WORK/baseline-summary.json"

jq -n \
  --arg pr "9" \
  --arg commit "$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
  --arg go "$(go version)" \
  --arg cores "$(nproc)" \
  --arg cpu "$(awk -F': ' '/^cpu:/ {print $2; exit}' "$WORK/current.txt")" \
  --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  --arg count "$COUNT" \
  --rawfile baseline scripts/bench_baseline_pr4.txt \
  --rawfile current "$WORK/current.txt" \
  --slurpfile bsum "$WORK/baseline-summary.json" \
  --slurpfile csum "$WORK/current-summary.json" \
  '{
     pr: ($pr|tonumber), commit: $commit, go: $go,
     cores: ($cores|tonumber), cpu: $cpu, date: $date,
     bench: ("go test -bench <hot paths> -benchmem -run ^$ -count " + $count),
     baseline: {description: "pre-PR4: scalar per-record fold, slice-of-rows storage",
                summary: $bsum[0], output: $baseline},
     current:  {description: "blocked SYRK kernel over flat columnar storage (AVX2 vector sweep or portable generic fold, adaptive tiles, swept across d in BenchmarkObjectiveDSweep); fmbin binary ingest path (BenchmarkIngestBinary); observability probe threaded through the hot paths (free when no trace is attached); Householder–QL symmetric eigen solver behind spectral trimming (BenchmarkEigenSymmetric, internal/linalg); one fold for every task, each stating its per-record coefficients (BenchmarkFold, internal/core)",
                summary: $csum[0], output: $current}
   }' > "$OUT"

echo "bench-report: wrote $OUT" >&2
jq -r '
  .baseline.summary as $b | .current.summary as $c |
  ($c | keys[]) as $k |
  select($b[$k] != null) |
  "\($k): \($b[$k].min_ns_per_op // $b[$k].ns_per_op) -> \($c[$k].min_ns_per_op // $c[$k].ns_per_op) ns/op (\(($b[$k].min_ns_per_op // $b[$k].ns_per_op) / ($c[$k].min_ns_per_op // $c[$k].ns_per_op) * 100 | round / 100)x best-of-reps), allocs \($b[$k].allocs_per_op) -> \($c[$k].allocs_per_op)"
' "$OUT" >&2
