#!/usr/bin/env bash
# bench_check.sh — regression gate over the committed BENCH_pr9.json: run a
# fresh benchmark pass (via bench_report.sh into a scratch file), show a
# benchstat comparison when the tool is available, and fail if
# BenchmarkObjective or BenchmarkIngest regressed by more than the threshold
# against the committed numbers.
#
# Two gates with different trust domains:
#   allocs/op — hardware-independent, enforced unconditionally;
#   ns/op     — only meaningful on the hardware the committed numbers came
#               from, so it is enforced when the cpu: line matches and
#               reported as a warning otherwise (CI runners vs the committed
#               file's machine).
#
# Environment:
#   BENCH_BASE       committed results file (default BENCH_pr9.json)
#   BENCH_TOLERANCE  fractional ns/op regression allowed (default 0.10)
#   BENCH_COUNT      repetitions for the fresh run (default 5)
#   BENCH_FRESH      an already-generated bench_report.sh JSON to gate on,
#                    instead of running the suite again (CI generates the
#                    artifact once and passes it here)
set -euo pipefail

cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "bench-check: jq is required" >&2; exit 1; }

BASE="${BENCH_BASE:-BENCH_pr9.json}"
TOL="${BENCH_TOLERANCE:-0.10}"
[ -f "$BASE" ] || { echo "bench-check: $BASE not found" >&2; exit 1; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

if [ -n "${BENCH_FRESH:-}" ]; then
  [ -f "$BENCH_FRESH" ] || { echo "bench-check: BENCH_FRESH=$BENCH_FRESH not found" >&2; exit 1; }
  cp "$BENCH_FRESH" "$WORK/fresh.json"
else
  BENCH_OUT="$WORK/fresh.json" "$(dirname "$0")/bench_report.sh"
fi

jq -r '.current.output' "$BASE" > "$WORK/committed.txt"
jq -r '.current.output' "$WORK/fresh.json" > "$WORK/fresh.txt"

if command -v benchstat >/dev/null; then
  echo "bench-check: benchstat committed vs fresh"
  benchstat "$WORK/committed.txt" "$WORK/fresh.txt" || true
fi

# Machine identity for the ns/op gate: the CPU model string AND the core
# count must both match — virtualized runners report generic model strings
# ("Intel(R) Xeon(R) Processor @ ..."), so the string alone would let a
# 1-core container's numbers gate a 4-core runner.
committed_hw="$(jq -r '"\(.cpu) x\(.cores)"' "$BASE")"
fresh_hw="$(jq -r '"\(.cpu) x\(.cores)"' "$WORK/fresh.json")"
enforce_ns=1
if [ "$committed_hw" != "$fresh_hw" ]; then
  echo "bench-check: WARNING: hardware mismatch (committed: $committed_hw, here: $fresh_hw);" \
       "ns/op deltas reported but not enforced — allocs/op gate still applies" >&2
  enforce_ns=0
fi

jq -n \
  --slurpfile base "$BASE" \
  --slurpfile fresh "$WORK/fresh.json" \
  --arg tol "$TOL" --arg enforce_ns "$enforce_ns" '
  ($base[0].current.summary) as $b | ($fresh[0].current.summary) as $c |
  [ $c | keys[]
    | select(test("BenchmarkObjective|BenchmarkIngest"))
    | select($b[.] != null)
    | . as $k
    | {name: $k,
       ns_ratio: (($c[$k].min_ns_per_op // $c[$k].ns_per_op) / ($b[$k].min_ns_per_op // $b[$k].ns_per_op)),
       alloc_base: ($b[$k].allocs_per_op // 0),
       alloc_now: ($c[$k].allocs_per_op // 0)}
  ] as $rows
  | ($rows | map(select(.ns_ratio > (1 + ($tol|tonumber)))) ) as $ns_bad
  | ($rows | map(select(.alloc_now > (.alloc_base + 0.5))) ) as $alloc_bad
  | {rows: $rows, ns_bad: $ns_bad, alloc_bad: $alloc_bad,
     fail: ((($enforce_ns == "1") and ($ns_bad | length > 0)) or ($alloc_bad | length > 0))}
' > "$WORK/verdict.json"

jq -r '.rows[] | "bench-check: \(.name): ns ratio \(.ns_ratio * 100 | round / 100), allocs \(.alloc_base) -> \(.alloc_now)"' "$WORK/verdict.json"

if [ "$(jq -r '.fail' "$WORK/verdict.json")" = "true" ]; then
  echo "bench-check: FAIL: regression beyond ${TOL} tolerance:" >&2
  jq -r '(.ns_bad + .alloc_bad)[] | "  " + .name' "$WORK/verdict.json" >&2
  exit 1
fi
echo "bench-check: PASS"
