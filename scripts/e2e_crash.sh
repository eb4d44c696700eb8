#!/usr/bin/env bash
# e2e_crash.sh — end-to-end test of crash-safe privacy accounting: kill -9s
# fmserve (no drain, no snapshot) and asserts the restarted server still
# knows every tenant's ε-spend from the write-ahead log alone. This is the
# bug the WAL exists for: before it, a hard kill between snapshots silently
# forgot every charge since the last one, letting a restarted server re-spend
# budget the data had already paid for.
#
# Phases:
#   1. serve fits + a stream refit with -wal-dir, then kill -9 mid-traffic
#   2. restart: spend recovered bit-exactly for the quiet tenant, ≥ the sum
#      of 200-status charges for the tenant with fits in flight at the kill;
#      budget still enforced (402); stream data (not accounting) died with
#      the crash as documented
#   3. SIGTERM (snapshot + WAL compaction), restart: replay is idempotent —
#      same spend, same stream sequence numbers
#   4. one more clean restart repeats the same assertions
#   5. a charge after that restart, whose boot found the sealed segments
#      compacted away, survives a kill -9: its LSN must clear everything
#      tenants.json claims to cover, or the next replay would skip it
set -euo pipefail

cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "e2e-crash: SKIP: jq not installed" >&2; exit 0; }

ADDR="127.0.0.1:${FMSERVE_CRASH_PORT:-8079}"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
SNAPDIR="$WORKDIR/snapshots"
WALDIR="$WORKDIR/wal"
SERVER_PID=""

cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
  echo "e2e-crash: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$WORKDIR/server.log" >&2 || true
  exit 1
}

start_server() {
  "$WORKDIR/fmserve" -addr "$ADDR" -snapshot-dir "$SNAPDIR" -snapshot-every 0 \
    -wal-dir "$WALDIR" -gen income=us:500:1 \
    >>"$WORKDIR/server.log" 2>&1 &
  SERVER_PID=$!
  for i in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
      return 0
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died before becoming healthy"
    sleep 0.1
  done
  fail "server never became healthy"
}

# fit TENANT EPSILON OUTFILE -> echoes the HTTP status
fit() {
  curl -s -o "$3" -w '%{http_code}' -X POST "$BASE/v1/fit" \
    -H 'Content-Type: application/json' \
    -d "{\"tenant\":\"$1\",\"dataset\":\"income\",\"model\":\"linear\",\"epsilon\":$2}"
}

spent_of() {
  curl -fsS "$BASE/v1/tenants/$1" | jq '.epsilon_spent'
}

echo "e2e-crash: building fmserve"
go build -o "$WORKDIR/fmserve" ./cmd/fmserve

echo "e2e-crash: phase 1 — serve charges, then kill -9"
start_server

for tname in acme burst; do
  code=$(curl -s -o "$WORKDIR/tenant.json" -w '%{http_code}' -X POST "$BASE/v1/tenants" \
    -H 'Content-Type: application/json' -d "{\"name\":\"$tname\",\"budget\":4.0}")
  [ "$code" = 201 ] || fail "tenant $tname creation returned $code: $(cat "$WORKDIR/tenant.json")"
done

stream_def='{"name":"readings","intercept":true,
  "schema":{"features":[{"name":"x1","min":0,"max":10},{"name":"x2","min":0,"max":5}],
            "target":{"name":"y","min":0,"max":50}}}'
code=$(curl -s -o "$WORKDIR/stream.json" -w '%{http_code}' -X POST "$BASE/v1/streams" \
  -H 'Content-Type: application/json' -d "$stream_def")
[ "$code" = 201 ] || fail "stream creation returned $code: $(cat "$WORKDIR/stream.json")"
awk 'BEGIN {
  srand(7); printf "{\"rows\":[";
  for (i = 0; i < 150; i++) {
    x1 = rand()*10; x2 = rand()*5; y = 3*x1 + 2*x2;
    if (y > 50) y = 50;
    printf "%s[%.6f,%.6f,%.6f]", (i ? "," : ""), x1, x2, y;
  }
  printf "]}";
}' > "$WORKDIR/batch.json"
code=$(curl -s -o "$WORKDIR/ingest.json" -w '%{http_code}' -X POST "$BASE/v1/streams/readings/ingest" \
  -H 'Content-Type: application/json' -d @"$WORKDIR/batch.json")
[ "$code" = 200 ] || fail "ingest returned $code: $(cat "$WORKDIR/ingest.json")"

# Tenant acme: deterministic sequential charges (none in flight at the kill),
# so recovery must be bit-exact: 3 fits × 0.5 + 1 refit × 0.5 = 2.
for i in 1 2 3; do
  code=$(fit acme 0.5 "$WORKDIR/fit$i.json")
  [ "$code" = 200 ] || fail "acme fit $i returned $code: $(cat "$WORKDIR/fit$i.json")"
done
code=$(curl -s -o "$WORKDIR/refit.json" -w '%{http_code}' -X POST "$BASE/v1/streams/readings/refit" \
  -H 'Content-Type: application/json' \
  -d '{"tenant":"acme","model":"linear","epsilon":0.5,"options":{"seed":42}}')
[ "$code" = 200 ] || fail "refit returned $code: $(cat "$WORKDIR/refit.json")"

# Tenant burst: fits racing the kill — whatever returned 200 before the
# SIGKILL is a floor on the recovered spend (each 200 implies its charge was
# fsynced before noise was drawn). Over-counting in-flight fits is allowed.
BURST_PIDS=()
for b in 1 2 3 4; do
  fit burst 0.25 "$WORKDIR/burst$b.json" >"$WORKDIR/bcode$b" &
  BURST_PIDS+=("$!")
done
sleep 0.3 # let some (usually all) burst fits land their 200s before the kill

echo "e2e-crash: kill -9 (no drain, no snapshot)"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
for pid in "${BURST_PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
burst_floor=0
for b in 1 2 3 4; do
  if [ "$(cat "$WORKDIR/bcode$b" 2>/dev/null)" = 200 ]; then
    burst_floor=$(jq -n "$burst_floor + 0.25")
  fi
done
ls "$SNAPDIR"/tenants.json >/dev/null 2>&1 && fail "a snapshot exists; the crash phase must rely on the WAL alone"

echo "e2e-crash: phase 2 — restart, accounting must survive (burst floor: $burst_floor)"
start_server

spent=$(spent_of acme)
[ "$spent" = 2 ] || fail "acme post-crash epsilon_spent = $spent, want exactly 2 (WAL under-counted)"
total=$(curl -fsS "$BASE/v1/tenants/acme" | jq '.epsilon_total')
[ "$total" = 4 ] || fail "acme post-crash epsilon_total = $total, want 4"
burst_spent=$(spent_of burst)
jq -en "$burst_spent >= $burst_floor" >/dev/null \
  || fail "burst post-crash epsilon_spent = $burst_spent < $burst_floor, the sum of its 200-status charges"

# The recovered accountant still enforces the lifetime budget: acme has 2
# left, so 2.5 must be refused with the typed 402.
code=$(fit acme 2.5 "$WORKDIR/overbudget.json")
[ "$code" = 402 ] || fail "over-budget fit after crash returned $code, want 402"
[ "$(jq -r '.error.code' "$WORKDIR/overbudget.json")" = budget_exhausted ] \
  || fail "over-budget fit error code = $(cat "$WORKDIR/overbudget.json")"

# Stream *data* is only as durable as its snapshots — none were written, so
# the stream is gone while the refit charge it served survived above.
streams=$(curl -fsS "$BASE/v1/streams" | jq '.streams | length')
[ "$streams" = 0 ] || fail "streams survived a crash with no snapshot ($streams), expected data loss without -snapshot-every"

# New traffic on the recovered accountant, then a stream for the idempotence
# phase: 100 records this incarnation; the dead incarnation's 150 journaled
# records must never leak into it.
code=$(fit acme 1.0 "$WORKDIR/fit-post.json")
[ "$code" = 200 ] || fail "post-crash fit returned $code: $(cat "$WORKDIR/fit-post.json")"
code=$(curl -s -o "$WORKDIR/stream2.json" -w '%{http_code}' -X POST "$BASE/v1/streams" \
  -H 'Content-Type: application/json' -d "$stream_def")
[ "$code" = 201 ] || fail "stream re-creation returned $code: $(cat "$WORKDIR/stream2.json")"
awk 'BEGIN {
  srand(9); printf "{\"rows\":[";
  for (i = 0; i < 100; i++) {
    x1 = rand()*10; x2 = rand()*5; y = 3*x1 + 2*x2;
    if (y > 50) y = 50;
    printf "%s[%.6f,%.6f,%.6f]", (i ? "," : ""), x1, x2, y;
  }
  printf "]}";
}' > "$WORKDIR/batch2.json"
code=$(curl -s -o "$WORKDIR/ingest2.json" -w '%{http_code}' -X POST "$BASE/v1/streams/readings/ingest" \
  -H 'Content-Type: application/json' -d @"$WORKDIR/batch2.json")
[ "$code" = 200 ] || fail "re-ingest returned $code: $(cat "$WORKDIR/ingest2.json")"
expected_spent=3 # 2 recovered + 1 new

echo "e2e-crash: phase 3 — SIGTERM (snapshot + compaction), replay must be idempotent"
kill -TERM "$SERVER_PID"
drain_status=0
wait "$SERVER_PID" || drain_status=$?
SERVER_PID=""
[ "$drain_status" = 0 ] || fail "server exited $drain_status on SIGTERM"
ls "$SNAPDIR"/tenants.json >/dev/null 2>&1 || fail "no tenant-budget snapshot written on drain"
jq -e '.wal_lsn > 0' "$SNAPDIR/tenants.json" >/dev/null || fail "tenants.json carries no wal_lsn"

check_clean_restart() {
  spent=$(spent_of acme)
  [ "$spent" = "$expected_spent" ] || fail "$1: acme epsilon_spent = $spent, want $expected_spent (replay not idempotent)"
  b=$(spent_of burst)
  [ "$b" = "$burst_spent" ] || fail "$1: burst epsilon_spent = $b, want $burst_spent (replay not idempotent)"
  records=$(curl -fsS "$BASE/v1/streams" | jq '.streams[] | select(.name=="readings") | .records')
  [ "$records" = 100 ] || fail "$1: stream records = $records, want 100 (same sequence numbers across restart)"
}

start_server
check_clean_restart "first clean restart"

echo "e2e-crash: phase 4 — second clean restart repeats bit-identically"
kill -TERM "$SERVER_PID"
drain_status=0
wait "$SERVER_PID" || drain_status=$?
SERVER_PID=""
[ "$drain_status" = 0 ] || fail "server exited $drain_status on second SIGTERM"
start_server
check_clean_restart "second clean restart"

echo "e2e-crash: phase 5 — a charge after the compacting restart survives kill -9"
code=$(fit acme 0.5 "$WORKDIR/fit-floor.json")
[ "$code" = 200 ] || fail "post-restart fit returned $code: $(cat "$WORKDIR/fit-floor.json")"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
start_server
spent=$(spent_of acme)
[ "$spent" = 3.5 ] || fail "acme epsilon_spent after kill -9 = $spent, want exactly 3.5 (the charge's LSN was below tenants.json's wal_lsn)"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
SERVER_PID=""

echo "e2e-crash: PASS"
