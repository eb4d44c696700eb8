#!/usr/bin/env bash
# e2e_smoke.sh — end-to-end smoke test for fmserve, run by the CI e2e job
# and runnable locally: builds the server, starts it against a generated
# census dataset, registers a tenant whose budget admits exactly three fits,
# asserts a fit whose ε overflows the Laplace scale is a 400 that charges
# nothing, drives three concurrent fits (all must succeed), asserts the
# fourth is refused with the typed budget_exhausted 402, checks that a
# client which stops mid-headers is disconnected within 20 s, and checks the
# server drains cleanly on SIGTERM (non-zero exit of the drain fails the job).
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${FMSERVE_PORT:-8077}"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
SERVER_PID=""

cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
  echo "e2e: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$WORKDIR/server.log" >&2 || true
  exit 1
}

echo "e2e: building fmserve"
go build -o "$WORKDIR/fmserve" ./cmd/fmserve

echo "e2e: starting fmserve on $ADDR against a generated dataset"
"$WORKDIR/fmserve" -addr "$ADDR" -gen income=us:4000:1 \
  >"$WORKDIR/server.log" 2>&1 &
SERVER_PID=$!

for i in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
    break
  fi
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died before becoming healthy"
  sleep 0.1
  [ "$i" = 100 ] && fail "server never became healthy"
done
echo "e2e: healthy"

echo "e2e: registering tenant (budget admits exactly 3 fits of ε=1.0)"
code=$(curl -s -o "$WORKDIR/tenant.json" -w '%{http_code}' -X POST "$BASE/v1/tenants" \
  -H 'Content-Type: application/json' -d '{"name":"acme","budget":3.0}')
[ "$code" = 201 ] || fail "tenant creation returned $code: $(cat "$WORKDIR/tenant.json")"

fit_body='{"tenant":"acme","dataset":"income","model":"linear","epsilon":1.0,"options":{"intercept":true}}'

echo "e2e: a fit whose Laplace scale overflows at d must be refused before its charge"
code=$(curl -s -o "$WORKDIR/overflow.json" -w '%{http_code}' -X POST "$BASE/v1/fit" \
  -H 'Content-Type: application/json' \
  -d '{"tenant":"acme","dataset":"income","model":"linear","epsilon":1e-320}')
[ "$code" = 400 ] || fail "overflowing-ε fit returned $code, want 400: $(cat "$WORKDIR/overflow.json")"
grep -q '"invalid_request"' "$WORKDIR/overflow.json" \
  || fail "overflowing-ε fit lacked the typed invalid_request error: $(cat "$WORKDIR/overflow.json")"
echo "e2e: overflowing-ε fit refused with 400 invalid_request"

echo "e2e: driving 3 concurrent fits"
CURL_PIDS=()
for i in 1 2 3; do
  curl -s -o "$WORKDIR/fit$i.json" -w '%{http_code}' -X POST "$BASE/v1/fit" \
    -H 'Content-Type: application/json' -d "$fit_body" >"$WORKDIR/code$i" &
  CURL_PIDS+=("$!")
done
# Wait on the curl PIDs only: a bare `wait` would also wait on the server.
for pid in "${CURL_PIDS[@]}"; do
  wait "$pid" || fail "concurrent fit request (pid $pid) failed"
done

for i in 1 2 3; do
  code=$(cat "$WORKDIR/code$i")
  [ "$code" = 200 ] || fail "concurrent fit $i returned $code: $(cat "$WORKDIR/fit$i.json")"
done
echo "e2e: 3 concurrent fits all returned 200"

echo "e2e: fourth fit must be refused for budget exhaustion"
code=$(curl -s -o "$WORKDIR/fit4.json" -w '%{http_code}' -X POST "$BASE/v1/fit" \
  -H 'Content-Type: application/json' -d "$fit_body")
case "$code" in
  4*) ;;
  *) fail "fourth fit returned $code, want a 4xx: $(cat "$WORKDIR/fit4.json")" ;;
esac
grep -q '"budget_exhausted"' "$WORKDIR/fit4.json" \
  || fail "fourth fit lacked the typed budget_exhausted error: $(cat "$WORKDIR/fit4.json")"
echo "e2e: fourth fit refused with $code budget_exhausted"

echo "e2e: checking accounting via /metrics"
curl -fsS "$BASE/metrics" >"$WORKDIR/metrics.txt" || fail "metrics endpoint unreachable"
grep -qx 'fm_fits_total 3' "$WORKDIR/metrics.txt" || fail "fm_fits_total != 3: $(cat "$WORKDIR/metrics.txt")"
grep -qx 'fm_fits_error_total 0' "$WORKDIR/metrics.txt" \
  || fail "fm_fits_error_total != 0: $(cat "$WORKDIR/metrics.txt")"
grep -qx 'fm_epsilon_remaining{tenant="acme"} 0' "$WORKDIR/metrics.txt" \
  || fail "budget not fully spent: $(cat "$WORKDIR/metrics.txt")"

echo "e2e: a client that stops mid-headers must be disconnected within 20 s"
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}" || fail "could not open a raw connection to $ADDR"
printf 'GET /healthz HTTP/1.1\r\nHost: x\r\n' >&3
started=$SECONDS
slow_status=0
timeout 20 cat <&3 >/dev/null || slow_status=$?
exec 3<&-
[ "$slow_status" = 0 ] || fail "a connection stalled mid-headers was still open after 20 s"
echo "e2e: stalled connection closed by the server after $((SECONDS - started)) s"

echo "e2e: graceful shutdown (SIGTERM must drain and exit 0)"
kill -TERM "$SERVER_PID"
drain_status=0
wait "$SERVER_PID" || drain_status=$?
SERVER_PID=""
[ "$drain_status" = 0 ] || fail "server exited $drain_status on SIGTERM"

echo "e2e: PASS"
