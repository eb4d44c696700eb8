#!/usr/bin/env bash
# e2e_stream.sh — end-to-end test of the streaming ingestion subsystem, run
# by the CI e2e job and runnable locally: builds fmserve with snapshotting
# enabled, creates a stream, drives 3 concurrent ingest batches, refits from
# the live accumulators (asserting the ingest counters in /metrics), then
# SIGTERMs the server, restarts it from the snapshot directory, checks the
# record counts survived without re-ingesting, and refits again with the
# same seed — the weights must be bit-identical across the restart. A copy
# of the snapshot directory whose accumulator envelope claims version 3
# must stop a second server's boot and come back byte-for-byte unchanged.
# Finally
# it ingests the same rows into two fresh streams, once as JSON and once as
# an fmbin binary frame (cmd/fmbin, Content-Type: application/x-fmbin), and
# asserts the two refits are bit-identical — the wire format must not
# change a single bit of what the accumulator folds. A final section proves
# the task registry end to end: one stream ingested once serves both a
# `linear` and a `median` refit, each charging the tenant's WAL-journaled
# budget, and the median refit is bit-identical to a one-shot /v1/fit over
# the same rows at the same seed.
set -euo pipefail

cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "e2e-stream: SKIP: jq not installed" >&2; exit 0; }

ADDR="127.0.0.1:${FMSERVE_STREAM_PORT:-8078}"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
SNAPDIR="$WORKDIR/snapshots"
SERVER_PID=""

cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
  echo "e2e-stream: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$WORKDIR/server.log" >&2 || true
  exit 1
}

metric() { # metric NAME -> value of the exact-match sample line
  grep -E "^$1 " "$WORKDIR/metrics.txt" | awk '{print $2}'
}

start_server() {
  "$WORKDIR/fmserve" -addr "$ADDR" -snapshot-dir "$SNAPDIR" -snapshot-every 0 \
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

echo "e2e-stream: building fmserve"
go build -o "$WORKDIR/fmserve" ./cmd/fmserve

echo "e2e-stream: starting fmserve on $ADDR (snapshots in $SNAPDIR)"
start_server

echo "e2e-stream: creating tenant and stream"
code=$(curl -s -o "$WORKDIR/tenant.json" -w '%{http_code}' -X POST "$BASE/v1/tenants" \
  -H 'Content-Type: application/json' -d '{"name":"acme","budget":4.0}')
[ "$code" = 201 ] || fail "tenant creation returned $code: $(cat "$WORKDIR/tenant.json")"

stream_def='{"name":"readings","intercept":true,"shards":3,
  "schema":{"features":[{"name":"x1","min":0,"max":10},{"name":"x2","min":0,"max":5}],
            "target":{"name":"y","min":0,"max":50}}}'
code=$(curl -s -o "$WORKDIR/stream.json" -w '%{http_code}' -X POST "$BASE/v1/streams" \
  -H 'Content-Type: application/json' -d "$stream_def")
[ "$code" = 201 ] || fail "stream creation returned $code: $(cat "$WORKDIR/stream.json")"

echo "e2e-stream: generating 3 batches of 150 deterministic rows"
for b in 1 2 3; do
  awk -v b="$b" 'BEGIN {
    srand(b); printf "{\"rows\":[";
    for (i = 0; i < 150; i++) {
      x1 = rand()*10; x2 = rand()*5; y = 3*x1 + 2*x2;
      if (y > 50) y = 50;
      printf "%s[%.6f,%.6f,%.6f]", (i ? "," : ""), x1, x2, y;
    }
    printf "]}";
  }' > "$WORKDIR/batch$b.json"
done

echo "e2e-stream: ingesting the 3 batches concurrently"
CURL_PIDS=()
for b in 1 2 3; do
  curl -s -o "$WORKDIR/ingest$b.json" -w '%{http_code}' -X POST "$BASE/v1/streams/readings/ingest" \
    -H 'Content-Type: application/json' -d @"$WORKDIR/batch$b.json" >"$WORKDIR/icode$b" &
  CURL_PIDS+=("$!")
done
for pid in "${CURL_PIDS[@]}"; do
  wait "$pid" || fail "concurrent ingest request (pid $pid) failed"
done
for b in 1 2 3; do
  code=$(cat "$WORKDIR/icode$b")
  [ "$code" = 200 ] || fail "ingest $b returned $code: $(cat "$WORKDIR/ingest$b.json")"
done

echo "e2e-stream: asserting ingest counters in /metrics and /v1/streams"
curl -fsS "$BASE/metrics" >"$WORKDIR/metrics.txt" || fail "metrics endpoint unreachable"
curl -fsS "$BASE/v1/streams" >"$WORKDIR/streams.json" || fail "stream listing unreachable"
records=$(metric fm_ingest_records_total)
batches=$(metric fm_ingest_batches_total)
per_stream=$(jq '.streams[] | select(.name=="readings") | .records' "$WORKDIR/streams.json")
[ "$records" = 450 ] || fail "fm_ingest_records_total = $records, want 450"
[ "$batches" = 3 ] || fail "fm_ingest_batches_total = $batches, want 3"
[ "$per_stream" = 450 ] || fail "per-stream records = $per_stream, want 450"

echo "e2e-stream: refit from the live accumulators (ε=1, fixed seed)"
refit_body='{"tenant":"acme","model":"linear","epsilon":1.0,"options":{"seed":42}}'
code=$(curl -s -o "$WORKDIR/refit1.json" -w '%{http_code}' -X POST "$BASE/v1/streams/readings/refit" \
  -H 'Content-Type: application/json' -d "$refit_body")
[ "$code" = 200 ] || fail "refit returned $code: $(cat "$WORKDIR/refit1.json")"
covered=$(jq '.records_covered' "$WORKDIR/refit1.json")
[ "$covered" = 450 ] || fail "refit covered $covered records, want 450"
jq -c '.weights' "$WORKDIR/refit1.json" > "$WORKDIR/weights1.json"

echo "e2e-stream: SIGTERM (snapshot must be written on drain)"
kill -TERM "$SERVER_PID"
drain_status=0
wait "$SERVER_PID" || drain_status=$?
SERVER_PID=""
[ "$drain_status" = 0 ] || fail "server exited $drain_status on SIGTERM"
ls "$SNAPDIR"/readings.stream.json >/dev/null 2>&1 || fail "no snapshot file written: $(ls -la "$SNAPDIR" 2>&1)"
ls "$SNAPDIR"/tenants.json >/dev/null 2>&1 || fail "no tenant-budget snapshot written: $(ls -la "$SNAPDIR" 2>&1)"

echo "e2e-stream: restarting from snapshot"
start_server

echo "e2e-stream: record counts must survive the restart without re-ingesting"
curl -fsS "$BASE/v1/streams" >"$WORKDIR/streams2.json" || fail "stream listing unreachable"
records2=$(jq '.streams[] | select(.name=="readings") | .records' "$WORKDIR/streams2.json")
batches2=$(jq '.streams[] | select(.name=="readings") | .batches' "$WORKDIR/streams2.json")
[ "$records2" = 450 ] || fail "post-restart records = $records2, want 450 (diff: pre=450)"
[ "$batches2" = 3 ] || fail "post-restart batches = $batches2, want 3"
# The service-level ingest counters are sums over the restored streams, so
# they agree with the per-stream counts across the restart.
curl -fsS "$BASE/metrics" >"$WORKDIR/metrics.txt" || fail "post-restart metrics unreachable"
[ "$(metric fm_ingest_records_total)" = 450 ] \
  || fail "post-restart fm_ingest_records_total = $(metric fm_ingest_records_total), want 450"

echo "e2e-stream: tenant lifetime ε-spend must survive the restart"
curl -fsS "$BASE/v1/tenants/acme" >"$WORKDIR/tenant2.json" || fail "tenant not restored from snapshot"
spent=$(jq '.epsilon_spent' "$WORKDIR/tenant2.json")
total=$(jq '.epsilon_total' "$WORKDIR/tenant2.json")
[ "$spent" = 1 ] || fail "post-restart epsilon_spent = $spent, want 1 (restart reset the accounting)"
[ "$total" = 4 ] || fail "post-restart epsilon_total = $total, want 4"
# Re-declaring the restored tenant must conflict, never reset its accounting.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/tenants" \
  -H 'Content-Type: application/json' -d '{"name":"acme","budget":4.0}')
[ "$code" = 409 ] || fail "re-creating restored tenant returned $code, want 409"

echo "e2e-stream: refit after restart must be bit-identical at the same seed"
code=$(curl -s -o "$WORKDIR/refit2.json" -w '%{http_code}' -X POST "$BASE/v1/streams/readings/refit" \
  -H 'Content-Type: application/json' -d "$refit_body")
[ "$code" = 200 ] || fail "post-restart refit returned $code: $(cat "$WORKDIR/refit2.json")"
jq -c '.weights' "$WORKDIR/refit2.json" > "$WORKDIR/weights2.json"
diff "$WORKDIR/weights1.json" "$WORKDIR/weights2.json" \
  || fail "weights changed across snapshot restart (want bit-identical at fixed seed)"

echo "e2e-stream: a pre-v4 accumulator envelope must stop the boot and stay untouched"
# Only accumulator envelope v4 loads. Rewrite the nested accumulator's
# version in a copy of the snapshot directory (the stream envelope itself is
# version 1) and boot a second fmserve on it: it must exit non-zero, name
# the file and the version error, and write nothing.
OLDDIR="$WORKDIR/snapshots-pre-v4"
cp -r "$SNAPDIR" "$OLDDIR"
[ "$(grep -o '"version":4' "$OLDDIR/readings.stream.json" | wc -l)" = 1 ] \
  || fail "want exactly one \"version\":4 (the accumulator's) in readings.stream.json"
sed -i 's/"version":4/"version":3/' "$OLDDIR/readings.stream.json"
sums_before=$(sha256sum "$OLDDIR"/*)
old_status=0
timeout 30 "$WORKDIR/fmserve" -addr "127.0.0.1:$(( ${FMSERVE_STREAM_PORT:-8078} + 10 ))" \
  -snapshot-dir "$OLDDIR" -snapshot-every 0 >"$WORKDIR/pre-v4.log" 2>&1 || old_status=$?
[ "$old_status" != 0 ] || fail "fmserve booted from a pre-v4 snapshot"
[ "$old_status" != 124 ] || fail "fmserve kept running on a pre-v4 snapshot"
grep 'readings.stream.json' "$WORKDIR/pre-v4.log" | grep -q 'unsupported envelope version' \
  || fail "boot log names no readings.stream.json version error: $(cat "$WORKDIR/pre-v4.log")"
[ "$(sha256sum "$OLDDIR"/*)" = "$sums_before" ] \
  || fail "the refused boot changed the snapshot directory"

echo "e2e-stream: binary ingest must refit bit-identically to JSON ingest"
go build -o "$WORKDIR/fmbin" ./cmd/fmbin
for name in bjson bbin; do
  stream_def=$(printf '{"name":"%s","intercept":true,"shards":1,
    "schema":{"features":[{"name":"x1","min":0,"max":10},{"name":"x2","min":0,"max":5}],
              "target":{"name":"y","min":0,"max":50}}}' "$name")
  code=$(curl -s -o "$WORKDIR/$name.json" -w '%{http_code}' -X POST "$BASE/v1/streams" \
    -H 'Content-Type: application/json' -d "$stream_def")
  [ "$code" = 201 ] || fail "stream $name creation returned $code: $(cat "$WORKDIR/$name.json")"
done

# Same 150 rows from batch1, once as the JSON body and once fmbin-encoded.
code=$(curl -s -o "$WORKDIR/bjson_ingest.json" -w '%{http_code}' -X POST "$BASE/v1/streams/bjson/ingest" \
  -H 'Content-Type: application/json' -d @"$WORKDIR/batch1.json")
[ "$code" = 200 ] || fail "JSON ingest into bjson returned $code: $(cat "$WORKDIR/bjson_ingest.json")"

jq -c '.rows' "$WORKDIR/batch1.json" | "$WORKDIR/fmbin" encode > "$WORKDIR/batch1.fmbin"
json_bytes=$(wc -c < "$WORKDIR/batch1.json")
bin_bytes=$(wc -c < "$WORKDIR/batch1.fmbin")
echo "e2e-stream: batch1 wire size: $json_bytes bytes JSON, $bin_bytes bytes fmbin"
code=$(curl -s -o "$WORKDIR/bbin_ingest.json" -w '%{http_code}' -X POST "$BASE/v1/streams/bbin/ingest" \
  -H 'Content-Type: application/x-fmbin' --data-binary @"$WORKDIR/batch1.fmbin")
[ "$code" = 200 ] || fail "binary ingest into bbin returned $code: $(cat "$WORKDIR/bbin_ingest.json")"
[ "$(jq '.accepted' "$WORKDIR/bbin_ingest.json")" = 150 ] \
  || fail "binary ingest accepted $(jq '.accepted' "$WORKDIR/bbin_ingest.json") records, want 150"

# Both single-shard streams hold the same records in the same order, so at a
# fixed seed the released weights must match bit for bit. The two ε=1 refits
# spend acme's remaining budget (4 total − 2 already spent) exactly.
refit7='{"tenant":"acme","model":"linear","epsilon":1.0,"options":{"seed":7}}'
for name in bjson bbin; do
  code=$(curl -s -o "$WORKDIR/refit_$name.json" -w '%{http_code}' -X POST "$BASE/v1/streams/$name/refit" \
    -H 'Content-Type: application/json' -d "$refit7")
  [ "$code" = 200 ] || fail "refit of $name returned $code: $(cat "$WORKDIR/refit_$name.json")"
  jq -c '.weights' "$WORKDIR/refit_$name.json" > "$WORKDIR/weights_$name.json"
done
diff "$WORKDIR/weights_bjson.json" "$WORKDIR/weights_bbin.json" \
  || fail "binary-ingested refit differs from JSON-ingested refit (want bit-identical)"

# A corrupt frame must be rejected whole: overwrite the first column-tag
# byte (offset 20, right after the header) with 0xFF — tags are only 0..2,
# so this always changes the byte and always breaks the CRC.
head -c 20 "$WORKDIR/batch1.fmbin" > "$WORKDIR/corrupt.fmbin"
printf '\377' >> "$WORKDIR/corrupt.fmbin"
tail -c +22 "$WORKDIR/batch1.fmbin" >> "$WORKDIR/corrupt.fmbin"
code=$(curl -s -o "$WORKDIR/corrupt.json" -w '%{http_code}' -X POST "$BASE/v1/streams/bbin/ingest" \
  -H 'Content-Type: application/x-fmbin' --data-binary @"$WORKDIR/corrupt.fmbin")
[ "$code" = 400 ] || fail "corrupt frame returned $code, want 400: $(cat "$WORKDIR/corrupt.json")"
[ "$(curl -fsS "$BASE/v1/streams" | jq '.streams[] | select(.name=="bbin") | .records')" = 150 ] \
  || fail "corrupt frame changed bbin's record count"

echo "e2e-stream: one ingest, many tasks — linear + median refit from the same stream"
# Fresh tenant: acme's 4.0 budget is exactly spent by the four refits above.
code=$(curl -s -o "$WORKDIR/medco.json" -w '%{http_code}' -X POST "$BASE/v1/tenants" \
  -H 'Content-Type: application/json' -d '{"name":"medco","budget":4.0}')
[ "$code" = 201 ] || fail "tenant medco creation returned $code: $(cat "$WORKDIR/medco.json")"

multi_def='{"name":"multi","intercept":true,"shards":1,
  "schema":{"features":[{"name":"x1","min":0,"max":10},{"name":"x2","min":0,"max":5}],
            "target":{"name":"y","min":0,"max":50}}}'
code=$(curl -s -o "$WORKDIR/multi.json" -w '%{http_code}' -X POST "$BASE/v1/streams" \
  -H 'Content-Type: application/json' -d "$multi_def")
[ "$code" = 201 ] || fail "stream multi creation returned $code: $(cat "$WORKDIR/multi.json")"

code=$(curl -s -o "$WORKDIR/multi_ingest.json" -w '%{http_code}' -X POST "$BASE/v1/streams/multi/ingest" \
  -H 'Content-Type: application/json' -d @"$WORKDIR/batch1.json")
[ "$code" = 200 ] || fail "ingest into multi returned $code: $(cat "$WORKDIR/multi_ingest.json")"

# Both tasks refit from the single ingest; the records were folded once.
for model in linear median; do
  refit_multi=$(printf '{"tenant":"medco","model":"%s","epsilon":1.0,"options":{"seed":23}}' "$model")
  code=$(curl -s -o "$WORKDIR/refit_multi_$model.json" -w '%{http_code}' -X POST "$BASE/v1/streams/multi/refit" \
    -H 'Content-Type: application/json' -d "$refit_multi")
  [ "$code" = 200 ] || fail "$model refit from multi returned $code: $(cat "$WORKDIR/refit_multi_$model.json")"
  covered=$(jq '.records_covered' "$WORKDIR/refit_multi_$model.json")
  [ "$covered" = 150 ] || fail "$model refit covered $covered records, want 150"
  jq -c '.weights' "$WORKDIR/refit_multi_$model.json" > "$WORKDIR/weights_multi_$model.json"
done
diff -q "$WORKDIR/weights_multi_linear.json" "$WORKDIR/weights_multi_median.json" >/dev/null \
  && fail "linear and median refits released identical weights (tasks are not being distinguished)"

echo "e2e-stream: both refits must have charged medco's WAL-journaled budget"
curl -fsS "$BASE/v1/tenants/medco" >"$WORKDIR/medco2.json" || fail "tenant medco unreachable"
spent=$(jq '.epsilon_spent' "$WORKDIR/medco2.json")
[ "$spent" = 2 ] || fail "medco epsilon_spent = $spent after linear+median refits, want 2"

echo "e2e-stream: median refit must be bit-identical to a one-shot fit at the same seed"
jq -c '{name:"multi-data",
        schema:{features:[{"name":"x1","min":0,"max":10},{"name":"x2","min":0,"max":5}],
                target:{"name":"y","min":0,"max":50}},
        rows:.rows}' "$WORKDIR/batch1.json" > "$WORKDIR/multi_dataset.json"
code=$(curl -s -o "$WORKDIR/multi_ds.json" -w '%{http_code}' -X POST "$BASE/v1/datasets" \
  -H 'Content-Type: application/json' -d @"$WORKDIR/multi_dataset.json")
[ "$code" = 201 ] || fail "dataset multi-data registration returned $code: $(cat "$WORKDIR/multi_ds.json")"
fit_median='{"tenant":"medco","dataset":"multi-data","model":"median","epsilon":1.0,
  "options":{"intercept":true,"parallelism":1,"seed":23}}'
code=$(curl -s -o "$WORKDIR/fit_median.json" -w '%{http_code}' -X POST "$BASE/v1/fit" \
  -H 'Content-Type: application/json' -d "$fit_median")
[ "$code" = 200 ] || fail "one-shot median fit returned $code: $(cat "$WORKDIR/fit_median.json")"
jq -c '.weights' "$WORKDIR/fit_median.json" > "$WORKDIR/weights_fit_median.json"
diff "$WORKDIR/weights_multi_median.json" "$WORKDIR/weights_fit_median.json" \
  || fail "median refit differs from one-shot median fit (want bit-identical at fixed seed)"

echo "e2e-stream: an unregistered task name must be a typed 400 unknown_task"
bad_refit='{"tenant":"medco","model":"quantile","epsilon":0.5,"options":{"seed":1}}'
code=$(curl -s -o "$WORKDIR/bad_refit.json" -w '%{http_code}' -X POST "$BASE/v1/streams/multi/refit" \
  -H 'Content-Type: application/json' -d "$bad_refit")
[ "$code" = 400 ] || fail "unknown task refit returned $code, want 400: $(cat "$WORKDIR/bad_refit.json")"
[ "$(jq -r '.error.code' "$WORKDIR/bad_refit.json")" = "unknown_task" ] \
  || fail "unknown task error code = $(jq -r '.error.code' "$WORKDIR/bad_refit.json"), want unknown_task"

echo "e2e-stream: graceful shutdown"
kill -TERM "$SERVER_PID"
drain_status=0
wait "$SERVER_PID" || drain_status=$?
SERVER_PID=""
[ "$drain_status" = 0 ] || fail "server exited $drain_status on final SIGTERM"

echo "e2e-stream: PASS"
