#!/usr/bin/env bash
# Network-ingest smoke test: start ebbiot-run as a two-stream ingest server
# with the control plane attached, reject a bad-token sender, replay a
# deterministic recording into each stream over loopback TCP with
# ebbiot-gen -send, probe the per-stream ingest counters over HTTP while
# the run is live, and require a clean, lossless exit. Used by
# `make smoke-ingest` and CI.
set -euo pipefail

INGEST=127.0.0.1:18081
HTTP=127.0.0.1:18082
TOKEN=smoke-secret
BIN=${BIN:-bin/ebbiot-run}
GEN=${GEN:-bin/ebbiot-gen}

$BIN -listen "$INGEST" -streams cam0,cam1 -ingest-token "$TOKEN" -http "$HTTP" \
  >smoke-ingest.csv 2>smoke-ingest.log &
PID=$!
trap 'kill $PID 2>/dev/null || true' EXIT

# Wait for the control plane (and with it the ingest listener) to come up.
for i in $(seq 1 50); do
  if curl -fsS "http://$HTTP/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

echo "--- healthz while waiting for sensors"
curl -fsS "http://$HTTP/healthz" | grep -q '"status": "ok"'
curl -fsS "http://$HTTP/streams/cam0" | grep -q '"state": "running"'

echo "--- bad token is rejected"
if $GEN -preset LT4 -scale 0.001 -seed 3 -send "$INGEST" -stream cam0 -token wrong 2>gen-reject.log; then
  echo "sender with a bad token was accepted"; exit 1
fi
grep -q "bad token" gen-reject.log
rm -f gen-reject.log

echo "--- stream cam0 over the wire"
$GEN -preset LT4 -scale 0.003 -seed 3 -send "$INGEST" -stream cam0 -token "$TOKEN" \
  | grep -q "sent .* events .* as stream \"cam0\""

echo "--- live ingest counters (cam1 still pending keeps the run alive)"
curl -fsS "http://$HTTP/streams/cam0" | grep -q '"batches"'
METRICS=$(curl -fsS "http://$HTTP/metrics")
echo "$METRICS" | grep -q '^ebbiot_ingest_batches_total{stream="cam0"}'
echo "$METRICS" | grep -q '^ebbiot_ingest_faults_total{stream="cam0"} 0'
echo "$METRICS" | grep -q '^ebbiot_ingest_dropped_events_total{stream="cam0"} 0'
echo "$METRICS" | grep -q '^ebbiot_ingest_dup_events_total{stream="cam0"} 0'
echo "$METRICS" | grep -q '^ebbiot_source_errors_total{stream="cam0"} 0'

echo "--- stream cam1, then clean exit"
$GEN -preset LT4 -scale 0.003 -seed 4 -send "$INGEST" -stream cam1 -token "$TOKEN" >/dev/null
wait $PID
trap - EXIT

echo "--- lossless per-stream summaries"
grep -q 'ingest cam0: accepted .* batches .* dropped 0 batches / 0 events; dup 0 batches / 0 events; gaps 0, faults 0' smoke-ingest.log
grep -q 'ingest cam1: accepted .* batches .* dropped 0 batches / 0 events; dup 0 batches / 0 events; gaps 0, faults 0' smoke-ingest.log

echo "--- tracking output produced"
ROWS=$(tail -n +2 smoke-ingest.csv | wc -l)
test "$ROWS" -gt 0

rm -f smoke-ingest.csv smoke-ingest.log
echo "ingest smoke: OK"
