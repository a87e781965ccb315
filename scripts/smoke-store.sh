#!/usr/bin/env bash
# Snapshot-store query smoke test: record a deterministic ENG recording as
# three sensors into a store, then require every query ebbiot-query offers
# to agree with the live output — each per-sensor scan, a bounded scan, the
# merged replay as CSV and, for a second store recorded with -json, as JSON
# Lines — plus a monitored (-http) replay that must print what the
# unmonitored one does, a clean verify, a rejected -to 0, and the run
# selector once a second run shares the directory. Used by
# `make smoke-store` and CI.
set -euo pipefail

RUN=${RUN:-bin/ebbiot-run}
GEN=${GEN:-bin/ebbiot-gen}
QUERY=${QUERY:-bin/ebbiot-query}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
STORE=$WORK/store

echo "--- record three sensors into a store"
$GEN -preset ENG -scale 0.003 -seed 1 -out "$WORK/eng.aer" >/dev/null
$RUN -in "$WORK/eng.aer" -sensors 3 -workers 2 -store "$STORE" >"$WORK/live.csv" 2>/dev/null
test "$(tail -n +2 "$WORK/live.csv" | wc -l)" -gt 0

echo "--- each sensor's scan equals its live rows, in order"
for k in 0 1 2; do
  awk -F, -v k="$k" 'NR > 1 && $1 == k' "$WORK/live.csv" >"$WORK/live-$k.csv"
  test -s "$WORK/live-$k.csv"
  $QUERY -store "$STORE" -mode scan -sensor "$k" 2>/dev/null | tail -n +2 >"$WORK/scan-$k.csv"
  cmp "$WORK/live-$k.csv" "$WORK/scan-$k.csv"
done

echo "--- a bounded scan is a non-empty subset of the sensor's rows"
$QUERY -store "$STORE" -mode scan -sensor 1 -from 3000000 -to 3300000 2>/dev/null \
  | tail -n +2 >"$WORK/window.csv"
test -s "$WORK/window.csv"
if grep -Fxv -f "$WORK/live-1.csv" "$WORK/window.csv"; then
  echo "bounded scan returned rows sensor 1 never produced"; exit 1
fi
test "$(wc -l <"$WORK/window.csv")" -lt "$(wc -l <"$WORK/live-1.csv")"

echo "--- the merged replay holds the live rows"
$QUERY -store "$STORE" -mode replay >"$WORK/replay.csv" 2>"$WORK/replay.log"
sort "$WORK/replay.csv" >"$WORK/replay-sorted.csv"
sort "$WORK/live.csv" | cmp - "$WORK/replay-sorted.csv"

echo "--- a monitored replay (-http) prints the same rows and counts"
$QUERY -store "$STORE" -mode replay -http 127.0.0.1:0 >"$WORK/replay-http.csv" 2>"$WORK/replay-http.log"
grep -q '^monitoring on http://' "$WORK/replay-http.log"
cmp "$WORK/replay.csv" "$WORK/replay-http.csv"
# The per-sensor lines and the totals line, without its rate and duration.
counts() {
  sed -n -e '/^sensor [0-9]*: /p' \
    -e 's/^\(replay: [0-9]* sensors, [0-9]* windows\) ([^)]*), \([0-9]* events, [0-9]* boxes\) in .*/\1, \2/p' "$1"
}
test "$(counts "$WORK/replay.log" | grep -c '^replay: ')" = 1
diff <(counts "$WORK/replay.log") <(counts "$WORK/replay-http.log")

echo "--- a -json run's merged replay holds its live JSON Lines"
$RUN -in "$WORK/eng.aer" -sensors 3 -workers 2 -json -store "$WORK/store-json" >"$WORK/live.jsonl" 2>/dev/null
test -s "$WORK/live.jsonl"
$QUERY -store "$WORK/store-json" -mode replay -json 2>/dev/null | sort >"$WORK/replay-sorted.jsonl"
sort "$WORK/live.jsonl" | cmp - "$WORK/replay-sorted.jsonl"

echo "--- verify is clean"
$QUERY -store "$STORE" -mode verify -q

echo "--- -to 0 is rejected"
if $QUERY -store "$STORE" -mode scan -sensor 0 -to 0 >/dev/null 2>&1; then
  echo "scan with -to 0 succeeded"; exit 1
fi

echo "--- a second run requires the run selector"
$RUN -in "$WORK/eng.aer" -sensors 3 -workers 2 -store "$STORE" >/dev/null 2>&1
if $QUERY -store "$STORE" -mode scan -sensor 0 >/dev/null 2>"$WORK/multi.log"; then
  echo "scan of a two-run store without -run succeeded"; exit 1
fi
grep -q "multiple runs" "$WORK/multi.log"
$QUERY -store "$STORE" -mode scan -sensor 0 -run 2 2>/dev/null | tail -n +2 | cmp "$WORK/live-0.csv" -

echo "store smoke: OK"
