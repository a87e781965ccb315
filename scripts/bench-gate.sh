#!/usr/bin/env bash
# Interleaved A/B bench regression gate: compare the gated benchmarks of
# two source trees (usually merge-base vs head) on this machine.
#
#   scripts/bench-gate.sh BASE_TREE HEAD_TREE
#
# Sequential A-then-B comparisons are unusable on shared/virtualized CPUs:
# this container's vCPU drifts 20-55% on a minutes timescale, so two runs
# taken even a few minutes apart disagree far beyond any tolerance that
# could still catch real regressions. The fix is the benchstat playbook:
# compile each side's test binaries once, then ALTERNATE base/head
# executions repetition by repetition so both sides sample the same
# machine phases, and keep each side's fastest repetition per benchmark
# (the parse-level min in ebbiot-benchfmt). Real kernel regressions land
# as 2x+; the interleaved min-of-REPS brings run-to-run disagreement well
# under the tolerance.
#
# Tunables (env): BENCH_MATCH (gated bench regex), BENCH_REPS,
# BENCHTIME (per repetition), BENCH_TOLERANCE (percent), BENCH_MIN_NS
# (ns/op floor below which slowdowns are informational: sub-microsecond
# benchmarks sit under this box's code-layout noise floor — relinking
# alone moves them 15-50%, interleaving or not, as even untouched
# benchmarks demonstrate — so they cannot gate).
# The HEAD tree's ebbiot-benchfmt parses and compares BOTH sides, so the
# de-noising treats them identically even when the base predates it.
# Benchmarks present on only one side are informational, never failures,
# so a PR adding a benchmark stays green.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BASE_TREE HEAD_TREE" >&2
  exit 2
fi
BASE_TREE=$(cd "$1" && pwd)
HEAD_TREE=$(cd "$2" && pwd)
MATCH=${BENCH_MATCH:-'Median|Downsample|Histograms|Popcount|ProcessWindow|DecodeWindows|WindowLoop_Runner|StoreSinkConsume|WireDecode|IngestLoopback'}
REPS=${BENCH_REPS:-6}
BENCHTIME=${BENCHTIME:-300ms}
TOL=${BENCH_TOLERANCE:-15}
MIN_NS=${BENCH_MIN_NS:-2000}
# Packages holding gated benchmarks today; binaries whose benches don't
# match the regex cost nothing at run time. internal/aedat and
# internal/pipeline hold the whole-path benchmarks: AEDAT window decode and
# the Runner replaying a recording end to end; internal/pipeline also holds
# the StoreSink append path (one 16-stream window of snapshots into a
# store.Writer). internal/ingest holds the wire batch decode and the
# DialSink → Server → NetSource loopback path.
PKGS="internal/imgproc internal/core internal/aedat internal/pipeline internal/ingest"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

for side in base head; do
  tree=$BASE_TREE
  [ "$side" = head ] && tree=$HEAD_TREE
  mkdir -p "$WORK/$side"
  for p in $PKGS; do
    if [ -d "$tree/$p" ]; then
      (cd "$tree" && go test -c -o "$WORK/$side/$(basename "$p").test" "./$p/")
    fi
  done
done

# Enumerate the gated top-level benchmark functions per side and package
# (sub-benchmarks ride along with their parent), so the run loop can pair
# base and head at per-function granularity.
for side in base head; do
  for p in $PKGS; do
    bin="$WORK/$side/$(basename "$p").test"
    [ -x "$bin" ] || continue
    "$bin" -test.list "$MATCH" | grep '^Benchmark' \
      >"$WORK/$side.$(basename "$p").list" || true
  done
done

for rep in $(seq 1 "$REPS"); do
  echo "bench-gate: repetition $rep/$REPS" >&2
  # Side innermost, one benchmark function at a time: the base and head
  # runs of the same function sit seconds apart, well inside one machine
  # phase (the drift timescale is minutes). The within-pair order flips
  # every repetition — whichever binary runs second starts on a core the
  # first just heated, so a fixed order would bias one side slow.
  order="base head"
  [ $((rep % 2)) -eq 0 ] && order="head base"
  for p in $PKGS; do
    funcs=$(cat "$WORK"/*."$(basename "$p")".list 2>/dev/null | sort -u)
    [ -n "$funcs" ] || continue
    for fn in $funcs; do
      for side in $order; do
        bin="$WORK/$side/$(basename "$p").test"
        grep -qx "$fn" "$WORK/$side.$(basename "$p").list" 2>/dev/null || continue
        # go test binaries print no "pkg:" headers; emit them so benchfmt
        # qualifies names the same way `go test ./...` output does.
        echo "pkg: ebbiot/$p" >>"$WORK/$side.txt"
        "$bin" -test.run xxx -test.bench "^${fn}\$" -test.benchmem \
          -test.benchtime "$BENCHTIME" >>"$WORK/$side.txt"
      done
    done
  done
done

cd "$HEAD_TREE"
go run ./cmd/ebbiot-benchfmt -o "$WORK/base.json" <"$WORK/base.txt"
go run ./cmd/ebbiot-benchfmt -o "$WORK/head.json" <"$WORK/head.txt"
go run ./cmd/ebbiot-benchfmt compare -tolerance "$TOL" -min-ns "$MIN_NS" -match "$MATCH" \
  "$WORK/base.json" "$WORK/head.json"
