GO ?= go
# Benchtime for the machine-readable bench run; raise for stabler numbers.
BENCHTIME ?= 100ms
# Repetitions per benchmark for the machine-readable run; ebbiot-benchfmt
# keeps the fastest repetition, so -count > 1 filters scheduler-steal noise
# on shared CPUs.
BENCHCOUNT ?= 1

# bench-json pipes go test into the formatter; without pipefail a failing
# benchmark would exit with the formatter's (successful) status and CI
# would upload a truncated artifact while staying green.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: build test race bench bench-store bench-imgproc bench-json bench-compare bench-gate vet check smoke-control smoke-ingest smoke-store crash-drill chaos-ingest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Store append, per-sensor query and replay benchmarks (see
# docs/EXPERIMENTS.md for the 1-CPU container caveats).
bench-store:
	$(GO) test -run xxx -bench . -benchmem ./internal/store/

# Frame-kernel benchmarks: byte reference vs packed word-parallel median and
# downsample+histograms, the byte CCA, plus the fused EBBI window chain
# (before/after numbers recorded in docs/EXPERIMENTS.md).
bench-imgproc:
	$(GO) test -run xxx -bench . -benchmem ./internal/imgproc/ ./internal/ebbi/

# Machine-readable benchmark results for cross-PR perf tracking: the hot
# packages' benchmarks (frame kernels, EBBI window chain, the fused core
# window path, snapshot store, AEDAT window decode, the Runner's whole
# replay path, ingest wire decode and loopback) parsed into BENCH.json (name, ns/op, B/op, allocs/op,
# custom metrics). CI runs this and uploads the artifact.
BENCH_PKGS = ./internal/imgproc/ ./internal/ebbi/ ./internal/core/ ./internal/store/ \
	./internal/aedat/ ./internal/pipeline/ ./internal/ingest/
bench-json:
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) $(BENCH_PKGS) \
		| $(GO) run ./cmd/ebbiot-benchfmt -o BENCH.json -tee

# Regression gate: measure ONLY the gated benchmarks (median, downsample,
# histograms, popcount, the fused ProcessWindow path, AEDAT window decode,
# the Runner's whole replay path, the StoreSink append path, ingest wire
# batch decode and the DialSink → Server → NetSource loopback path)
# de-noised, then diff against BENCH_OLD
# (default: the committed baseline snapshot). Any gated benchmark slowing
# down more than BENCH_TOLERANCE percent on ns/op fails the target.
# Refresh the baseline deliberately with `BENCHTIME=300ms BENCHCOUNT=5
# make bench-json && cp BENCH.json BENCH_baseline.json` (matching the
# gate's settings) when a perf change is intentional.
#
# Noise model, measured on this container: the shared vCPU drifts 20-55%
# on a minutes timescale, which no tolerance below "algorithmic
# regression" territory can absorb across sequential runs — so treat this
# target as ADVISORY. The authoritative gate is bench-gate below (what CI
# runs): an interleaved A/B comparison where base and head alternate
# repetition by repetition, sampling the same machine phases, with the
# benchfmt parser keeping each side's fastest repetition. There 15%
# catches real regressions (which land as 2x+); here, against a committed
# snapshot from another machine or day, expect drift — override
# BENCH_TOLERANCE or refresh the baseline.
BENCH_TOLERANCE ?= 15
BENCH_MATCH ?= Median|Downsample|Histograms|Popcount|ProcessWindow|DecodeWindows|WindowLoop_Runner|StoreSinkConsume|WireDecode|IngestLoopback
BENCH_OLD ?= BENCH_baseline.json
BENCH_MIN_NS ?= 2000
bench-compare:
	$(GO) test -run xxx -bench '$(BENCH_MATCH)' -benchmem -benchtime 300ms -count 5 $(BENCH_PKGS) \
		| $(GO) run ./cmd/ebbiot-benchfmt -o BENCH.json -tee
	$(GO) run ./cmd/ebbiot-benchfmt compare -tolerance $(BENCH_TOLERANCE) \
		-min-ns $(BENCH_MIN_NS) -match '$(BENCH_MATCH)' $(BENCH_OLD) BENCH.json

# The authoritative regression gate (what CI runs on PRs): interleaved
# A/B comparison of two source trees on this machine — alternating
# base/head executions repetition by repetition so both sides sample the
# same machine phases, which is the only scheme that holds a 15% tolerance
# on a drifting vCPU. BASE defaults to a worktree of the merge base.
BENCH_BASE ?=
bench-gate:
	@test -n "$(BENCH_BASE)" || { echo "usage: make bench-gate BENCH_BASE=/path/to/base/tree"; exit 2; }
	BENCH_TOLERANCE=$(BENCH_TOLERANCE) ./scripts/bench-gate.sh $(BENCH_BASE) .

# Store crash drill (also run by CI): the randomized kill-point fault
# matrix — clean kills, torn tails, bit flips, junk sidecars, stray
# manifest temps, plus real SIGKILLed writer processes — under the race
# detector, over a fixed seed matrix so a failure reproduces exactly.
# Widen locally with CRASH_DRILL_SEEDS / CRASH_DRILL_POINTS.
CRASH_DRILL_SEEDS ?= 1 2 3
crash-drill:
	for seed in $(CRASH_DRILL_SEEDS); do \
		echo "== crash drill, seed $$seed =="; \
		CRASH_DRILL_SEED=$$seed $(GO) test -race -count=1 -run 'TestCrashDrill' ./internal/store/; \
	done

# Ingest chaos drill (also run by CI): stream a deterministic recording
# over loopback TCP while randomly killing the connection mid-stream, let
# the sink reconnect with the wire-v2 RESUME handshake and replay its
# unacknowledged tail, and require the tracked output to be bit-identical
# to an uninterrupted run — under the race detector, over a fixed seed
# matrix so a failure reproduces exactly. Widen locally with
# CHAOS_INGEST_SEEDS.
CHAOS_INGEST_SEEDS ?= 1 2 3
chaos-ingest:
	for seed in $(CHAOS_INGEST_SEEDS); do \
		echo "== ingest chaos drill, seed $$seed =="; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'TestChaosKillResumeBitIdentical' ./internal/ingest/; \
	done

# go vet over the module (the default build and the purego build, whose
# pure-Go fallback files the default build on amd64 never compiles) and
# over perfbench/ (its own module, which go vet ./... skips), plus gofmt:
# any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	$(GO) vet -tags purego ./...
	cd perfbench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

# End-to-end control-plane smoke (also run by CI): start a paced synthetic
# run with the HTTP control plane, exercise every endpoint against the live
# run — including a PATCH that must bump the version and an invalid PATCH
# that must 400 — and require a clean exit.
smoke-control:
	$(GO) build -o bin/ ./cmd/ebbiot-run
	./scripts/smoke-control.sh

# End-to-end network-ingest smoke (also run by CI): ebbiot-run as a
# two-stream ingest server, a bad-token sender rejected, each stream fed a
# deterministic recording over loopback TCP by ebbiot-gen -send, the
# per-stream ingest counters probed over HTTP mid-run, and a lossless
# clean exit required.
smoke-ingest:
	$(GO) build -o bin/ ./cmd/ebbiot-run ./cmd/ebbiot-gen
	./scripts/smoke-ingest.sh

# End-to-end store query smoke (also run by CI): a three-sensor ebbiot-run
# recorded into a store, then every ebbiot-query read checked against the
# live output — each per-sensor scan in order, a bounded scan, the sorted
# merged replay as CSV and, from a second -json recording, as JSON Lines —
# plus a clean verify, a rejected -to 0, and the run selector required once
# a second run shares the directory.
smoke-store:
	$(GO) build -o bin/ ./cmd/ebbiot-run ./cmd/ebbiot-gen ./cmd/ebbiot-query
	./scripts/smoke-store.sh

check: build vet test
