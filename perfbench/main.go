// Command perfbench is the repository's whole-path benchmark. It runs one
// seeded workload through the public APIs of aedat, pipeline, core, ingest
// and store, checks every output against a reference run, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload replay-eng --seed 1 --seconds 25 --trace 0
//
// Every run sets up several times (setup_s is their median), then cycles
// through its phases three times; the first pass a phase runs is a
// discarded warm-up. The phases are a saturated capacity phase
// (throughput, CPU and allocation per window, and latency from each
// window's hand-over by its source to the sink) and a read phase
// replaying the recorded store runs. A traced run adds traced capacity
// passes and, on ingest-eng, an open-loop live phase at liveSpeed whose
// latency counts from each input's due time. Snapshots are collected in
// the sink and checked and scored only after each pass's timing stops.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ebbiot/internal/imgproc"
)

// processStart is taken before main runs, so the first set-up counts
// from process start.
var processStart = time.Now()

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// segment is the length of each synthesised segment in windows;
	// setups is the number of set-ups whose median is setup_s.
	segment int
	setups  int
	// work is the directory that holds the run's temporary files and the
	// trace it writes.
	work string
	// fault injects a failure; only the self-test sets it.
	fault fault
}

type fault int

const (
	noFault    fault = iota
	dropWindow       // a source wrapper loses window 10 of stream 0
	alterBox         // a sink wrapper moves a box of stream 0
)

func main() {
	if os.Getenv(roleEnv) == "generator" {
		if err := generatorMain(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench generator:", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{segment: segmentFrames, setups: 3, work: filepath.Join(".bench_build", "perfbench")}
	flag.StringVar(&cfg.workload, "workload", "", "workload: replay-eng, fleet-lt4 or ingest-eng")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds, shared among the phases")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stamp, err := json.Marshal(map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"kernels":    imgproc.KernelInfo(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("{\"stamp\":%s}\n%s\n", stamp, out)
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets up cfg.setups times, keeping the last set-up, and measures the
// phases on it.
func run(cfg config) (result, error) {
	w := workloads[cfg.workload]
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q (want replay-eng, fleet-lt4 or ingest-eng)", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.setups < 1 {
		return result{}, fmt.Errorf("seconds and set-ups must be positive")
	}
	var (
		b                   *bench
		setup, inputs, syst []float64
	)
	defer func() {
		if b != nil {
			b.close()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		nb, inputsDone, err := newBench(cfg, w, i)
		if err != nil {
			return result{}, err
		}
		b = nb
		end := time.Now()
		setup = append(setup, end.Sub(start).Seconds())
		inputs = append(inputs, inputsDone.Sub(start).Seconds())
		syst = append(syst, end.Sub(inputsDone).Seconds())
	}
	b.setup = [3]float64{median(setup), median(inputs), median(syst)}
	if err := b.measure(); err != nil {
		return result{}, err
	}
	return b.result(), nil
}
