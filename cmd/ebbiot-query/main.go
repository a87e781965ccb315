// Command ebbiot-query interrogates an append-only snapshot store recorded
// by ebbiot-run -store (or any pipeline StoreSink): what did sensor k see
// between t0 and t1, long after the run exited.
//
// Modes (-mode):
//
//	list    enumerate the directory's runs: id, finalized/recovered state,
//	        segments, tombstones, records, time range and sensors (the
//	        default)
//	scan    print one sensor's snapshots whose windows overlap [-from, -to)
//	        in frame order, as CSV rows (or JSON Lines with -json): a
//	        one-sensor replay
//	replay  merge any set of sensors in timestamp order and feed them back
//	        through the pipeline sinks — the offline re-evaluation path;
//	        prints the same per-frame trace summary as a live run and can
//	        dump per-frame statistics with -stats. With -speed the replay is
//	        paced on the recorded clock (1 = recorded speed) and with -http
//	        the control plane's monitoring endpoints (/healthz, /stats,
//	        /streams/{id}, /metrics) observe it live, exactly like a live
//	        run — /params answers 404 since a replay has no live parameters;
//	        without -http no live status is kept
//	verify  audit every run against its manifest: recompute each sealed
//	        segment's Merkle root over the record hashes, re-derive the
//	        chained roots through tombstones, and validate sidecar indexes.
//	        With -at N, emit an inclusion proof for record N of the run
//	        instead. Exit status: 0 clean, 1 tampered/damaged, 2 I/O error;
//	        -q suppresses output for scripting
//
// scan, replay and verify -at operate on one run: -run selects it, 0 (the
// default) meaning the directory's sole run — an error when several are
// present, never an interleaved timeline.
//
// Usage:
//
//	ebbiot-query -store dir [-mode list|scan|replay|verify] [-run N]
//	             [-sensor N] [-sensors 0,2,5] [-from us] [-to us]
//	             [-json] [-stats stats.csv] [-speed X] [-http :8080]
//	             [-at seq] [-q]
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"ebbiot/internal/control"
	"ebbiot/internal/pipeline"
	"ebbiot/internal/store"
	"ebbiot/internal/trace"
)

// Verify exit codes (documented in docs/STORE.md; stable for scripting).
const (
	exitClean    = 0
	exitTampered = 1
	exitIOError  = 2
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ebbiot-query:", err)
		os.Exit(1)
	}
}

func run() error {
	storeDir := flag.String("store", "", "store directory (required)")
	mode := flag.String("mode", "list", "operation: list, scan, replay or verify")
	runID := flag.Uint64("run", 0, "run to scan/replay/prove (0 = the directory's sole run)")
	sensor := flag.Int("sensor", -1, "sensor id for -mode scan")
	sensorList := flag.String("sensors", "", "comma-separated sensor ids for -mode replay (default all)")
	from := flag.Int64("from", 0, "window overlap lower bound in microseconds (inclusive)")
	to := flag.Int64("to", math.MaxInt64, "window overlap upper bound in microseconds (exclusive)")
	jsonOut := flag.Bool("json", false, "emit JSON Lines snapshots instead of CSV rows")
	statsPath := flag.String("stats", "", "per-frame statistics CSV output for -mode replay (first sensor)")
	speed := flag.Float64("speed", 0, "pace -mode replay at recorded wall-clock speed times this factor (0 = full speed)")
	httpAddr := flag.String("http", "", "serve live monitoring of -mode replay on this address")
	at := flag.Int64("at", -1, "emit an inclusion proof for this record seq in -mode verify")
	quiet := flag.Bool("q", false, "-mode verify: print nothing, report by exit status only")
	flag.Parse()

	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	// scan and replay both run through ReplayOptions, which treats T1 <= 0
	// as "no upper bound"; the flag's contract is a literal exclusive
	// bound, so reject values that would silently invert into a full
	// replay.
	if (*mode == "scan" || *mode == "replay") && *to <= 0 {
		return fmt.Errorf("-to must be positive (exclusive upper bound in µs), got %d", *to)
	}
	switch *mode {
	case "list":
		return list(*storeDir)
	case "scan":
		if *sensor < 0 {
			return fmt.Errorf("-mode scan requires -sensor")
		}
		return scan(*storeDir, *runID, *sensor, *from, *to, *jsonOut)
	case "replay":
		if *speed < 0 {
			return fmt.Errorf("-speed must be >= 0 (0 = full speed), got %v", *speed)
		}
		sensors, err := parseSensors(*sensorList)
		if err != nil {
			return err
		}
		return replay(*storeDir, *runID, sensors, *from, *to, *jsonOut, *statsPath, *speed, *httpAddr)
	case "verify":
		// verify owns its tri-state exit code; it never returns.
		if *at >= 0 {
			os.Exit(prove(*storeDir, *runID, *at, *quiet))
		}
		os.Exit(verify(*storeDir, *quiet))
		return nil
	default:
		return fmt.Errorf("unknown mode %q (want list, scan, replay or verify)", *mode)
	}
}

// parseSensors parses "0,2,5" into sensor ids; empty means all.
func parseSensors(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad sensor id %q in -sensors", part)
		}
		out = append(out, id)
	}
	return out, nil
}

func list(dir string) error {
	r, err := store.OpenReader(dir)
	if err != nil {
		return err
	}
	runs := r.Runs()
	st := r.Stats()
	fmt.Printf("store %s: %d runs, %d segments (%d expired), %d records, %d data bytes\n",
		dir, len(runs), st.Segments, st.Tombstones, st.Records, st.DataBytes)
	if st.DroppedBytes > 0 {
		fmt.Printf("  dropped: %d invalid tail bytes (run -mode verify for detail)\n", st.DroppedBytes)
	}
	for _, p := range r.ManifestProblems() {
		fmt.Printf("  damaged manifest: %s\n", p)
	}
	for _, ri := range runs {
		state := "open"
		switch {
		case ri.Legacy:
			state = "legacy"
		case ri.Recovered:
			state = "recovered"
		case ri.Finalized:
			state = "finalized"
		}
		fmt.Printf("run %d (%s): %d segments", ri.ID, state, ri.Segments)
		if ri.Tombstones > 0 {
			fmt.Printf(" + %d expired", ri.Tombstones)
		}
		fmt.Printf(", %d records, %d bytes", ri.Records, ri.DataBytes)
		if ri.Records > 0 {
			fmt.Printf(", window ends %d..%d us (%.3f s)", ri.MinEndUS, ri.MaxEndUS,
				float64(ri.MaxEndUS-ri.MinEndUS)/1e6)
		}
		fmt.Printf(", sensors %v", ri.Sensors)
		if ri.ParamsHash != ([32]byte{}) {
			fmt.Printf(", params %s", hex.EncodeToString(ri.ParamsHash[:])[:12])
		}
		fmt.Println()
	}
	if fb := r.IndexFallbacks(); fb > 0 {
		fmt.Printf("  degraded: %d segments read without a usable sidecar index\n", fb)
	}
	return nil
}

// outputSink builds the stdout sink shared by scan and replay.
func outputSink(jsonOut bool) (pipeline.Sink, error) {
	if jsonOut {
		return pipeline.NewJSONSink(os.Stdout), nil
	}
	return pipeline.NewCSVSink(os.Stdout)
}

func scan(dir string, run uint64, sensor int, from, to int64, jsonOut bool) error {
	r, err := store.OpenReader(dir)
	if err != nil {
		return err
	}
	sink, err := outputSink(jsonOut)
	if err != nil {
		return err
	}
	stats, err := pipeline.ReplayStoreWith(context.Background(), r, sink, pipeline.ReplayOptions{
		Run:     run,
		Sensors: []int{sensor},
		T0:      from,
		T1:      to,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scan: sensor %d: %d windows, %d events, %d boxes\n",
		sensor, stats.Windows, stats.Events, stats.Boxes)
	return nil
}

func replay(dir string, run uint64, sensors []int, from, to int64, jsonOut bool, statsPath string, speed float64, httpAddr string) error {
	r, err := store.OpenReader(dir)
	if err != nil {
		return err
	}
	out, err := outputSink(jsonOut)
	if err != nil {
		return err
	}
	ts := pipeline.NewTraceSink()

	// A paced replay can run for minutes; the first SIGINT/SIGTERM stops it
	// at the next snapshot with sinks flushed (the summary below still
	// prints), and stop() re-arms default disposition so a second signal
	// kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	// Live monitoring, only with -http: the replay publishes into a
	// RunStatus, which serves the same observation endpoints as a live run
	// (no /params — a replay has no live parameters to retune). Without a
	// status the replay publishes nothing and runs at store speed.
	var status *pipeline.RunStatus
	if httpAddr != "" {
		status = pipeline.NewRunStatus(1)
		addr, shutdown, err := control.Serve(httpAddr, control.NewServer(nil, status).Handler(),
			func(serr error) { fmt.Fprintln(os.Stderr, "ebbiot-query: monitor server:", serr) })
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "monitoring on http://%s (healthz, stats, streams/{id}, metrics)\n", addr)
	}

	stats, err := pipeline.ReplayStoreWith(ctx, r, pipeline.MultiSink{out, ts}, pipeline.ReplayOptions{
		Run:     run,
		Sensors: sensors,
		T0:      from,
		T1:      to,
		Speed:   speed,
		Status:  status,
	})
	if ctx.Err() != nil && errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ebbiot-query: interrupted — sinks flushed; partial summary follows")
		err = nil
	}
	if err != nil {
		return err
	}
	seen := ts.Sensors()
	if statsPath != "" && len(seen) > 0 {
		sf, err := os.Create(statsPath)
		if err != nil {
			return err
		}
		defer sf.Close()
		if err := trace.WriteCSV(sf, ts.Collector(seen[0]).Stats()); err != nil {
			return err
		}
	}
	for _, id := range seen {
		sum := ts.Collector(id).Summarize()
		fmt.Fprintf(os.Stderr, "sensor %d: %d frames, mean events/frame %.0f, mean reported boxes %.2f\n",
			id, sum.Frames, sum.MeanEvents, sum.MeanReported)
	}
	fmt.Fprintf(os.Stderr, "replay: %d sensors, %d windows (%.0f windows/s), %d events, %d boxes in %v\n",
		stats.Streams, stats.Windows, stats.WindowsPerSec(), stats.Events, stats.Boxes, stats.Elapsed.Round(1e6))
	return nil
}

// verify audits the store, returning the process exit code: 0 clean,
// 1 any integrity problem, 2 I/O failure.
func verify(dir string, quiet bool) int {
	rep, err := store.Verify(dir)
	if err != nil {
		if !quiet {
			fmt.Fprintln(os.Stderr, "ebbiot-query: verify:", err)
		}
		return exitIOError
	}
	if !quiet {
		for _, rv := range rep.Runs {
			label := fmt.Sprintf("run %d", rv.ID)
			if rv.Legacy {
				label = "legacy segments (no manifest)"
			}
			fmt.Printf("%s: %d segments + %d tombstones, %d records, %d bytes",
				label, rv.Segments, rv.Tombstones, rv.Records, rv.DataBytes)
			if rv.TornTailBytes > 0 {
				fmt.Printf(", %d recoverable torn-tail bytes", rv.TornTailBytes)
			}
			switch {
			case len(rv.Problems) > 0:
				fmt.Println(": TAMPERED")
				for _, p := range rv.Problems {
					fmt.Println("  " + p)
				}
			case rv.Legacy:
				fmt.Println(": frames valid (legacy: no Merkle roots to check)")
			default:
				fmt.Println(": roots and chain verified")
			}
		}
		for _, p := range rep.Problems {
			fmt.Println("damaged manifest: " + p)
		}
	}
	if !rep.Clean() {
		if !quiet {
			fmt.Println("TAMPERED")
		}
		return exitTampered
	}
	if !quiet {
		fmt.Println("clean")
	}
	return exitClean
}

// prove emits an inclusion proof for record seq of the selected run.
// Exit codes mirror verify: 0 proof verified, 1 store contradicts its
// manifest (or seq expired), 2 I/O failure.
func prove(dir string, runID uint64, seq int64, quiet bool) int {
	p, err := store.Prove(dir, runID, seq)
	if err != nil {
		if errors.Is(err, store.ErrCorrupt) {
			if !quiet {
				fmt.Fprintln(os.Stderr, "ebbiot-query: proof:", err)
			}
			return exitTampered
		}
		if !quiet {
			fmt.Fprintln(os.Stderr, "ebbiot-query: proof:", err)
		}
		return exitIOError
	}
	if !quiet {
		s := p.Snapshot
		fmt.Printf("record %d of run %d: sensor %d frame %d window [%d,%d) us, %d events, %d boxes\n",
			p.Seq, p.Run, s.Sensor, s.Frame, s.StartUS, s.EndUS, s.Events, len(s.Boxes))
		fmt.Printf("segment %d, leaf %d of %d\n", p.Segment, p.Index, p.Leaves)
		fmt.Printf("leaf  %s\n", hex.EncodeToString(p.Leaf[:]))
		for i, h := range p.Path {
			fmt.Printf("path[%d] %s\n", i, hex.EncodeToString(h[:]))
		}
		fmt.Printf("root  %s\n", hex.EncodeToString(p.Root[:]))
		fmt.Printf("chain %s\n", hex.EncodeToString(p.Chain[:]))
		fmt.Println("proof verified")
	}
	return exitClean
}
