// Command ebbiot-run replays a recorded AER file (or synthesises a scene)
// through one of the three tracking pipelines via the streaming pipeline
// runtime and prints the per-frame track boxes (CSV to stdout, one row per
// box, with a sensor column).
//
// With -sensors N > 1 the recording is decoded once and replayed as N
// independent sensor streams sharded across -workers worker goroutines —
// each stream drives its own system instance — which exercises the
// multi-sensor Runner and measures aggregate throughput. A summary with
// events/s and windows/s is printed to stderr either way.
//
// With -http ADDR the run carries a live control plane: GET /healthz,
// /stats, /streams/{id} and Prometheus /metrics observe the run while it is
// in flight, and GET/PATCH /params reads and retunes the per-stream
// parameters (tF, RPN thresholds, tracker gating) live — changes land at
// the next window boundary with clean-restart semantics (see
// docs/CONTROL.md). With -pace the sources release windows at recorded
// wall-clock speed (scaled by -speed), so a replay behaves like a live
// deployment instead of finishing in milliseconds.
//
// The process shuts down gracefully on SIGINT/SIGTERM: streams stop at the
// next window, sinks are drained and flushed, and partial stats are printed
// instead of dying mid-write.
//
// With -store DIR every snapshot is additionally persisted into the
// embedded append-only snapshot store (internal/store), so the run can be
// interrogated later with ebbiot-query — scanned by sensor and time range
// or replayed in full. Each invocation records a new run into the
// directory (listed by `ebbiot-query list`), stamped with the parameter
// set's hash so recordings are attributable to their tuning.
// -store-segment-mb and -store-sync tune segment rotation and the fsync
// cadence; -store-retain-mb and -store-retain-age-h bound the directory by
// size and age, expiring whole old segments into tamper-evident manifest
// tombstones (see docs/STORE.md).
//
// The EBBI-based systems run the packed word-parallel frame kernels. The
// summary includes a per-stage timing breakdown (ebbi / filter / rpn /
// track / sink) so kernel before/after numbers are visible straight from
// the CLI.
//
// -skip-threshold arms the near-empty window fast path (windows with fewer
// in-array events bypass the median / proposal stages; the default -1 keeps
// the lossless bound floor(p^2/2)+1, 0 disables), with the skip count
// reported in the stage summary and as windows_skipped on /streams/{id} and
// /metrics.
//
// With -listen ADDR the process becomes an `ebbiot-ingest` server instead
// of reading a local file: it accepts one framed-TCP sensor connection per
// stream ID named in -streams (see docs/INGEST.md for the wire format),
// authenticates them against -ingest-token, and applies per-stream
// backpressure through bounded batch queues whose drop policy is selected
// with -ingest-policy (block, drop-oldest, drop-newest). Queue drops,
// duplicate/reordered batches, sequence gaps and transport faults are
// per-stream counters on /streams/{id} and /metrics; by default a faulted
// sensor ends its own stream without taking down the rest of the fleet.
// Replay a recording into it with `ebbiot-gen -send` or any ingest.DialSink.
//
// Sensor sessions are resumable (wire v2): a dropped connection parks the
// stream in a grace window (-resume-grace-ms, 0 to disable) instead of
// faulting, and a reconnecting sensor replays from the last ACKed batch —
// the server acknowledges every -ack-every batches — with the session epoch
// bumped on /streams/{id} and /metrics. With -watchdog-ms N a stream that
// completes no window within N ms is flagged `stalled` (state and counter
// on /streams/{id}; it flips back to running on the next window). The final
// summary prints one outcome line per stream, and the process exits nonzero
// if any stream ended failed.
//
// Usage:
//
//	ebbiot-run -in eng.aer | -scene MS | -listen ADDR -streams cam0,cam1
//	           [-system EBBIOT|KF|EBMS] [-frame-ms 66]
//	           [-sensors N] [-workers M] [-stats stats.csv] [-json]
//	           [-store dir] [-store-segment-mb 64] [-store-sync 0]
//	           [-store-retain-mb 0] [-store-retain-age-h 0]
//	           [-http :8080] [-pace] [-speed 1.0]
//	           [-skip-threshold -1]
//	           [-ingest-token T] [-ingest-queue 64] [-ingest-policy block]
//	           [-ingest-idle-ms 30000] [-ingest-failfast]
//	           [-resume-grace-ms 30000] [-ack-every 8] [-watchdog-ms 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ebbiot/internal/aedat"
	"ebbiot/internal/control"
	"ebbiot/internal/core"
	"ebbiot/internal/events"
	"ebbiot/internal/imgproc"
	"ebbiot/internal/ingest"
	"ebbiot/internal/pipeline"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
	"ebbiot/internal/store"
	"ebbiot/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ebbiot-run:", err)
		os.Exit(1)
	}
}

// newSystem builds one fresh pipeline instance (each sensor stream needs its
// own: systems are stateful) from the live parameter set, so the /params
// endpoint reports exactly what the systems run.
func newSystem(name string, res events.Resolution, ps control.ParamSet) (core.System, error) {
	switch strings.ToUpper(name) {
	case "EBBIOT":
		return core.NewEBBIOT(ps.Apply(core.DefaultConfig()))
	case "KF", "EBBI+KF":
		return core.NewEBBIKF(ps.ApplyKF(core.DefaultKFConfig()))
	case "EBMS":
		cfg := core.DefaultEBMSConfig()
		cfg.Res = res
		return core.NewEBMS(cfg)
	default:
		return nil, fmt.Errorf("unknown system %q", name)
	}
}

// printStreamOutcomes writes one terminal-state line per stream to w and
// returns the names of streams that ended failed; the caller turns a
// nonempty list into a nonzero exit.
func printStreamOutcomes(w io.Writer, snap pipeline.StatusSnapshot) (failed []string) {
	for _, ss := range snap.PerStream {
		line := fmt.Sprintf("stream %s: %s (%d windows, %d events)", ss.Name, ss.State, ss.Windows, ss.Events)
		if ss.Stalls > 0 {
			line += fmt.Sprintf("; stalls %d", ss.Stalls)
		}
		if ss.Source != nil && ss.Source.Resumes > 0 {
			line += fmt.Sprintf("; resumed %d time(s), epoch %d", ss.Source.Resumes, ss.Source.Epoch)
		}
		if ss.Error != "" {
			line += ": " + ss.Error
		}
		fmt.Fprintln(w, line)
		if ss.State == pipeline.StreamFailed.String() {
			failed = append(failed, ss.Name)
		}
	}
	return failed
}

func run() error {
	in := flag.String("in", "", "input AER file (this or -scene is required)")
	sceneMS := flag.Int64("scene", 0, "synthesise a single-object scene of this many milliseconds instead of reading -in")
	sysName := flag.String("system", "EBBIOT", "pipeline: EBBIOT, KF or EBMS")
	frameMS := flag.Int64("frame-ms", 66, "frame duration tF in milliseconds")
	statsPath := flag.String("stats", "", "optional per-frame statistics CSV output (first sensor)")
	sensors := flag.Int("sensors", 1, "number of independent sensor streams replaying the recording")
	workers := flag.Int("workers", 0, "worker goroutines sharding the streams (0 = one per CPU)")
	jsonOut := flag.Bool("json", false, "emit JSON Lines snapshots instead of CSV rows")
	storeDir := flag.String("store", "", "record snapshots into an append-only store at this directory")
	storeSegMB := flag.Int64("store-segment-mb", 64, "store segment rotation size in MiB")
	storeSync := flag.Int("store-sync", 0, "store fsync cadence: every N appends (0 = rotate/close only)")
	storeRetainMB := flag.Int64("store-retain-mb", 0, "expire oldest store segments once the directory exceeds this many MiB (0 = keep everything)")
	storeRetainAgeH := flag.Float64("store-retain-age-h", 0, "expire store segments sealed longer than this many hours ago (0 = keep everything)")
	httpAddr := flag.String("http", "", "serve the control plane (healthz/stats/streams/params/metrics) on this address")
	pace := flag.Bool("pace", false, "release windows at recorded wall-clock speed instead of as fast as possible")
	speed := flag.Float64("speed", 1.0, "pacing speed multiplier with -pace (1 = recorded speed)")
	skipThresh := flag.Int("skip-threshold", -1, "skip windows with fewer in-array events than this (0 disables, -1 keeps the lossless default floor(p^2/2)+1)")
	listen := flag.String("listen", "", "ingest server mode: accept framed-TCP sensor connections on this address instead of reading -in/-scene")
	streamIDs := flag.String("streams", "", "comma-separated stream IDs the ingest server expects (required with -listen)")
	ingestToken := flag.String("ingest-token", "", "shared-secret token every sensor handshake must present (empty disables auth)")
	ingestQueue := flag.Int("ingest-queue", 64, "per-stream ingest queue depth in batches")
	ingestPolicy := flag.String("ingest-policy", "block", "full-queue policy: block (backpressure to the sender), drop-oldest or drop-newest")
	ingestIdleMS := flag.Int64("ingest-idle-ms", 30000, "per-connection idle timeout in milliseconds; a sensor that stalls longer faults as a stalled writer")
	ingestFailFast := flag.Bool("ingest-failfast", false, "a faulted sensor stream fails the whole run instead of ending just its own stream")
	resumeGraceMS := flag.Int64("resume-grace-ms", 30000, "how long a disconnected ingest stream stays resumable before faulting for real (0 disables session resume)")
	ackEvery := flag.Int("ack-every", 8, "ingest server ACK cadence in accepted batches")
	watchdogMS := flag.Int64("watchdog-ms", 0, "flag a stream as stalled when it completes no window within this many milliseconds (0 disables the watchdog)")
	flag.Parse()

	modes := 0
	for _, on := range []bool{*in != "", *sceneMS > 0, *listen != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("exactly one of -in, -scene or -listen is required")
	}
	if *sensors < 1 {
		return fmt.Errorf("-sensors must be at least 1")
	}

	// One line so every run's logs say which kernel arm produced its
	// numbers — indispensable when comparing timings across machines.
	fmt.Fprintf(os.Stderr, "kernels: %s\n", imgproc.KernelInfo())

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the run context;
	// streams stop at the next window boundary, the Runner drains the
	// fan-in and flushes every sink, and partial stats are printed below.
	// Once the context is canceled, stop() restores the default signal
	// disposition, so a second signal kills the process the usual way even
	// if a sink is wedged.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	// The live parameter set every stream consults; /params serves and
	// retunes it when -http is given.
	ps := control.Defaults()
	ps.FrameUS = *frameMS * 1000
	if *skipThresh >= 0 {
		ps.SkipEventsBelow = *skipThresh
	}
	paramStore, err := control.NewParamStore(ps)
	if err != nil {
		return err
	}
	ps = paramStore.Load()

	// One stream per sensor. A single sensor streams the file incrementally;
	// replicated sensors decode it once and shard in-memory slices. Scene
	// mode synthesises one deterministic simulator per sensor; listen mode
	// waits for one network connection per expected stream ID.
	var ids []string
	if *listen != "" {
		for _, id := range strings.Split(*streamIDs, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return fmt.Errorf("-listen requires -streams with at least one stream id")
		}
		if *pace {
			return fmt.Errorf("-pace does not apply to -listen: network streams already arrive at sensor speed")
		}
		*sensors = len(ids)
	}
	var streams []pipeline.Stream
	collectors := make([]trace.Collector, *sensors)
	var res events.Resolution
	var ingestSrv *ingest.Server
	switch {
	case *listen != "":
		policy, err := ingest.ParseDropPolicy(*ingestPolicy)
		if err != nil {
			return err
		}
		res = events.DAVIS240
		// Flag semantics: 0 disables resume; the ServerConfig spelling for
		// "disabled" is a negative grace.
		grace := time.Duration(*resumeGraceMS) * time.Millisecond
		if grace == 0 {
			grace = -1
		}
		ingestSrv, err = ingest.Listen(*listen, ingest.ServerConfig{
			Streams:      ids,
			Token:        *ingestToken,
			Res:          res,
			QueueBatches: *ingestQueue,
			Policy:       policy,
			FailFast:     *ingestFailFast,
			IdleTimeout:  time.Duration(*ingestIdleMS) * time.Millisecond,
			ResumeGrace:  grace,
			AckEvery:     *ackEvery,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		defer ingestSrv.Close()
		// SIGINT must unblock streams waiting on quiet connections.
		context.AfterFunc(ctx, func() { ingestSrv.Close() })
		fmt.Fprintf(os.Stderr, "ingest server on %s (streams: %s, policy %s, queue %d batches)\n",
			ingestSrv.Addr(), strings.Join(ids, ","), policy, *ingestQueue)
		for _, id := range ids {
			streams = append(streams, pipeline.Stream{Name: id, Source: ingestSrv.Source(id)})
		}
	case *sceneMS > 0:
		res = events.DAVIS240
		durUS := *sceneMS * 1000
		sc := scene.SingleObjectScene(res, durUS)
		for i := 0; i < *sensors; i++ {
			sim, err := sensor.New(sensor.DefaultConfig(42+uint64(i)), sc)
			if err != nil {
				return err
			}
			src, err := pipeline.NewSceneSource(sim, durUS)
			if err != nil {
				return err
			}
			streams = append(streams, pipeline.Stream{Source: src})
		}
	case *sensors == 1:
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := aedat.NewReader(f)
		if err != nil {
			return err
		}
		res = r.Resolution()
		streams = append(streams, pipeline.Stream{Source: pipeline.NewAEDATSource(r)})
	default:
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		var evs []events.Event
		res, evs, err = aedat.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		for i := 0; i < *sensors; i++ {
			src, err := pipeline.NewSliceSource(evs)
			if err != nil {
				return err
			}
			streams = append(streams, pipeline.Stream{Source: src})
		}
	}
	for i := range streams {
		sys, err := newSystem(*sysName, res, ps)
		if err != nil {
			return err
		}
		streams[i].System = sys
		col := &collectors[i]
		streams[i].Observer = func(snap pipeline.TrackSnapshot, sys core.System) error {
			fs := trace.FrameStat{Frame: snap.Frame, EndUS: snap.EndUS, Events: snap.Events, Reported: len(snap.Boxes)}
			if eb, ok := sys.(*core.EBBIOT); ok {
				fs.Proposals = len(eb.LastRPN().Proposals)
				fs.Active = eb.Tracker().ActiveTracks()
			}
			col.Record(fs)
			return nil
		}
	}
	if *pace {
		if *speed <= 0 {
			return fmt.Errorf("-speed must be positive, got %v", *speed)
		}
		for i := range streams {
			paced, err := pipeline.NewPacedSource(streams[i].Source, pipeline.PaceConfig{Speed: *speed, Done: ctx.Done()})
			if err != nil {
				return err
			}
			streams[i].Source = paced
		}
	}

	// The Runner flushes buffering sinks itself and surfaces their errors.
	var sink pipeline.Sink
	if *jsonOut {
		sink = pipeline.NewJSONSink(os.Stdout)
	} else {
		cs, err := pipeline.NewCSVSink(os.Stdout)
		if err != nil {
			return err
		}
		sink = cs
	}
	var sw *store.Writer
	if *storeDir != "" {
		sw, err = store.Open(*storeDir, store.Options{
			SegmentBytes: *storeSegMB << 20,
			SyncEvery:    *storeSync,
			ParamsHash:   ps.Hash(),
			Retention: store.RetentionPolicy{
				MaxAgeUS: int64(*storeRetainAgeH * 3600 * 1e6),
				MaxBytes: *storeRetainMB << 20,
			},
		})
		if err != nil {
			return err
		}
		sink = pipeline.MultiSink{sink, pipeline.NewStoreSink(sw)}
	}

	runner, err := pipeline.NewRunner(pipeline.Config{
		FrameUS:  ps.FrameUS,
		Workers:  *workers,
		Watchdog: time.Duration(*watchdogMS) * time.Millisecond,
	})
	if err != nil {
		return err
	}

	// Control plane: live status from the runner, live parameters through
	// per-stream tuners that apply new versions at window boundaries.
	if *httpAddr != "" {
		control.Attach(streams, paramStore)
		addr, shutdown, err := control.Serve(*httpAddr, control.NewServer(paramStore, runner).Handler(),
			func(serr error) { fmt.Fprintln(os.Stderr, "ebbiot-run: control server:", serr) })
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "control plane on http://%s (healthz, stats, streams/{id}, params, metrics)\n", addr)
	}

	stats, err := runner.Run(ctx, streams, sink)
	if sw != nil {
		// Seal the store even on a failed run; keep the run's error first.
		if cerr := sw.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	interrupted := ctx.Err() != nil && errors.Is(err, context.Canceled)
	if interrupted {
		fmt.Fprintln(os.Stderr, "ebbiot-run: interrupted — streams stopped at the window boundary, sinks drained and flushed; partial stats follow")
		err = nil
	}
	// Per-stream outcomes: one terminal-state line per stream, so a fleet
	// run says which sensors finished and which died. Any failed stream
	// forces a nonzero exit even when the run error was cleared above.
	if rs := runner.Status(); rs != nil {
		if failed := printStreamOutcomes(os.Stderr, rs.Snapshot()); len(failed) > 0 && err == nil {
			err = fmt.Errorf("%d stream(s) failed: %s", len(failed), strings.Join(failed, ", "))
		}
	}
	if err != nil {
		return err
	}

	if *statsPath != "" {
		sf, err := os.Create(*statsPath)
		if err != nil {
			return err
		}
		defer sf.Close()
		if err := trace.WriteCSV(sf, collectors[0].Stats()); err != nil {
			return err
		}
	}

	sum := collectors[0].Summarize()
	fmt.Fprintf(os.Stderr, "%s processed %d frames/sensor: mean events/frame %.0f, mean proposals %.2f, mean active tracks (NT) %.2f, peak %d\n",
		strings.ToUpper(*sysName), sum.Frames, sum.MeanEvents, sum.MeanProposals, sum.MeanActive, sum.MaxActive)
	fmt.Fprintf(os.Stderr, "throughput: %d sensors x %d workers: %d windows (%.0f windows/s), %d events (%.3g events/s) in %v\n",
		stats.Streams, stats.Workers, stats.Windows, stats.WindowsPerSec(), stats.Events, stats.EventsPerSec(), stats.Elapsed.Round(1e6))

	// Per-stage breakdown: EBBI-based systems record their frame-chain
	// stage times; the sink stage comes from the Runner. Kernel speedups
	// are visible here directly, without a go test -bench run.
	var agg core.StageTimings
	for i := range streams {
		if st, ok := streams[i].System.(core.StageTimer); ok {
			agg = agg.Add(st.StageTimings())
		}
	}
	if agg.Windows > 0 {
		perUS := func(d time.Duration) float64 {
			return float64(d.Microseconds()) / float64(agg.Windows)
		}
		sinkUS := 0.0
		if stats.Windows > 0 {
			sinkUS = float64(stats.SinkTime.Microseconds()) / float64(stats.Windows)
		}
		fmt.Fprintf(os.Stderr, "stage breakdown (mean µs/window over %d windows): ebbi %.1f, filter %.1f, rpn %.1f, track %.1f, sink %.1f, skipped %d (%.1f%%), active px %.1f%%\n",
			agg.Windows, perUS(agg.EBBI), perUS(agg.Filter), perUS(agg.RPN), perUS(agg.Track), sinkUS,
			agg.Skipped, 100*float64(agg.Skipped)/float64(agg.Windows),
			100*agg.MeanActiveFraction())
	}
	// Ingest health per stream: what the wire delivered, what policy or
	// transport shed. A nonzero drop/fault count here is the backpressure
	// story of the run, not an error.
	if ingestSrv != nil {
		if rs := runner.Status(); rs != nil {
			for _, ss := range rs.Snapshot().PerStream {
				if ss.Source == nil {
					continue
				}
				src := ss.Source
				line := fmt.Sprintf("ingest %s: accepted %d batches / %d events; dropped %d batches / %d events; dup %d batches / %d events; gaps %d, faults %d",
					ss.Name, src.Batches, src.Events, src.DroppedBatches, src.DroppedEvents, src.DupBatches, src.DupEvents, src.SeqGaps, src.Faults)
				if src.LastError != "" {
					line += " (last: " + src.LastError + ")"
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}
	if v := paramStore.Version(); v > 1 {
		fmt.Fprintf(os.Stderr, "params: finished on version %d (retuned live %d time(s))\n", v, v-1)
	}
	if sw != nil {
		fmt.Fprintf(os.Stderr, "recorded %d snapshots to %s as run %d (list/verify/replay with: ebbiot-query -store %s)\n",
			stats.Windows, *storeDir, sw.RunID(), *storeDir)
	}
	return nil
}
