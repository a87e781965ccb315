// Package pipeline is the streaming runtime that drives the paper's
// frame-synchronous tracking systems over live or recorded event streams.
// It layers as
//
//	EventSource -> Windower -> core.System -> TrackSnapshot -> Sink
//
// and scales out: a Runner shards N independent sensor streams across M
// worker goroutines, each worker owning one stream at a time (so every
// stream's stateful System sees its windows strictly in order). Each worker
// hands its per-window TrackSnapshots to the one Sink itself, one Consume
// call at a time, before it pulls the stream's next window. Backpressure is
// end-to-end — a slow sink blocks the workers waiting for it rather than
// buffering unboundedly — and per-stream results are deterministic
// regardless of worker count.
//
// The hot per-window path recycles buffers: window event slices come from a
// sync.Pool shared across streams, and the Systems' EBBI frames are pooled
// underneath (see ebbi.NewPackedBuilder). Snapshots deep-copy the reported track
// boxes at the window boundary, so sinks may retain them indefinitely while
// workers race ahead.
//
// Runs can outlive the process: a StoreSink persists every snapshot into
// the embedded append-only store (internal/store), and ReplayStoreWith
// feeds a recorded run — all of it, or one sensor's window — back through
// any Sink with the same per-stream ordering contract: record once,
// re-evaluate offline forever. Sinks that buffer implement Flusher and are
// flushed by the Runner itself, so deferred write errors fail the run
// instead of vanishing.
//
// Runs are also observable and tunable while in flight: the Runner
// publishes a live RunStatus (per-stream counters, stage timings, sink
// lag) that any goroutine may read, each Stream may carry a Tuner that the
// worker consults at window boundaries to retune tF or reconfigure the
// System live, and PacedSource releases windows at recorded wall-clock
// speed so replays behave like deployments. internal/control serves all of
// this over HTTP.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ebbiot/internal/core"
	"ebbiot/internal/geometry"
	"ebbiot/internal/store"
)

// TrackSnapshot is one window's result from one sensor stream. It is
// store.Snapshot, so the record a worker builds is the record the store
// persists and a replay yields. The worker deep-copies the boxes, so a
// snapshot stays valid after the worker moves on to the next window.
type TrackSnapshot = store.Snapshot

// Observer is a per-stream hook invoked synchronously on the worker
// goroutine after each window, before the snapshot is handed to the sink.
// Because it runs between windows of its own stream, it may inspect the
// System's window-scoped internals (e.g. core.EBBIOT.LastFrame), which
// alias buffers that the next window will overwrite.
type Observer func(snap TrackSnapshot, sys core.System) error

// Tuner is the control plane's hook into a running stream. The worker calls
// Tune on its own goroutine at every window boundary, before the next window
// is pulled; the tuner may retune the System (the systems' ApplyParams
// hooks, which rebuild it through its constructor) and returns the frame
// duration tF to use for the next window (0 keeps the current one) plus the
// parameter version in effect (0 when unversioned), which the live status
// reports.
//
// A Tuner instance belongs to one stream: it is only ever called from the
// worker currently driving that stream, so it needs no locking of its own,
// but implementations that consult shared state (a control.ParamStore) must
// read it atomically.
type Tuner interface {
	Tune(sensor int, sys core.System) (frameUS, version int64, err error)
}

// Stream pairs an event source with the stateful System consuming it. Each
// stream is processed by exactly one worker at a time.
type Stream struct {
	// Name labels snapshots; defaults to "sensor<index>".
	Name   string
	Source EventSource
	System core.System
	// Observer, if non-nil, runs synchronously after every window.
	Observer Observer
	// Tuner, if non-nil, is consulted at every window boundary and may
	// retune tF or reconfigure the System live. Each stream needs its own
	// instance.
	Tuner Tuner
}

// Config parameterises a Runner.
type Config struct {
	// FrameUS is the frame period tF in microseconds.
	FrameUS int64
	// Workers caps the concurrent stream workers; 0 means GOMAXPROCS. The
	// effective count never exceeds the number of streams.
	Workers int
	// Watchdog, when positive, arms a per-stream progress watchdog: a
	// running stream that completes no window within this duration is
	// flipped to the (non-terminal) stalled state and its stall counter
	// incremented — surfacing a quiet sensor through /streams/{id} and
	// /metrics without killing anything. The stream returns to running at
	// its next window.
	Watchdog time.Duration
}

// Stats summarises a run.
type Stats struct {
	Streams int
	// Workers is the effective worker count the run used (after resolving
	// the GOMAXPROCS default and the stream-count cap).
	Workers int
	Windows int64
	Events  int64
	// Boxes is the total reported track boxes across all snapshots.
	Boxes   int64
	Elapsed time.Duration
	// SinkTime is the total wall-clock spent inside Sink.Consume, summed
	// over the workers' calls, which never overlap — the "sink" stage of
	// the per-window timing breakdown (divide by Windows for the
	// per-window mean).
	SinkTime time.Duration
}

// EventsPerSec returns the aggregate event throughput.
func (s Stats) EventsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Events) / s.Elapsed.Seconds()
}

// WindowsPerSec returns the aggregate window throughput.
func (s Stats) WindowsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Windows) / s.Elapsed.Seconds()
}

// Runner shards sensor streams across workers, each of which hands its
// snapshots to one shared sink.
type Runner struct {
	cfg    Config
	status atomic.Pointer[RunStatus]
}

// NewRunner validates the configuration and returns a Runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.FrameUS <= 0 {
		return nil, fmt.Errorf("pipeline: frame duration must be positive, got %d", cfg.FrameUS)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("pipeline: negative worker count %d", cfg.Workers)
	}
	if cfg.Watchdog < 0 {
		return nil, fmt.Errorf("pipeline: negative watchdog deadline %v", cfg.Watchdog)
	}
	return &Runner{cfg: cfg}, nil
}

// panicError is a panic recovered from one stream's worker — source,
// system, tuner, observer or the sink consuming its snapshot. The
// supervisor contains it: the stream fails with the stack recorded, the
// run's other streams are untouched, and the run reports the failure in
// its aggregate error once everything else has finished.
type panicError struct {
	stream string
	val    any
	stack  []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("pipeline: %s: panic: %v", p.stream, p.val)
}

// Run processes every stream to exhaustion and returns aggregate stats. The
// sink (which may be nil to discard results) is called on the worker that
// made each snapshot, right after its observer, and never concurrently, so
// it need not be thread-safe; per-stream snapshots arrive in frame order,
// interleaving across streams arbitrarily, and each reaches the sink before
// its stream's next window is pulled. Once every worker has finished the
// sink is flushed if it implements Flusher (MultiSink members included).
// The first error — from a source, System, observer, sink, flush or ctx —
// cancels the run and is returned; a sink error ends every stream canceled.
func (r *Runner) Run(ctx context.Context, streams []Stream, sink Sink) (Stats, error) {
	if len(streams) == 0 {
		return Stats{}, fmt.Errorf("pipeline: no streams")
	}
	for i := range streams {
		if streams[i].Source == nil || streams[i].System == nil {
			return Stats{}, fmt.Errorf("pipeline: stream %d missing source or system", i)
		}
	}
	workers := r.cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(streams) {
		workers = len(streams)
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		firstErr error
		errOnce  sync.Once
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Live status: registered before any worker starts so the control plane
	// sees every stream (as pending) from the first moment of the run.
	status := NewRunStatus(workers)
	for i := range streams {
		name := streams[i].Name
		if name == "" {
			name = fmt.Sprintf("sensor%d", i)
		}
		ss := status.Register(i, name)
		ss.setTuning(r.cfg.FrameUS, 0)
	}
	r.status.Store(status)

	// The worker that made a snapshot hands it to the sink; sinkMu makes
	// the calls one at a time, so sinks need no locking, and a slow sink
	// blocks the workers queued on it (backpressure). A panic in Consume
	// unwinds through the worker's superviseStream like any other panic of
	// its stream, and the deferred Unlock lets the other workers go on.
	var sinkMu sync.Mutex
	emit := func(snap TrackSnapshot) error {
		if sink == nil {
			return nil
		}
		status.sinkWaiting.Add(1)
		sinkMu.Lock()
		status.sinkWaiting.Add(-1)
		defer sinkMu.Unlock()
		t0 := time.Now()
		err := sink.Consume(snap)
		status.addSinkTime(time.Since(t0))
		if err != nil {
			// The sink's failure is the run's, not this stream's: cancel
			// the run with it and end this stream canceled like the rest.
			fail(fmt.Errorf("pipeline: sink: %w", err))
			return ctx.Err()
		}
		return nil
	}
	work := make(chan int)

	// Progress watchdog: flags running streams that complete no window
	// within the deadline as stalled (observability only — nothing is
	// killed). Stopped once the workers drain.
	var wdWG sync.WaitGroup
	wdStop := make(chan struct{})
	if r.cfg.Watchdog > 0 {
		wdWG.Add(1)
		go func() {
			defer wdWG.Done()
			period := r.cfg.Watchdog / 4
			if period < time.Millisecond {
				period = time.Millisecond
			}
			tick := time.NewTicker(period)
			defer tick.Stop()
			for {
				select {
				case <-wdStop:
					return
				case now := <-tick.C:
					for _, ss := range status.Streams() {
						lp := ss.lastProgress.Load()
						if ss.State() == StreamRunning && lp > 0 &&
							now.UnixNano()-lp > int64(r.cfg.Watchdog) {
							ss.markStalled()
						}
					}
				}
			}
		}()
	}

	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for idx := range work {
				ss := status.Stream(idx)
				ss.noteProgress(time.Now())
				ss.setState(StreamRunning)
				err := r.superviseStream(ctx, idx, &streams[idx], emit, ss)
				var pe *panicError
				switch {
				case err == nil:
					ss.setState(StreamDone)
				case errors.As(err, &pe):
					// Contained panic: the stream is failed with its stack,
					// siblings and the run continue. The failure surfaces
					// in the run's aggregate error at the end.
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					ss.fail(StreamCanceled, err)
					fail(err)
					return
				default:
					ss.fail(StreamFailed, err)
					fail(err)
					return
				}
			}
		}()
	}

dispatch:
	for i := range streams {
		select {
		case work <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	workerWG.Wait()
	close(wdStop)
	wdWG.Wait()

	// Flush buffering sinks so deferred write errors surface through the
	// run instead of being dropped; flushing is attempted even on a failed
	// run to persist whatever made it through.
	if err := flushSink(sink); err != nil {
		fail(fmt.Errorf("pipeline: sink flush: %w", err))
	}

	// The caller's context, not the derived one: cancelling the caller's
	// closes its Done channel before it cancels the derived context, and a
	// stream watching the caller's channel (a PacedSource) can run out in
	// that gap. The caller's Err waits until its cancellation completes.
	if firstErr == nil {
		firstErr = parent.Err()
	}
	// Contained failures (panics) let the rest of the run finish, but a
	// run with failed streams is still a failed run: report them so
	// callers — ebbiot-run's exit code in particular — can't mistake it
	// for success.
	if firstErr == nil {
		if failed := status.FailedStreams(); len(failed) > 0 {
			firstErr = fmt.Errorf("pipeline: %d stream(s) failed: %s", len(failed), strings.Join(failed, ", "))
		}
	}
	status.finish(firstErr)
	return status.Stats(), firstErr
}

// superviseStream runs one stream with panic containment: a panic
// anywhere in the stream's chain (source, windower, system, tuner,
// observer, sink) is recovered, recorded on the stream's status with its
// stack, and returned as a *panicError for the worker to treat as
// contained.
func (r *Runner) superviseStream(ctx context.Context, idx int, st *Stream, emit func(TrackSnapshot) error, ss *StreamStatus) (err error) {
	defer func() {
		if v := recover(); v != nil {
			perr := &panicError{stream: ss.Name(), val: v, stack: debug.Stack()}
			ss.failPanic(perr, perr.stack)
			err = perr
		}
	}()
	return r.runStream(ctx, idx, st, emit, ss)
}

// Status returns the live view of the current (or most recent) run, nil
// before the first Run. The returned RunStatus stays valid and readable
// after the run ends; a Runner drives one run at a time.
func (r *Runner) Status() *RunStatus { return r.status.Load() }

// runStream drives one stream's window loop to exhaustion, publishing
// progress into ss between windows. Each iteration is one window: tune,
// pull it from the Windower, process it in place in the Windower's buffer,
// snapshot, observe, emit to the sink. The first source error fails the
// stream.
func (r *Runner) runStream(ctx context.Context, idx int, st *Stream, emit func(TrackSnapshot) error, ss *StreamStatus) error {
	name := ss.Name()
	w, err := NewWindower(st.Source, r.cfg.FrameUS)
	if err != nil {
		return fmt.Errorf("pipeline: %s: %w", name, err)
	}
	defer w.Close()
	// Metered sources (the ingest layer's NetSource, possibly paced) have
	// their health counters published into the live status between windows
	// and once more when the stream ends, whatever way it ends.
	meter := sourceMeter(st.Source)
	publishSrc := func() {
		if meter != nil {
			ss.setSourceStats(meter.SourceStats())
		}
	}
	defer publishSrc()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Window boundary: let the control plane retune tF or reconfigure
		// the System before the next window is pulled.
		if st.Tuner != nil {
			frameUS, version, err := st.Tuner.Tune(idx, st.System)
			if err != nil {
				return fmt.Errorf("pipeline: %s: tuner: %w", name, err)
			}
			if frameUS > 0 && frameUS != w.FrameUS() {
				if err := w.SetFrameUS(frameUS); err != nil {
					return fmt.Errorf("pipeline: %s: tuner: %w", name, err)
				}
			}
			ss.setTuning(frameUS, version)
		}
		frame := w.Frame()
		win, err := w.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Counted before the failure aborts the stream, so the stream's
			// snapshot shows where it broke.
			ss.addSourceError()
			return fmt.Errorf("pipeline: %s: %w", name, err)
		}
		procStart := time.Now()
		reported, err := st.System.ProcessWindow(win.Events)
		if err != nil {
			return fmt.Errorf("pipeline: %s: %s: %w", name, st.System.Name(), err)
		}
		procEnd := time.Now()
		snap := TrackSnapshot{
			Sensor:  idx,
			Name:    name,
			Frame:   frame,
			StartUS: win.Start,
			EndUS:   win.End,
			Events:  len(win.Events),
			ProcUS:  procEnd.Sub(procStart).Microseconds(),
			// Deep copy: the System's slice is fresh per the core.System
			// contract, but copying here makes the snapshot safe even for
			// systems that violate it.
			Boxes: append([]geometry.Box(nil), reported...),
		}
		ss.noteProgress(procEnd)
		ss.record(snap)
		if timer, ok := st.System.(core.StageTimer); ok {
			ss.setStages(timer.StageTimings())
		}
		publishSrc()
		// The observer runs first (it may fail the run), then the sink.
		if st.Observer != nil {
			if err := st.Observer(snap, st.System); err != nil {
				return fmt.Errorf("pipeline: %s: observer: %w", name, err)
			}
		}
		if err := emit(snap); err != nil {
			return err
		}
	}
}
