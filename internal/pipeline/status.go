package pipeline

import (
	"sync"
	"sync/atomic"
	"time"

	"ebbiot/internal/core"
)

// StreamState is the lifecycle position of one stream within a run.
type StreamState int32

// Stream lifecycle states.
const (
	// StreamPending: registered but no worker has claimed it yet.
	StreamPending StreamState = iota
	// StreamRunning: a worker is processing its windows.
	StreamRunning
	// StreamDone: the stream was processed to exhaustion.
	StreamDone
	// StreamFailed: the stream's source, system, observer or tuner errored.
	StreamFailed
	// StreamCanceled: the stream stopped because the run was canceled
	// (another stream's failure, a sink error, or ctx cancellation).
	StreamCanceled
	// StreamStalled: the stream is still owned by a worker but has made no
	// window progress within the run's watchdog deadline — typically a
	// network source whose sensor went quiet. Not terminal: the stream
	// flips back to running at its next window.
	StreamStalled
)

// String implements fmt.Stringer.
func (s StreamState) String() string {
	switch s {
	case StreamPending:
		return "pending"
	case StreamRunning:
		return "running"
	case StreamDone:
		return "done"
	case StreamFailed:
		return "failed"
	case StreamCanceled:
		return "canceled"
	case StreamStalled:
		return "stalled"
	default:
		return "unknown"
	}
}

// StreamStatus holds one stream's continuously updated counters. The worker
// driving the stream writes them between windows; any goroutine (the control
// plane's HTTP handlers in particular) may read a consistent point-in-time
// view via Snapshot at any moment during the run.
type StreamStatus struct {
	sensor int
	name   string

	state      atomic.Int32
	windows    atomic.Int64
	events     atomic.Int64
	boxes      atomic.Int64
	procUS     atomic.Int64
	lastFrame  atomic.Int64
	lastEndUS  atomic.Int64
	lastEvents atomic.Int64
	lastBoxes  atomic.Int64
	frameUS    atomic.Int64
	paramVer   atomic.Int64
	srcErrs    atomic.Int64
	stalls     atomic.Int64
	// lastProgress is the UnixNano of the stream's latest window (or its
	// claim by a worker) — what the run's watchdog measures staleness
	// against.
	lastProgress atomic.Int64

	// mu guards the multi-word fields below.
	mu     sync.Mutex
	stages core.StageTimings
	hasST  bool
	src    SourceStats
	hasSrc bool
	errMsg string
	// stack is the recovered goroutine stack when the stream failed by
	// panic (contained by the supervisor).
	stack string
}

// StreamSnapshot is the JSON view of one stream's StreamStatus.
type StreamSnapshot struct {
	Sensor int    `json:"sensor"`
	Name   string `json:"name"`
	State  string `json:"state"`
	// Windows, Events, Boxes are cumulative totals.
	Windows int64 `json:"windows"`
	Events  int64 `json:"events"`
	Boxes   int64 `json:"boxes"`
	// ProcUS is the cumulative ProcessWindow wall-clock (the duty cycle's
	// active slice).
	ProcUS int64 `json:"proc_us"`
	// LastFrame/LastEndUS locate the stream clock; LastEvents and LastBoxes
	// are the most recent window's event count and reported track count (the
	// live NT).
	LastFrame  int64 `json:"last_frame"`
	LastEndUS  int64 `json:"last_end_us"`
	LastEvents int64 `json:"last_events"`
	LastBoxes  int64 `json:"last_boxes"`
	// FrameUS is the tF currently in effect; ParamVersion is the ParamSet
	// version last applied by the stream's tuner (0 when untuned).
	FrameUS      int64 `json:"frame_us"`
	ParamVersion int64 `json:"param_version,omitempty"`
	// EventsPerSec / WindowsPerSec are wall-clock rates over the run so far.
	EventsPerSec  float64 `json:"events_per_sec"`
	WindowsPerSec float64 `json:"windows_per_sec"`
	// ActiveFraction is ProcUS over the stream time covered so far — the
	// duty-cycle active fraction when the run is paced at recorded speed.
	ActiveFraction float64 `json:"active_fraction"`
	// SourceErrors counts windower/source failures on this stream — a
	// source that errored mid-run after yielding windows shows up here
	// even though the failure also aborts the run.
	SourceErrors int64 `json:"source_errors"`
	// Stalls counts watchdog trips: periods with no window progress within
	// the run's watchdog deadline.
	Stalls int64 `json:"stalls,omitempty"`
	// Stages is the per-stage timing breakdown for systems that implement
	// core.StageTimer.
	Stages *StageSnapshot `json:"stages,omitempty"`
	// Source carries the network-source health counters for streams fed by
	// a SourceMeter (the ingest layer's NetSource); nil for local sources.
	Source *SourceStats `json:"source,omitempty"`
	Error  string       `json:"error,omitempty"`
	// Stack is the recovered goroutine stack when the stream failed by
	// panic; empty otherwise.
	Stack string `json:"stack,omitempty"`
}

// StageSnapshot is the JSON view of core.StageTimings (totals in µs).
type StageSnapshot struct {
	Windows int64 `json:"windows"`
	// WindowsSkipped counts the windows the near-empty fast path bypassed
	// (included in Windows); always serialized so consumers can tell "no
	// skipping configured" from "field absent".
	WindowsSkipped int64 `json:"windows_skipped"`
	EBBIUS         int64 `json:"ebbi_us"`
	FilterUS       int64 `json:"filter_us"`
	RPNUS          int64 `json:"rpn_us"`
	TrackUS        int64 `json:"track_us"`
	// ActivePixelFraction is the mean fraction of the packed frame the
	// active region marked dirty — the sparsity the activity-bounded
	// kernels skipped past. Distinct from the stream-level ActiveFraction,
	// which is the duty cycle's processing-time share.
	ActivePixelFraction float64 `json:"active_pixel_fraction"`
}

// Name returns the stream's label.
func (s *StreamStatus) Name() string { return s.name }

// State returns the stream's lifecycle state.
func (s *StreamStatus) State() StreamState { return StreamState(s.state.Load()) }

// setState transitions the stream's lifecycle state.
func (s *StreamStatus) setState(st StreamState) { s.state.Store(int32(st)) }

// fail records a terminal error.
func (s *StreamStatus) fail(st StreamState, err error) {
	s.setState(st)
	if err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// noteProgress stamps the stream's progress clock and clears a watchdog
// stall, if one was flagged: progress is the proof of life.
func (s *StreamStatus) noteProgress(now time.Time) {
	s.lastProgress.Store(now.UnixNano())
	s.state.CompareAndSwap(int32(StreamStalled), int32(StreamRunning))
}

// markStalled flips a running stream to stalled, counting the trip.
// CAS-only so it can never clobber a terminal state the worker is
// concurrently writing.
func (s *StreamStatus) markStalled() bool {
	if s.state.CompareAndSwap(int32(StreamRunning), int32(StreamStalled)) {
		s.stalls.Add(1)
		return true
	}
	return false
}

// failPanic records a contained panic: terminal failure plus the
// recovered stack for /streams/{id}.
func (s *StreamStatus) failPanic(err error, stack []byte) {
	s.setState(StreamFailed)
	s.mu.Lock()
	s.errMsg = err.Error()
	s.stack = string(stack)
	s.mu.Unlock()
}

// record accounts one processed window. It does not stamp the progress
// clock: only a Runner's watchdog reads it, so the Runner stamps it itself
// (noteProgress) with the clock read that ends the window's ProcUS.
func (s *StreamStatus) record(snap TrackSnapshot) {
	s.windows.Add(1)
	s.events.Add(int64(snap.Events))
	s.boxes.Add(int64(len(snap.Boxes)))
	s.procUS.Add(snap.ProcUS)
	s.lastFrame.Store(int64(snap.Frame))
	s.lastEndUS.Store(snap.EndUS)
	s.lastEvents.Store(int64(snap.Events))
	s.lastBoxes.Store(int64(len(snap.Boxes)))
}

// setStages publishes the system's per-stage timings.
func (s *StreamStatus) setStages(st core.StageTimings) {
	s.mu.Lock()
	s.stages = st
	s.hasST = true
	s.mu.Unlock()
}

// addSourceError accounts one source failure on this stream.
func (s *StreamStatus) addSourceError() { s.srcErrs.Add(1) }

// setSourceStats publishes the source's health counters.
func (s *StreamStatus) setSourceStats(st SourceStats) {
	s.mu.Lock()
	s.src = st
	s.hasSrc = true
	s.mu.Unlock()
}

// setTuning publishes the frame duration and parameter version in effect.
func (s *StreamStatus) setTuning(frameUS, version int64) {
	if frameUS > 0 {
		s.frameUS.Store(frameUS)
	}
	if version > 0 {
		s.paramVer.Store(version)
	}
}

// Snapshot returns a point-in-time view; elapsed is the run's wall-clock so
// far, used for the rate fields.
func (s *StreamStatus) Snapshot(elapsed time.Duration) StreamSnapshot {
	snap := StreamSnapshot{
		Sensor:       s.sensor,
		Name:         s.name,
		State:        s.State().String(),
		Windows:      s.windows.Load(),
		Events:       s.events.Load(),
		Boxes:        s.boxes.Load(),
		ProcUS:       s.procUS.Load(),
		LastFrame:    s.lastFrame.Load(),
		LastEndUS:    s.lastEndUS.Load(),
		LastEvents:   s.lastEvents.Load(),
		LastBoxes:    s.lastBoxes.Load(),
		FrameUS:      s.frameUS.Load(),
		ParamVersion: s.paramVer.Load(),
		SourceErrors: s.srcErrs.Load(),
		Stalls:       s.stalls.Load(),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		snap.EventsPerSec = float64(snap.Events) / secs
		snap.WindowsPerSec = float64(snap.Windows) / secs
	}
	if snap.LastEndUS > 0 {
		snap.ActiveFraction = float64(snap.ProcUS) / float64(snap.LastEndUS)
	}
	s.mu.Lock()
	if s.hasST {
		snap.Stages = &StageSnapshot{
			Windows:             s.stages.Windows,
			WindowsSkipped:      s.stages.Skipped,
			EBBIUS:              s.stages.EBBI.Microseconds(),
			FilterUS:            s.stages.Filter.Microseconds(),
			RPNUS:               s.stages.RPN.Microseconds(),
			TrackUS:             s.stages.Track.Microseconds(),
			ActivePixelFraction: s.stages.MeanActiveFraction(),
		}
	}
	if s.hasSrc {
		src := s.src
		snap.Source = &src
	}
	snap.Error = s.errMsg
	snap.Stack = s.stack
	s.mu.Unlock()
	return snap
}

// RunStatus is the live, continuously updated view of one run — the
// observation surface the control plane serves while Runner.Run (or a store
// replay) is still in flight. All methods are safe for concurrent use.
//
// RunStatus implements the control plane's status-provider contract on
// itself (Status returns the receiver), so a bare RunStatus — e.g. one
// tracking a store replay — can be served directly.
type RunStatus struct {
	start   time.Time
	workers atomic.Int64

	mu       sync.RWMutex
	streams  []*StreamStatus
	bySensor map[int]*StreamStatus
	errMsg   string

	sinkNS atomic.Int64
	// sinkWaiting counts the workers waiting to hand a snapshot to the
	// sink (the Runner's; a replay's drain loop never waits).
	sinkWaiting atomic.Int64
	done        atomic.Bool
	endNS       atomic.Int64 // elapsed frozen when the run finishes
}

// StatusSnapshot is the JSON view of a whole run at one moment.
type StatusSnapshot struct {
	Running bool `json:"running"`
	Workers int  `json:"workers"`
	// ElapsedUS is wall-clock since the run started (frozen at completion).
	ElapsedUS int64 `json:"elapsed_us"`
	// Totals across streams.
	Streams int   `json:"streams"`
	Windows int64 `json:"windows"`
	Events  int64 `json:"events"`
	Boxes   int64 `json:"boxes"`
	// SourceErrors totals the per-stream source failures.
	SourceErrors int64 `json:"source_errors"`
	// Stalls totals the per-stream watchdog trips.
	Stalls int64 `json:"stalls,omitempty"`
	// SinkUS is cumulative wall-clock inside Sink.Consume; SinkLag is the
	// number of workers waiting to hand a snapshot to the sink right now.
	SinkUS        int64            `json:"sink_us"`
	SinkLag       int              `json:"sink_lag"`
	EventsPerSec  float64          `json:"events_per_sec"`
	WindowsPerSec float64          `json:"windows_per_sec"`
	PerStream     []StreamSnapshot `json:"per_stream"`
	Error         string           `json:"error,omitempty"`
}

// NewRunStatus returns an empty status anchored at now. Runner.Run builds
// one per run; replay and custom drivers may build their own and register
// streams as they appear.
func NewRunStatus(workers int) *RunStatus {
	rs := &RunStatus{start: time.Now(), bySensor: make(map[int]*StreamStatus)}
	rs.workers.Store(int64(workers))
	return rs
}

// Status implements the control plane's status-provider contract.
func (r *RunStatus) Status() *RunStatus { return r }

// Register adds (or returns the already registered) stream with the given
// sensor index and label.
func (r *RunStatus) Register(sensor int, name string) *StreamStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.bySensor[sensor]; ok {
		return st
	}
	st := &StreamStatus{sensor: sensor, name: name}
	r.bySensor[sensor] = st
	r.streams = append(r.streams, st)
	return st
}

// Stream returns the status of the stream with the given sensor index, or
// nil if none is registered.
func (r *RunStatus) Stream(sensor int) *StreamStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.bySensor[sensor]
}

// Streams returns the registered stream statuses (a copy of the list; the
// statuses themselves are live). The run's watchdog scans this.
func (r *RunStatus) Streams() []*StreamStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*StreamStatus, len(r.streams))
	copy(out, r.streams)
	return out
}

// FailedStreams lists the names of streams that ended in StreamFailed —
// the basis for the run's aggregate error when failures were contained
// rather than run-aborting, and for ebbiot-run's exit code.
func (r *RunStatus) FailedStreams() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, st := range r.streams {
		if st.State() == StreamFailed {
			out = append(out, st.name)
		}
	}
	return out
}

// StreamByName returns the status of the first stream with the given label,
// or nil.
func (r *RunStatus) StreamByName(name string) *StreamStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, st := range r.streams {
		if st.name == name {
			return st
		}
	}
	return nil
}

// Running reports whether the run is still in flight.
func (r *RunStatus) Running() bool { return !r.done.Load() }

// Elapsed returns wall-clock since the run started, frozen at completion.
func (r *RunStatus) Elapsed() time.Duration {
	if r.done.Load() {
		return time.Duration(r.endNS.Load())
	}
	return time.Since(r.start)
}

// addSinkTime accounts time spent inside Sink.Consume. Accumulated in
// nanoseconds: per-snapshot sink calls are often sub-microsecond, and
// truncating each one would undercount the total.
func (r *RunStatus) addSinkTime(d time.Duration) { r.sinkNS.Add(int64(d)) }

// finish freezes the clock and records the run's terminal error. Streams
// never dispatched to a worker (an aborted run broke off dispatch) are
// swept to canceled: in a finished run, "pending" would read as stuck work.
func (r *RunStatus) finish(err error) {
	r.endNS.Store(int64(time.Since(r.start)))
	r.mu.Lock()
	if err != nil {
		r.errMsg = err.Error()
	}
	streams := make([]*StreamStatus, len(r.streams))
	copy(streams, r.streams)
	r.mu.Unlock()
	for _, st := range streams {
		if st.State() == StreamPending {
			st.setState(StreamCanceled)
		}
	}
	r.done.Store(true)
}

// Snapshot returns a consistent point-in-time view of the whole run.
func (r *RunStatus) Snapshot() StatusSnapshot {
	elapsed := r.Elapsed()
	snap := StatusSnapshot{
		Running:   r.Running(),
		Workers:   int(r.workers.Load()),
		ElapsedUS: elapsed.Microseconds(),
		SinkUS:    time.Duration(r.sinkNS.Load()).Microseconds(),
		SinkLag:   int(r.sinkWaiting.Load()),
	}
	r.mu.RLock()
	snap.Error = r.errMsg
	streams := make([]*StreamStatus, len(r.streams))
	copy(streams, r.streams)
	r.mu.RUnlock()
	snap.Streams = len(streams)
	snap.PerStream = make([]StreamSnapshot, 0, len(streams))
	for _, st := range streams {
		ss := st.Snapshot(elapsed)
		snap.Windows += ss.Windows
		snap.Events += ss.Events
		snap.Boxes += ss.Boxes
		snap.SourceErrors += ss.SourceErrors
		snap.Stalls += ss.Stalls
		snap.PerStream = append(snap.PerStream, ss)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		snap.EventsPerSec = float64(snap.Events) / secs
		snap.WindowsPerSec = float64(snap.Windows) / secs
	}
	return snap
}

// Stats collapses the live status into the end-of-run aggregate form.
func (r *RunStatus) Stats() Stats {
	snap := r.Snapshot()
	return Stats{
		Streams:  snap.Streams,
		Workers:  snap.Workers,
		Windows:  snap.Windows,
		Events:   snap.Events,
		Boxes:    snap.Boxes,
		Elapsed:  r.Elapsed(),
		SinkTime: time.Duration(r.sinkNS.Load()),
	}
}
