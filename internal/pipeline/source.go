package pipeline

import (
	"fmt"
	"io"

	"ebbiot/internal/aedat"
	"ebbiot/internal/events"
	"ebbiot/internal/sensor"
)

// EventSource delivers a sensor stream to the pipeline one frame window at a
// time. Windows are requested in order with contiguous, half-open bounds
// [start, end); the source appends the window's events to buf and returns
// the extended slice, so callers can recycle one buffer across windows.
//
// A source signals exhaustion by returning io.EOF, possibly alongside a
// final batch of events; after that the windower emits the final window and
// stops. Any other error aborts the stream.
//
// The source owns event order: its events are non-decreasing in time
// across the whole stream, and each window holds exactly its events in
// [start, end). The sources in this module check that once, each at its
// own boundary: NewSliceSource in one pass at construction, AEDAT by
// format (unsigned deltas from t = 0), the ingest wire decoder within a
// batch and NetSource's offer across batches, and the simulator by
// ordering each tick. The Windower checks only each window's first and
// last event: a first event before start (a regression across windows)
// fails the stream with events.ErrUnsorted, and a last event at or past
// end as outside the window. Disorder inside a window is not detected
// there.
type EventSource interface {
	NextWindow(buf []events.Event, start, end int64) ([]events.Event, error)
}

// SourceStats is the health ledger of a network-fed (or otherwise fallible)
// event source: what arrived, what was shed by backpressure policy, what
// the transport mangled. Sources that implement SourceMeter have these
// counters published into their stream's StreamStatus at every window
// boundary, and from there onto /streams/{id} and /metrics.
type SourceStats struct {
	// Connected reports whether the producing connection is currently
	// attached and live.
	Connected bool `json:"connected"`
	// Batches and Events count what the source accepted from the wire
	// (before any queue-policy drop).
	Batches int64 `json:"batches"`
	Events  int64 `json:"events"`
	// DroppedBatches/DroppedEvents count queue-policy evictions only:
	// data the source accepted and then shed.
	DroppedBatches int64 `json:"dropped_batches"`
	DroppedEvents  int64 `json:"dropped_events"`
	// DupBatches/DupEvents count batches discarded for arriving with an
	// already-delivered (duplicate or reordered) sequence number, and
	// their events: redeliveries, not losses. SeqGaps counts sequence
	// numbers skipped over.
	DupBatches int64 `json:"dup_batches"`
	DupEvents  int64 `json:"dup_events"`
	SeqGaps    int64 `json:"seq_gaps"`
	// QueuedBatches is the queue depth at sampling time.
	QueuedBatches int64 `json:"queued_batches"`
	// Faults counts mid-stream transport/protocol failures (torn frame,
	// stalled writer, disconnect without EOF); LastError describes the
	// most recent one.
	Faults    int64  `json:"faults"`
	LastError string `json:"last_error,omitempty"`
	// Epoch is the ingest session epoch: 1 for the first connection,
	// bumped on every accepted resume. 0 for sources without sessions.
	Epoch int64 `json:"epoch,omitempty"`
	// Resumes counts accepted session resumes (reconnects that continued
	// the same stream instead of faulting it).
	Resumes int64 `json:"resumes,omitempty"`
	// Resumable reports a disconnected stream currently inside its resume
	// grace window: the connection is down but the session is still alive,
	// waiting for the sensor to reconnect.
	Resumable bool `json:"resumable,omitempty"`
}

// SourceMeter is implemented by sources that keep SourceStats (the ingest
// layer's NetSource). The Runner polls it between windows on the stream's
// worker goroutine; implementations must be safe for concurrent use with
// their producing side.
type SourceMeter interface {
	SourceStats() SourceStats
}

// RestartableSource is declared only because perfbench/trace.go
// type-asserts it to keep its tracing wrappers' method sets. Nothing in
// this module implements it, and the Runner never calls Restart: the first
// source error fails the stream (ingest recovers a lost connection inside
// NetSource, by session resume). Delete it together with those wrappers.
type RestartableSource interface {
	EventSource
	Restart() error
}

// SliceSource replays an in-memory, time-sorted event stream — recordings
// already decoded, test fixtures, or shards of a captured stream.
type SliceSource struct {
	evs []events.Event
	pos int
}

// NewSliceSource validates ordering and returns a source over evs. The
// source aliases evs; do not mutate while streaming.
func NewSliceSource(evs []events.Event) (*SliceSource, error) {
	if !events.Sorted(evs) {
		return nil, events.ErrUnsorted
	}
	return &SliceSource{evs: evs}, nil
}

// NextWindow implements EventSource.
func (s *SliceSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	for s.pos < len(s.evs) && s.evs[s.pos].T < end {
		buf = append(buf, s.evs[s.pos])
		s.pos++
	}
	if s.pos == len(s.evs) {
		return buf, io.EOF
	}
	return buf, nil
}

// AEDATSource streams a recorded AER file incrementally, so hour-long
// recordings are processed window by window without decoding everything up
// front.
type AEDATSource struct {
	r *aedat.Reader
}

// NewAEDATSource wraps a streaming AEDAT reader.
func NewAEDATSource(r *aedat.Reader) *AEDATSource { return &AEDATSource{r: r} }

// NextWindow implements EventSource.
func (a *AEDATSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	return a.r.NextWindowInto(buf, end)
}

// SceneSource drives a sensor simulator over a synthetic scene of finite
// duration. Matching the evaluation protocol, only windows that fit fully
// inside the scene duration are emitted; the trailing partial window is
// dropped.
type SceneSource struct {
	sim        *sensor.Simulator
	durationUS int64
}

// NewSceneSource wraps a simulator whose scene lasts durationUS.
func NewSceneSource(sim *sensor.Simulator, durationUS int64) (*SceneSource, error) {
	if durationUS <= 0 {
		return nil, fmt.Errorf("pipeline: non-positive scene duration %d", durationUS)
	}
	return &SceneSource{sim: sim, durationUS: durationUS}, nil
}

// NextWindow implements EventSource.
func (s *SceneSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	if end > s.durationUS {
		return buf, io.EOF
	}
	out, err := s.sim.EventsInto(buf, start, end)
	if err != nil {
		return out, err
	}
	if end == s.durationUS {
		return out, io.EOF
	}
	return out, nil
}
