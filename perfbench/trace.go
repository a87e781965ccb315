package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"ebbiot/internal/core"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/pipeline"
)

// layer names a span. Source spans take the name of the layer that serves
// the window: aedat for file decode, pipeline for in-memory slices, ingest
// for the network queue.
type layer uint8

const (
	lCycle layer = iota
	lSource
	lProcess
	lAccumulate
	lMedian
	lPropose
	lTrack
	lGlue
	lAppend
	nLayers
)

var layerNames = [nLayers]string{
	lCycle:      "pipeline.cycle",
	lSource:     "source",
	lProcess:    "core.process",
	lAccumulate: "ebbi.accumulate",
	lMedian:     "ebbi.median",
	lPropose:    "rpn.propose",
	lTrack:      "tracker.step",
	lGlue:       "core.glue",
	lAppend:     "store.append",
}

// span is one timed call at a layer boundary. All spans of a window share
// its stream and frame; parent indexes the window's cycle span (for stage
// children, its process span) in the same stream's buffer, -1 for none.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	name          layer
	stream, frame int32
	parent        int32
	start, end    int64
}

// tracer records the spans of one pass in memory, one buffer per stream
// (a stream is driven by one worker at a time) plus one for the sink
// goroutine, so recording needs no locks.
type tracer struct {
	epoch   time.Time
	source  string // name of the source layer
	streams []streamTrace
	sink    []span
}

type streamTrace struct {
	spans []span
	// frame counts source calls; cycleStart is where the current
	// window's cycle began and first the index of its first span.
	frame      int32
	cycleStart int64
	first      int
	started    bool
}

func newTracer(streams int, source string) *tracer {
	return &tracer{epoch: time.Now(), source: source, streams: make([]streamTrace, streams)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// observer closes a window's cycle: the time since the previous window's
// observer call (or the stream's first source call) is the worker cycle,
// and the window's source and process spans become its children.
func (t *tracer) observer(stream int) pipeline.Observer {
	st := &t.streams[stream]
	return func(snap pipeline.TrackSnapshot, _ core.System) error {
		end := t.now()
		idx := int32(len(st.spans))
		for i := st.first; i < len(st.spans); i++ {
			if st.spans[i].parent < 0 {
				st.spans[i].parent = idx
			}
		}
		st.spans = append(st.spans, span{name: lCycle, stream: int32(stream), frame: int32(snap.Frame), parent: -1, start: st.cycleStart, end: end})
		st.cycleStart = end
		st.first = len(st.spans)
		return nil
	}
}

// tracedSource times NextWindow.
type tracedSource struct {
	inner  pipeline.EventSource
	t      *tracer
	stream int
}

func (s *tracedSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	st := &s.t.streams[s.stream]
	t0 := s.t.now()
	if !st.started {
		st.started = true
		st.cycleStart = t0
	}
	out, err := s.inner.NextWindow(buf, start, end)
	st.spans = append(st.spans, span{name: lSource, stream: int32(s.stream), frame: st.frame, parent: -1, start: t0, end: s.t.now()})
	st.frame++
	return out, err
}

// meteredSource, restartableSource and meteredRestartableSource add the
// optional source interfaces the Runner type-asserts to a wrapper; see
// keepSourceInterfaces.
type meteredSource struct {
	pipeline.EventSource
	m pipeline.SourceMeter
}

func (s meteredSource) SourceStats() pipeline.SourceStats { return s.m.SourceStats() }

type restartableSource struct {
	pipeline.EventSource
	r pipeline.RestartableSource
}

func (s restartableSource) Restart() error { return s.r.Restart() }

type meteredRestartableSource struct {
	pipeline.EventSource
	m pipeline.SourceMeter
	r pipeline.RestartableSource
}

func (s meteredRestartableSource) SourceStats() pipeline.SourceStats { return s.m.SourceStats() }
func (s meteredRestartableSource) Restart() error                    { return s.r.Restart() }

// keepSourceInterfaces returns w, a wrapper around src, extended to
// implement exactly the optional interfaces src does, forwarded to src;
// otherwise a wrapped run would silently stop publishing source stats or
// restarting, and measure another program.
func keepSourceInterfaces(w, src pipeline.EventSource) pipeline.EventSource {
	m, metered := src.(pipeline.SourceMeter)
	r, restartable := src.(pipeline.RestartableSource)
	switch {
	case metered && restartable:
		return meteredRestartableSource{w, m, r}
	case metered:
		return meteredSource{w, m}
	case restartable:
		return restartableSource{w, r}
	}
	return w
}

// traceSource wraps src in a tracedSource that keeps its optional
// interfaces.
func (t *tracer) traceSource(stream int, src pipeline.EventSource) pipeline.EventSource {
	return keepSourceInterfaces(&tracedSource{inner: src, t: t, stream: stream}, src)
}

// tracedSystem times ProcessWindow and turns the system's StageTimer
// deltas into child spans laid end to end from the call's start; the part
// of the call no stage accounts for is core.glue.
type tracedSystem struct {
	inner  core.System
	timer  core.StageTimer
	t      *tracer
	stream int
}

func (s *tracedSystem) Name() string { return s.inner.Name() }

func (s *tracedSystem) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	st := &s.t.streams[s.stream]
	var before core.StageTimings
	if s.timer != nil {
		before = s.timer.StageTimings()
	}
	t0 := s.t.now()
	boxes, err := s.inner.ProcessWindow(evs)
	t1 := s.t.now()
	frame := st.frame - 1
	parent := int32(len(st.spans))
	st.spans = append(st.spans, span{name: lProcess, stream: int32(s.stream), frame: frame, parent: -1, start: t0, end: t1})
	if s.timer != nil {
		after := s.timer.StageTimings()
		at := t0
		child := func(l layer, d time.Duration) {
			st.spans = append(st.spans, span{name: l, stream: int32(s.stream), frame: frame, parent: parent, start: at, end: at + int64(d)})
			at += int64(d)
		}
		child(lAccumulate, after.EBBI-before.EBBI)
		child(lMedian, after.Filter-before.Filter)
		child(lPropose, after.RPN-before.RPN)
		child(lTrack, after.Track-before.Track)
		child(lGlue, time.Duration(max(t1-at, 0)))
	}
	return boxes, err
}

type timedSystem struct {
	*tracedSystem
}

func (s timedSystem) StageTimings() core.StageTimings { return s.timer.StageTimings() }

type batchingSystem struct {
	*tracedSystem
	b core.WindowBatcher
}

func (s batchingSystem) ProcessWindowBatch(wins [][]events.Event) ([][]geometry.Box, error) {
	return s.b.ProcessWindowBatch(wins)
}

type timedBatchingSystem struct {
	*tracedSystem
	b core.WindowBatcher
}

func (s timedBatchingSystem) StageTimings() core.StageTimings { return s.timer.StageTimings() }
func (s timedBatchingSystem) ProcessWindowBatch(wins [][]events.Event) ([][]geometry.Box, error) {
	return s.b.ProcessWindowBatch(wins)
}

// traceSystem wraps sys so that the wrapper implements exactly the
// optional interfaces sys does (core.StageTimer, core.WindowBatcher).
func (t *tracer) traceSystem(stream int, sys core.System) core.System {
	timer, timed := sys.(core.StageTimer)
	base := &tracedSystem{inner: sys, timer: timer, t: t, stream: stream}
	b, batching := sys.(core.WindowBatcher)
	switch {
	case timed && batching:
		return timedBatchingSystem{base, b}
	case timed:
		return timedSystem{base}
	case batching:
		return batchingSystem{base, b}
	}
	return base
}

// tracedSink times Consume on the Runner's sink goroutine and forwards
// Flush, so the Runner still flushes the store at the end of the run.
type tracedSink struct {
	inner interface {
		pipeline.Sink
		pipeline.Flusher
	}
	t *tracer
}

func (s tracedSink) Consume(snap pipeline.TrackSnapshot) error {
	t0 := s.t.now()
	err := s.inner.Consume(snap)
	s.t.sink = append(s.t.sink, span{name: lAppend, stream: int32(snap.Sensor), frame: int32(snap.Frame), parent: -1, start: t0, end: s.t.now()})
	return err
}

func (s tracedSink) Flush() error { return s.inner.Flush() }

// layerTotals sums span durations per layer over one or more passes.
type layerTotals struct {
	ns      [nLayers]int64
	windows int64 // cycle spans
	records int64 // append spans
}

func (lt *layerTotals) add(t *tracer) {
	fold := func(spans []span) {
		for _, s := range spans {
			lt.ns[s.name] += s.end - s.start
			switch s.name {
			case lCycle:
				lt.windows++
			case lAppend:
				lt.records++
			}
		}
	}
	for i := range t.streams {
		fold(t.streams[i].spans)
	}
	fold(t.sink)
}

// perWindowUS returns layer l's mean time per window in microseconds.
func (lt *layerTotals) perWindowUS(l layer) float64 {
	if lt.windows == 0 {
		return 0
	}
	return float64(lt.ns[l]) / float64(lt.windows) / 1e3
}

// write dumps the tracer's spans as JSON Lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	// Spans are numbered in file order; parent is that number, -1 for
	// none.
	type rec struct {
		ID      int    `json:"id"`
		Name    string `json:"name"`
		Stream  int32  `json:"stream"`
		Frame   int32  `json:"frame"`
		Parent  int    `json:"parent"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	id := 0
	emit := func(spans []span) error {
		base := id
		for _, s := range spans {
			name := layerNames[s.name]
			if s.name == lSource {
				name = t.source
			}
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			if err := enc.Encode(rec{id, name, s.stream, s.frame, parent, s.start, s.end}); err != nil {
				return err
			}
			id++
		}
		return nil
	}
	for i := range t.streams {
		if err := emit(t.streams[i].spans); err != nil {
			return err
		}
	}
	if err := emit(t.sink); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
