package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ebbiot/internal/geometry"
	"ebbiot/internal/trace"
)

// Sink consumes the TrackSnapshots of every stream in a run. Runner calls
// Consume on the worker that made each snapshot, but never two calls at
// once, so implementations need no locking; each stream's snapshots arrive
// in frame order, and are safe to retain (boxes are deep-copied by the
// worker). A slow Consume blocks the workers waiting to call it, and an
// error from it cancels the run.
type Sink interface {
	Consume(snap TrackSnapshot) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(snap TrackSnapshot) error

// Consume implements Sink.
func (f SinkFunc) Consume(snap TrackSnapshot) error { return f(snap) }

// Flusher is implemented by sinks that buffer output (CSVSink, JSONSink,
// StoreSink). Runner.Run and ReplayStoreWith flush the sink once the
// snapshot stream ends and propagate the error, so deferred write failures
// — a full disk surfacing only when the buffer drains — fail the run
// instead of being dropped on the floor.
type Flusher interface {
	Flush() error
}

// flushSink flushes s if it buffers, descending into MultiSink so every
// member gets flushed; the first error wins but remaining members are
// still attempted (a CSV flush failure must not leave the store sink
// unflushed).
func flushSink(s Sink) error {
	switch v := s.(type) {
	case nil:
		return nil
	case MultiSink:
		var firstErr error
		for _, m := range v {
			if err := flushSink(m); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	case Flusher:
		return v.Flush()
	default:
		return nil
	}
}

// MultiSink fans each snapshot out to several sinks in order, stopping at
// the first error.
type MultiSink []Sink

// Consume implements Sink.
func (m MultiSink) Consume(snap TrackSnapshot) error {
	for _, s := range m {
		if s == nil {
			continue
		}
		if err := s.Consume(snap); err != nil {
			return err
		}
	}
	return nil
}

// CSVHeader is the row format emitted by CSVSink: one row per reported box.
const CSVHeader = "sensor,frame,end_us,box_x,box_y,box_w,box_h"

// CSVSink writes one CSV row per reported track box. Flush must be called
// after the run to drain the write buffer.
type CSVSink struct {
	bw *bufio.Writer
}

// NewCSVSink writes the header and returns the sink.
func NewCSVSink(w io.Writer) (*CSVSink, error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, CSVHeader); err != nil {
		return nil, fmt.Errorf("pipeline: csv header: %w", err)
	}
	return &CSVSink{bw: bw}, nil
}

// Consume implements Sink.
func (c *CSVSink) Consume(snap TrackSnapshot) error {
	for _, b := range snap.Boxes {
		if _, err := fmt.Fprintf(c.bw, "%d,%d,%d,%d,%d,%d,%d\n",
			snap.Sensor, snap.Frame, snap.EndUS, b.X, b.Y, b.W, b.H); err != nil {
			return fmt.Errorf("pipeline: csv row: %w", err)
		}
	}
	return nil
}

// Flush drains the write buffer.
func (c *CSVSink) Flush() error {
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("pipeline: csv flush: %w", err)
	}
	return nil
}

// JSONSink writes one JSON object per snapshot (JSON Lines), including
// windows that reported no boxes.
type JSONSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONSink returns the sink.
func NewJSONSink(w io.Writer) *JSONSink {
	bw := bufio.NewWriter(w)
	return &JSONSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Consume implements Sink. A window with no boxes prints "boxes":[], the
// same shape as every other window, whether its list is nil or empty.
func (j *JSONSink) Consume(snap TrackSnapshot) error {
	if snap.Boxes == nil {
		snap.Boxes = []geometry.Box{}
	}
	if err := j.enc.Encode(snap); err != nil {
		return fmt.Errorf("pipeline: json encode: %w", err)
	}
	return nil
}

// Flush drains the write buffer.
func (j *JSONSink) Flush() error {
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("pipeline: json flush: %w", err)
	}
	return nil
}

// TraceSink records one trace.FrameStat per window into a per-sensor
// trace.Collector, bridging the runtime to the paper's resource-model
// statistics (NT, per-frame event rates).
type TraceSink struct {
	collectors map[int]*trace.Collector
}

// NewTraceSink returns an empty sink.
func NewTraceSink() *TraceSink {
	return &TraceSink{collectors: make(map[int]*trace.Collector)}
}

// Consume implements Sink.
func (t *TraceSink) Consume(snap TrackSnapshot) error {
	c := t.collectors[snap.Sensor]
	if c == nil {
		c = &trace.Collector{}
		t.collectors[snap.Sensor] = c
	}
	c.Record(trace.FrameStat{
		Frame:    snap.Frame,
		EndUS:    snap.EndUS,
		Events:   snap.Events,
		Reported: len(snap.Boxes),
	})
	return nil
}

// Collector returns the collector for one sensor (nil if it produced no
// snapshots).
func (t *TraceSink) Collector(sensor int) *trace.Collector { return t.collectors[sensor] }

// Sensors returns the sensor indices seen, sorted.
func (t *TraceSink) Sensors() []int {
	out := make([]int, 0, len(t.collectors))
	for s := range t.collectors {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
