package pipeline

import (
	"fmt"
	"io"
	"sync"

	"ebbiot/internal/events"
)

// bufPool recycles window event buffers across streams and windows — the
// per-window slice allocation of the hand-rolled loops this package
// replaces.
var bufPool = sync.Pool{
	New: func() any {
		s := make([]events.Event, 0, 4096)
		return &s
	},
}

func getBuf() []events.Event {
	return (*(bufPool.Get().(*[]events.Event)))[:0]
}

func putBuf(buf []events.Event) {
	bufPool.Put(&buf)
}

// Windower slices an EventSource into the consecutive frame windows
// [k*tF, (k+1)*tF) that a core.System consumes — the single implementation
// of the windowing loop previously hand-rolled by every command, example and
// the evaluator. Event order belongs to the source (see EventSource); the
// Windower reads only each window's first and last event, which for a
// sorted source proves every event inside its window.
//
// The frame duration may be retuned between windows (SetFrameUS): windows
// stay contiguous — the next window starts where the previous one ended and
// runs for the new duration — which is how the control plane applies a live
// tF change at a window boundary.
type Windower struct {
	src     EventSource
	frameUS int64
	frame   int
	// nextStart is the start of the next window; windows are contiguous
	// even across SetFrameUS retunes, so it advances by the frame duration
	// in effect when each window was emitted.
	nextStart int64
	buf       []events.Event
	// eofPending is set when the source returned io.EOF alongside a final
	// batch; the batch's window is emitted first, then io.EOF.
	eofPending bool
	done       bool
}

// NewWindower returns a windower emitting frameUS-long windows from src.
// Call Close when done to recycle the window buffer.
func NewWindower(src EventSource, frameUS int64) (*Windower, error) {
	if src == nil {
		return nil, fmt.Errorf("pipeline: nil event source")
	}
	if frameUS <= 0 {
		return nil, fmt.Errorf("pipeline: frame duration must be positive, got %d", frameUS)
	}
	return &Windower{src: src, frameUS: frameUS, buf: getBuf()}, nil
}

// Next returns the next frame window. Empty windows between events are
// emitted — the frame clock never skips — but nothing is emitted past the
// source's final event. Returns io.EOF once the stream is exhausted.
//
// The returned Window's Events slice is owned by the Windower and valid
// only until the following Next call; this is safe for core.System
// consumers, which must not retain it.
func (w *Windower) Next() (events.Window, error) {
	if w.done {
		return events.Window{}, io.EOF
	}
	if w.eofPending {
		w.done = true
		return events.Window{}, io.EOF
	}
	start := w.nextStart
	end := start + w.frameUS
	w.buf = w.buf[:0]
	buf, err := w.src.NextWindow(w.buf, start, end)
	w.buf = buf
	if err != nil && err != io.EOF {
		w.done = true
		return events.Window{}, fmt.Errorf("window %d: %w", w.frame, err)
	}
	if n := len(buf); n > 0 {
		if buf[0].T < start {
			w.done = true
			return events.Window{}, fmt.Errorf("window %d event 0 at t=%d before the window start %d: %w",
				w.frame, buf[0].T, start, events.ErrUnsorted)
		}
		if buf[n-1].T >= end {
			w.done = true
			return events.Window{}, fmt.Errorf("window %d event %d at t=%d outside [%d,%d)",
				w.frame, n-1, buf[n-1].T, start, end)
		}
	}
	if err == io.EOF {
		if len(buf) == 0 {
			w.done = true
			return events.Window{}, io.EOF
		}
		w.eofPending = true
	}
	w.frame++
	w.nextStart = end
	return events.Window{Start: start, End: end, Events: buf}, nil
}

// Frame returns the index of the next window to be emitted.
func (w *Windower) Frame() int { return w.frame }

// FrameUS returns the current frame duration.
func (w *Windower) FrameUS() int64 { return w.frameUS }

// SetFrameUS retunes the frame duration, taking effect at the next window:
// it starts where the previous window ended and spans the new duration.
func (w *Windower) SetFrameUS(us int64) error {
	if us <= 0 {
		return fmt.Errorf("pipeline: frame duration must be positive, got %d", us)
	}
	w.frameUS = us
	return nil
}

// Close recycles the window buffer. The Windower (and any Window it
// returned) must not be used afterwards.
func (w *Windower) Close() {
	if w.buf != nil {
		putBuf(w.buf)
		w.buf = nil
	}
	w.done = true
}
