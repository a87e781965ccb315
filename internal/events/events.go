// Package events defines the address-event representation (AER) produced by
// neuromorphic vision sensors and utilities for manipulating event streams.
//
// Following the paper's notation, an event is the tuple e_i = (x_i, y_i,
// t_i, p_i): pixel coordinates on the sensor array, a microsecond timestamp,
// and a polarity that is +1 when the log-intensity at the pixel increased
// beyond threshold (ON event) and -1 when it decreased (OFF event).
package events

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Polarity is the sign of the intensity change that triggered an event.
type Polarity int8

// Polarity values. The paper uses p = 1 for ON and p = -1 for OFF.
const (
	Off Polarity = -1
	On  Polarity = 1
)

// String implements fmt.Stringer.
func (p Polarity) String() string {
	switch p {
	case On:
		return "ON"
	case Off:
		return "OFF"
	default:
		return fmt.Sprintf("Polarity(%d)", int8(p))
	}
}

// Valid reports whether p is one of the two defined polarities.
func (p Polarity) Valid() bool { return p == On || p == Off }

// Event is one address-event: pixel location, microsecond timestamp and
// polarity.
type Event struct {
	X, Y int16
	// T is the event timestamp in microseconds from the start of the
	// recording, the native resolution of DAVIS-class sensors.
	T int64
	P Polarity
}

// Time returns the timestamp as a duration from the recording start.
func (e Event) Time() time.Duration { return time.Duration(e.T) * time.Microsecond }

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("(%d,%d,%dus,%s)", e.X, e.Y, e.T, e.P)
}

// Resolution describes the sensor array dimensions. The paper's DAVIS has
// A = 240 columns and B = 180 rows.
type Resolution struct {
	// A is the number of columns (width, X extent).
	A int
	// B is the number of rows (height, Y extent).
	B int
}

// DAVIS240 is the resolution of the DAVIS sensor used in the paper.
var DAVIS240 = Resolution{A: 240, B: 180}

// Pixels returns the total pixel count A*B.
func (r Resolution) Pixels() int { return r.A * r.B }

// Contains reports whether (x, y) is a valid pixel address.
func (r Resolution) Contains(x, y int) bool {
	return x >= 0 && x < r.A && y >= 0 && y < r.B
}

// Validate returns an error if the resolution is not positive.
func (r Resolution) Validate() error {
	if r.A <= 0 || r.B <= 0 {
		return fmt.Errorf("events: invalid resolution %dx%d", r.A, r.B)
	}
	return nil
}

// ErrUnsorted is returned when an operation requires a time-sorted stream
// but the input is out of order.
var ErrUnsorted = errors.New("events: stream is not sorted by timestamp")

// Sorted reports whether the events are in non-decreasing timestamp order.
func Sorted(evs []Event) bool {
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			return false
		}
	}
	return true
}

// SortByTime sorts the events in place by timestamp. The sort is stable so
// that events sharing a timestamp keep their sensor readout order, which
// matters for reproducible filtering.
func SortByTime(evs []Event) {
	slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Compare(a.T, b.T) })
}

// Merge combines two time-sorted streams into one sorted stream. It returns
// ErrUnsorted if either input is unsorted. Ties are broken in favour of a,
// keeping merges deterministic.
func Merge(a, b []Event) ([]Event, error) {
	if !Sorted(a) || !Sorted(b) {
		return nil, ErrUnsorted
	}
	out := make([]Event, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].T <= b[j].T {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, nil
}

// Window is a half-open time interval [Start, End) holding the events that
// occurred within it, as delivered by one frame-period readout.
type Window struct {
	Start, End int64
	Events     []Event
}

// Duration returns the window length in microseconds.
func (w Window) Duration() int64 { return w.End - w.Start }

// Windows partitions a sorted stream into consecutive windows of frameUS
// microseconds, starting at the timestamp origin (t = 0). Empty trailing
// windows are not emitted, but empty windows between events are, so that the
// frame clock of the downstream pipeline never skips: the paper's
// interrupt-driven readout fires every tF regardless of scene activity.
func Windows(evs []Event, frameUS int64) ([]Window, error) {
	if frameUS <= 0 {
		return nil, fmt.Errorf("events: frame duration must be positive, got %d", frameUS)
	}
	if !Sorted(evs) {
		return nil, ErrUnsorted
	}
	if len(evs) == 0 {
		return nil, nil
	}
	last := evs[len(evs)-1].T
	n := int(last/frameUS) + 1
	out := make([]Window, 0, n)
	idx := 0
	for f := 0; f < n; f++ {
		start := int64(f) * frameUS
		end := start + frameUS
		lo := idx
		for idx < len(evs) && evs[idx].T < end {
			idx++
		}
		out = append(out, Window{Start: start, End: end, Events: evs[lo:idx]})
	}
	return out, nil
}
