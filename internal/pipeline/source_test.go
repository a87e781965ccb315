package pipeline

import (
	"io"
	"math/rand"
	"reflect"
	"testing"

	"ebbiot/internal/events"
)

// perEventCut is the window cut SliceSource.NextWindow used before it
// searched: append events one at a time while they fall before end. It is
// the oracle for the search and single copy.
type perEventCut struct {
	evs []events.Event
	pos int
}

func (s *perEventCut) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	for s.pos < len(s.evs) && s.evs[s.pos].T < end {
		buf = append(buf, s.evs[s.pos])
		s.pos++
	}
	if s.pos == len(s.evs) {
		return buf, io.EOF
	}
	return buf, nil
}

// atTimes returns one event at each time, in order.
func atTimes(ts ...int64) []events.Event {
	evs := make([]events.Event, len(ts))
	for i, t := range ts {
		evs[i] = ev(i%240, i%180, t)
	}
	return evs
}

// checkCutsMatch asks SliceSource and the per-event oracle for the same
// windows, ending at each of ends in turn, and requires the same events
// and error from both. Every call appends to a buffer that already holds
// one event, which must stay in front.
func checkCutsMatch(t *testing.T, name string, evs []events.Event, ends []int64) {
	t.Helper()
	got, err := NewSliceSource(evs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := &perEventCut{evs: evs}
	prefix := []events.Event{ev(0, 0, -1)}
	start := int64(0)
	for i, end := range ends {
		gotBuf, gotErr := got.NextWindow(append([]events.Event(nil), prefix...), start, end)
		wantBuf, wantErr := want.NextWindow(append([]events.Event(nil), prefix...), start, end)
		if gotErr != wantErr {
			t.Fatalf("%s: window %d [%d,%d): error %v, want %v", name, i, start, end, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotBuf, wantBuf) {
			t.Fatalf("%s: window %d [%d,%d): events %v, want %v", name, i, start, end, gotBuf, wantBuf)
		}
		start = end
	}
}

func TestSliceSourceMatchesPerEventCut(t *testing.T) {
	cases := []struct {
		name string
		evs  []events.Event
		ends []int64
	}{
		{"empty source: the final window is empty, with io.EOF", nil, []int64{10, 20}},
		{"ties at end go to the next window", atTimes(0, 5, 10, 10, 10, 15, 20, 20), []int64{10, 20, 30}},
		{"every event tied", atTimes(7, 7, 7, 7), []int64{7, 8}},
		{"empty windows between events", atTimes(1, 2, 95), []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}},
		{"final window with events, with io.EOF", atTimes(1, 12, 13), []int64{10, 20}},
		{"end past the last event", atTimes(1, 2, 3), []int64{1_000_000}},
		{"calls after io.EOF", atTimes(1), []int64{10, 20, 30}},
		{"first event at end of the first window", atTimes(10, 11), []int64{10, 20}},
	}
	for _, c := range cases {
		checkCutsMatch(t, c.name, c.evs, c.ends)
	}

	// Random sorted streams with runs of equal times, cut at random window
	// lengths, some of them empty and some ending on an event's time.
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		ts := make([]int64, rng.Intn(60))
		var t0 int64
		for i := range ts {
			if rng.Intn(3) > 0 {
				t0 += int64(rng.Intn(20))
			}
			ts[i] = t0
		}
		var ends []int64
		for end := int64(0); end <= t0+40; {
			end += int64(1 + rng.Intn(25))
			ends = append(ends, end)
		}
		checkCutsMatch(t, "random", atTimes(ts...), ends)
	}
}
