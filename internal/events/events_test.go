package events

import (
	"testing"
	"testing/quick"
	"time"
)

func ev(x, y int, t int64, p Polarity) Event {
	return Event{X: int16(x), Y: int16(y), T: t, P: p}
}

func TestPolarity(t *testing.T) {
	if On.String() != "ON" || Off.String() != "OFF" {
		t.Errorf("polarity strings wrong: %s %s", On, Off)
	}
	if !On.Valid() || !Off.Valid() {
		t.Error("On/Off should be valid")
	}
	if Polarity(0).Valid() || Polarity(2).Valid() {
		t.Error("0 and 2 should be invalid polarities")
	}
}

func TestEventTime(t *testing.T) {
	e := ev(0, 0, 1500, On)
	if e.Time() != 1500*time.Microsecond {
		t.Errorf("Time() = %v", e.Time())
	}
}

func TestResolution(t *testing.T) {
	if DAVIS240.Pixels() != 43200 {
		t.Errorf("DAVIS240 pixels = %d, want 43200", DAVIS240.Pixels())
	}
	if !DAVIS240.Contains(0, 0) || !DAVIS240.Contains(239, 179) {
		t.Error("corner pixels should be contained")
	}
	if DAVIS240.Contains(240, 0) || DAVIS240.Contains(0, 180) || DAVIS240.Contains(-1, 5) {
		t.Error("out of range pixels should not be contained")
	}
	if err := DAVIS240.Validate(); err != nil {
		t.Errorf("DAVIS240 should validate: %v", err)
	}
	if err := (Resolution{0, 10}).Validate(); err == nil {
		t.Error("zero-width resolution should not validate")
	}
}

func TestSortedAndSort(t *testing.T) {
	evs := []Event{ev(0, 0, 30, On), ev(1, 1, 10, Off), ev(2, 2, 20, On)}
	if Sorted(evs) {
		t.Error("stream should be detected as unsorted")
	}
	SortByTime(evs)
	if !Sorted(evs) {
		t.Error("stream should be sorted after SortByTime")
	}
	if evs[0].T != 10 || evs[2].T != 30 {
		t.Errorf("unexpected order: %v", evs)
	}
}

func TestSortStability(t *testing.T) {
	evs := []Event{ev(1, 0, 10, On), ev(2, 0, 10, Off), ev(3, 0, 10, On)}
	SortByTime(evs)
	if evs[0].X != 1 || evs[1].X != 2 || evs[2].X != 3 {
		t.Errorf("equal-timestamp events reordered: %v", evs)
	}
}

func TestMerge(t *testing.T) {
	a := []Event{ev(0, 0, 10, On), ev(0, 0, 30, On)}
	b := []Event{ev(1, 1, 20, Off), ev(1, 1, 40, Off)}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 20, 30, 40}
	for i, w := range want {
		if m[i].T != w {
			t.Errorf("merged[%d].T = %d, want %d", i, m[i].T, w)
		}
	}
	if _, err := Merge([]Event{ev(0, 0, 5, On), ev(0, 0, 1, On)}, nil); err != ErrUnsorted {
		t.Errorf("unsorted merge should fail, got %v", err)
	}
}

func TestMergeTieBreak(t *testing.T) {
	a := []Event{ev(1, 0, 10, On)}
	b := []Event{ev(2, 0, 10, Off)}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].X != 1 {
		t.Error("ties must favour the first stream")
	}
}

func TestWindows(t *testing.T) {
	evs := []Event{
		ev(0, 0, 0, On),
		ev(0, 0, 50, On),
		ev(0, 0, 100, On),
		ev(0, 0, 310, On), // two empty windows before this one
	}
	ws, err := Windows(evs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("got %d windows, want 4", len(ws))
	}
	counts := []int{2, 1, 0, 1}
	for i, w := range ws {
		if len(w.Events) != counts[i] {
			t.Errorf("window %d has %d events, want %d", i, len(w.Events), counts[i])
		}
		if w.Start != int64(i)*100 || w.End != int64(i+1)*100 {
			t.Errorf("window %d bounds [%d,%d)", i, w.Start, w.End)
		}
		if w.Duration() != 100 {
			t.Errorf("window %d duration %d", i, w.Duration())
		}
	}
}

func TestWindowsErrors(t *testing.T) {
	if _, err := Windows(nil, 0); err == nil {
		t.Error("zero frame duration should error")
	}
	if _, err := Windows([]Event{ev(0, 0, 10, On), ev(0, 0, 5, On)}, 100); err != ErrUnsorted {
		t.Errorf("unsorted input should return ErrUnsorted, got %v", err)
	}
	ws, err := Windows(nil, 100)
	if err != nil || ws != nil {
		t.Errorf("empty stream: ws=%v err=%v", ws, err)
	}
}

func TestWindowsPartitionProperty(t *testing.T) {
	// Every event lands in exactly one window and windows tile the timeline.
	prop := func(raw []uint16) bool {
		evs := make([]Event, len(raw))
		for i, r := range raw {
			evs[i] = ev(int(r%240), int(r/240%180), int64(r), On)
		}
		SortByTime(evs)
		ws, err := Windows(evs, 66000)
		if err != nil {
			return false
		}
		total := 0
		for i, w := range ws {
			total += len(w.Events)
			if i > 0 && w.Start != ws[i-1].End {
				return false
			}
			for _, e := range w.Events {
				if e.T < w.Start || e.T >= w.End {
					return false
				}
			}
		}
		return total == len(evs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
