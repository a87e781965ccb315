package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"ebbiot/internal/aedat"
	"ebbiot/internal/core"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
)

// fakeSystem is a cheap deterministic core.System: each window reports one
// box encoding the window's event count and the running window index. With
// failAfter > 0 it errors once that many windows have been processed.
type fakeSystem struct {
	name      string
	windows   int
	err       error
	failAfter int
}

func (f *fakeSystem) Name() string { return f.name }

func (f *fakeSystem) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	if f.err != nil && f.failAfter <= 0 {
		return nil, f.err
	}
	if f.err != nil && f.windows >= f.failAfter {
		return nil, f.err
	}
	f.windows++
	if len(evs) == 0 {
		return nil, nil
	}
	return []geometry.Box{geometry.NewBox(len(evs), f.windows, 1, 1)}, nil
}

func ev(x, y int, t int64) events.Event {
	return events.Event{X: int16(x), Y: int16(y), T: t, P: events.On}
}

// ---------------------------------------------------------------------------
// Windower
// ---------------------------------------------------------------------------

func collectWindows(t *testing.T, src EventSource, frameUS int64) []events.Window {
	t.Helper()
	w, err := NewWindower(src, frameUS)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var out []events.Window
	for {
		win, err := w.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		// The window's events alias the windower's buffer; copy for
		// inspection after the next call.
		win.Events = append([]events.Event(nil), win.Events...)
		out = append(out, win)
	}
}

func TestWindowerSlicesLikeEventsWindows(t *testing.T) {
	evs := []events.Event{ev(1, 1, 10), ev(2, 2, 65_999), ev(3, 3, 66_000), ev(4, 4, 200_000)}
	src, err := NewSliceSource(evs)
	if err != nil {
		t.Fatal(err)
	}
	got := collectWindows(t, src, 66_000)
	want, err := events.Windows(evs, 66_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Start != want[i].Start || got[i].End != want[i].End {
			t.Errorf("window %d bounds [%d,%d), want [%d,%d)", i, got[i].Start, got[i].End, want[i].Start, want[i].End)
		}
		if len(got[i].Events) != len(want[i].Events) ||
			(len(want[i].Events) > 0 && !reflect.DeepEqual(got[i].Events, want[i].Events)) {
			t.Errorf("window %d events %v, want %v", i, got[i].Events, want[i].Events)
		}
	}
}

func TestWindowerEdgeEventGoesToNextWindow(t *testing.T) {
	// An event exactly on the boundary belongs to the next half-open window.
	src, err := NewSliceSource([]events.Event{ev(0, 0, 0), ev(1, 1, 66_000)})
	if err != nil {
		t.Fatal(err)
	}
	ws := collectWindows(t, src, 66_000)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if n := len(ws[0].Events); n != 1 {
		t.Errorf("window 0 has %d events, want 1", n)
	}
	if n := len(ws[1].Events); n != 1 || ws[1].Events[0].T != 66_000 {
		t.Errorf("window 1 events %v, want the t=66000 event", ws[1].Events)
	}
}

func TestWindowerEmitsEmptyGapWindows(t *testing.T) {
	// Events in windows 0 and 3: windows 1 and 2 are emitted empty (the
	// frame clock never skips), and nothing is emitted past the last event.
	src, err := NewSliceSource([]events.Event{ev(0, 0, 5), ev(1, 1, 3*66_000+5)})
	if err != nil {
		t.Fatal(err)
	}
	ws := collectWindows(t, src, 66_000)
	if len(ws) != 4 {
		t.Fatalf("got %d windows, want 4", len(ws))
	}
	for i, n := range []int{1, 0, 0, 1} {
		if len(ws[i].Events) != n {
			t.Errorf("window %d has %d events, want %d", i, len(ws[i].Events), n)
		}
	}
}

func TestWindowerEmptyStream(t *testing.T) {
	src, err := NewSliceSource(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws := collectWindows(t, src, 66_000); len(ws) != 0 {
		t.Fatalf("got %d windows from an empty stream, want 0", len(ws))
	}
}

// recordedSource replays scripted batches, exercising source-bug paths the
// well-behaved adapters never take.
type recordedSource struct {
	batches [][]events.Event
	i       int
}

func (r *recordedSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	if r.i >= len(r.batches) {
		return buf, io.EOF
	}
	buf = append(buf, r.batches[r.i]...)
	r.i++
	if r.i == len(r.batches) {
		return buf, io.EOF
	}
	return buf, nil
}

func TestWindowerRejectsOutOfOrder(t *testing.T) {
	// Unsorted slices are rejected at source construction...
	if _, err := NewSliceSource([]events.Event{ev(0, 0, 50), ev(0, 0, 10)}); !errors.Is(err, events.ErrUnsorted) {
		t.Fatalf("NewSliceSource error = %v, want ErrUnsorted", err)
	}
	// ...and a source whose timestamps regress across windows is rejected
	// by the windower's first-event check: window 1 opens at t=50000,
	// before its start at 66000.
	src := &recordedSource{batches: [][]events.Event{
		{ev(0, 0, 60_000)},
		{ev(0, 0, 50_000), ev(0, 0, 66_001)},
	}}
	w, err := NewWindower(src, 66_000)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Next(); !errors.Is(err, events.ErrUnsorted) {
		t.Fatalf("Next error = %v, want ErrUnsorted", err)
	}
}

func TestWindowerRejectsEventOutsideWindow(t *testing.T) {
	// t=66000 is the first instant past the half-open window [0, 66000).
	src := &recordedSource{batches: [][]events.Event{{ev(0, 0, 10), ev(0, 0, 66_000)}, nil}}
	w, err := NewWindower(src, 66_000)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Next(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("Next error = %v, want outside-window rejection", err)
	}
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

func TestAEDATSourceMatchesSliceSource(t *testing.T) {
	evs := []events.Event{ev(3, 4, 100), ev(5, 6, 70_000), ev(7, 8, 70_001), ev(9, 10, 250_000)}
	var buf bytes.Buffer
	if err := aedat.Write(&buf, events.DAVIS240, evs); err != nil {
		t.Fatal(err)
	}
	r, err := aedat.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := collectWindows(t, NewAEDATSource(r), 66_000)
	slice, err := NewSliceSource(evs)
	if err != nil {
		t.Fatal(err)
	}
	want := collectWindows(t, slice, 66_000)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AEDAT windows %v, want %v", got, want)
	}
}

func TestSceneSourceMatchesManualLoop(t *testing.T) {
	const frameUS = 66_000
	sc := scene.SingleObjectScene(events.DAVIS240, 500_000)
	mk := func() *sensor.Simulator {
		sim, err := sensor.New(sensor.DefaultConfig(7), sc)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	// Manual loop, as the seed code wrote it.
	var want [][]events.Event
	sim := mk()
	for cursor := int64(0); cursor+frameUS <= sc.DurationUS; cursor += frameUS {
		evs, err := sim.Events(cursor, cursor+frameUS)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, evs)
	}
	src, err := NewSceneSource(mk(), sc.DurationUS)
	if err != nil {
		t.Fatal(err)
	}
	got := collectWindows(t, src, frameUS)
	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		if w == nil {
			w = []events.Event{}
		}
		g := got[i].Events
		if g == nil {
			g = []events.Event{}
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("window %d: %d events, want %d", i, len(g), len(w))
		}
	}
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

// syntheticStream builds a deterministic per-sensor event stream: sensor k
// gets one event per millisecond with coordinates derived from k.
func syntheticStream(k int, durationUS int64) []events.Event {
	var out []events.Event
	for t := int64(0); t < durationUS; t += 1000 {
		out = append(out, ev((k*13+int(t/1000))%240, (k*7)%180, t))
	}
	return out
}

func runFleet(t *testing.T, sensors, workers int) map[int][]TrackSnapshot {
	t.Helper()
	streams := make([]Stream, sensors)
	for k := 0; k < sensors; k++ {
		src, err := NewSliceSource(syntheticStream(k, 2_000_000))
		if err != nil {
			t.Fatal(err)
		}
		streams[k] = Stream{Source: src, System: &fakeSystem{name: fmt.Sprintf("fake%d", k)}}
	}
	r, err := NewRunner(Config{FrameUS: 66_000, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int][]TrackSnapshot)
	sink := SinkFunc(func(snap TrackSnapshot) error {
		got[snap.Sensor] = append(got[snap.Sensor], snap)
		return nil
	})
	stats, err := r.Run(context.Background(), streams, sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Streams != sensors {
		t.Fatalf("stats.Streams = %d, want %d", stats.Streams, sensors)
	}
	wantWindows := int64(sensors) * 31 // 2s / 66ms, last partial window emitted with final events
	if stats.Windows != wantWindows {
		t.Fatalf("stats.Windows = %d, want %d", stats.Windows, wantWindows)
	}
	return got
}

// normalize strips the wall-clock field so runs are comparable.
func normalize(m map[int][]TrackSnapshot) map[int][]TrackSnapshot {
	for _, snaps := range m {
		for i := range snaps {
			snaps[i].ProcUS = 0
		}
	}
	return m
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	const sensors = 6
	want := normalize(runFleet(t, sensors, 1))
	for _, workers := range []int{2, 4, 0} {
		got := normalize(runFleet(t, sensors, workers))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: per-sensor snapshots differ from workers=1", workers)
		}
	}
	// Per-sensor snapshots arrive in frame order.
	for sensorID, snaps := range want {
		for i, snap := range snaps {
			if snap.Frame != i {
				t.Fatalf("sensor %d snapshot %d has frame %d", sensorID, i, snap.Frame)
			}
		}
	}
}

func TestRunnerPropagatesSystemError(t *testing.T) {
	boom := errors.New("boom")
	src, err := NewSliceSource(syntheticStream(0, 500_000))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{FrameUS: 66_000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background(), []Stream{{Source: src, System: &fakeSystem{name: "bad", err: boom}}}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
}

func TestRunnerPropagatesSinkError(t *testing.T) {
	boom := errors.New("sink full")
	streams := make([]Stream, 4)
	for k := range streams {
		src, err := NewSliceSource(syntheticStream(k, 2_000_000))
		if err != nil {
			t.Fatal(err)
		}
		streams[k] = Stream{Source: src, System: &fakeSystem{name: "s"}}
	}
	r, err := NewRunner(Config{FrameUS: 66_000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	sink := SinkFunc(func(TrackSnapshot) error {
		n++
		if n > 3 {
			return boom
		}
		return nil
	})
	if _, err := r.Run(context.Background(), streams, sink); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
}

func TestRunnerHonoursContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src, err := NewSliceSource(syntheticStream(0, 500_000))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{FrameUS: 66_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, []Stream{{Source: src, System: &fakeSystem{name: "s"}}}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
}

func TestRunnerSnapshotsSafeToRetain(t *testing.T) {
	// Snapshots collected during the run must stay intact afterwards even
	// though the worker recycles its window buffer — the deep-copy contract.
	var first []TrackSnapshot
	m := runFleet(t, 1, 1)
	first = append(first, m[0]...)
	again := runFleet(t, 1, 1)[0]
	if !reflect.DeepEqual(normalize(map[int][]TrackSnapshot{0: first})[0], normalize(map[int][]TrackSnapshot{0: again})[0]) {
		t.Fatal("retained snapshots changed between identical runs")
	}
}

// ---------------------------------------------------------------------------
// Real-system end-to-end: EBBIOT over a synthetic scene through the Runner
// equals the seed-style manual loop.
// ---------------------------------------------------------------------------

func TestRunnerMatchesManualLoopEBBIOT(t *testing.T) {
	const frameUS = 66_000
	sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)

	manual := func() [][]geometry.Box {
		sim, err := sensor.New(sensor.DefaultConfig(42), sc)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewEBBIOT(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var out [][]geometry.Box
		for cursor := int64(0); cursor+frameUS <= sc.DurationUS; cursor += frameUS {
			evs, err := sim.Events(cursor, cursor+frameUS)
			if err != nil {
				t.Fatal(err)
			}
			boxes, err := sys.ProcessWindow(evs)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, boxes)
		}
		return out
	}()

	sim, err := sensor.New(sensor.DefaultConfig(42), sc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewEBBIOT(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSceneSource(sim, sc.DurationUS)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{FrameUS: frameUS})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]geometry.Box
	sink := SinkFunc(func(snap TrackSnapshot) error {
		got = append(got, snap.Boxes)
		return nil
	})
	if _, err := r.Run(context.Background(), []Stream{{Source: src, System: sys}}, sink); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(manual) {
		t.Fatalf("runner produced %d windows, manual loop %d", len(got), len(manual))
	}
	for i := range manual {
		w := manual[i]
		if len(w) == 0 && len(got[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got[i], w) {
			t.Fatalf("window %d: runner boxes %v, manual %v", i, got[i], w)
		}
	}
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

func TestCSVAndJSONAndTraceSinks(t *testing.T) {
	snap := TrackSnapshot{
		Sensor: 2, Name: "s2", Frame: 7, StartUS: 462_000, EndUS: 528_000,
		Events: 123, Boxes: []geometry.Box{geometry.NewBox(10, 20, 30, 16)},
	}
	var csvBuf bytes.Buffer
	cs, err := NewCSVSink(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Consume(snap); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	wantCSV := CSVHeader + "\n2,7,528000,10,20,30,16\n"
	if csvBuf.String() != wantCSV {
		t.Errorf("CSV output %q, want %q", csvBuf.String(), wantCSV)
	}

	// A window that reported no track carries nil boxes (the Runner's deep
	// copy of an empty list); JSON Lines prints it as an empty array.
	empty := TrackSnapshot{Sensor: 2, Name: "s2", Frame: 8, StartUS: 528_000, EndUS: 594_000, Events: 5}
	var jsonBuf bytes.Buffer
	js := NewJSONSink(&jsonBuf)
	for _, s := range []TrackSnapshot{snap, empty} {
		if err := js.Consume(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"sensor":2,"name":"s2","frame":7,"start_us":462000,"end_us":528000,"events":123,"proc_us":0,"boxes":[{"X":10,"Y":20,"W":30,"H":16}]}` + "\n" +
		`{"sensor":2,"name":"s2","frame":8,"start_us":528000,"end_us":594000,"events":5,"proc_us":0,"boxes":[]}` + "\n"
	if jsonBuf.String() != wantJSON {
		t.Errorf("JSON output %q, want %q", jsonBuf.String(), wantJSON)
	}

	ts := NewTraceSink()
	if err := ts.Consume(snap); err != nil {
		t.Fatal(err)
	}
	if got := ts.Sensors(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("TraceSink sensors %v, want [2]", got)
	}
	col := ts.Collector(2)
	if col == nil || col.Len() != 1 {
		t.Fatalf("TraceSink collector missing the recorded frame")
	}
	if fs := col.Stats()[0]; fs.Events != 123 || fs.Reported != 1 || fs.EndUS != 528_000 {
		t.Errorf("recorded FrameStat %+v", fs)
	}

	var multiCount int
	multi := MultiSink{ts, SinkFunc(func(TrackSnapshot) error { multiCount++; return nil })}
	if err := multi.Consume(snap); err != nil {
		t.Fatal(err)
	}
	if multiCount != 1 || ts.Collector(2).Len() != 2 {
		t.Errorf("MultiSink did not fan out: count=%d, trace frames=%d", multiCount, ts.Collector(2).Len())
	}
}
