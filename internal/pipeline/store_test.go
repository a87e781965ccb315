package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ebbiot/internal/store"
)

// runFleetWithStore mirrors runFleet but records every snapshot through a
// StoreSink (alongside the collecting callback) into dir.
func runFleetWithStore(t *testing.T, dir string, sensors, workers int) map[int][]TrackSnapshot {
	t.Helper()
	w, err := store.Open(dir, store.Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
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
	live := SinkFunc(func(snap TrackSnapshot) error {
		got[snap.Sensor] = append(got[snap.Sensor], snap)
		return nil
	})
	if _, err := r.Run(context.Background(), streams, MultiSink{live, NewStoreSink(w)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStoreRoundTrip is the acceptance property: a Runner run recorded
// through StoreSink and replayed via the store yields the same per-stream
// snapshot sequence as the live callback sink, for any worker count.
func TestStoreRoundTrip(t *testing.T) {
	const sensors = 5
	for _, workers := range []int{1, 2, 4} {
		dir := t.TempDir()
		live := runFleetWithStore(t, dir, sensors, workers)

		r, err := store.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		replayed := make(map[int][]TrackSnapshot)
		stats, err := ReplayStoreWith(context.Background(), r,
			SinkFunc(func(snap TrackSnapshot) error {
				replayed[snap.Sensor] = append(replayed[snap.Sensor], snap)
				return nil
			}), ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Streams != sensors {
			t.Fatalf("workers=%d: replay saw %d streams, want %d", workers, stats.Streams, sensors)
		}
		if !reflect.DeepEqual(replayed, live) {
			t.Fatalf("workers=%d: replayed per-stream snapshots differ from live run", workers)
		}
	}
}

// TestReplayStoreTimeAndSensorBounds re-queries a recorded run: a bounded
// replay must equal the live sequence filtered by window overlap.
func TestReplayStoreTimeAndSensorBounds(t *testing.T) {
	dir := t.TempDir()
	live := runFleetWithStore(t, dir, 3, 2)
	r, err := store.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	const t0, t1 = 500_000, 1_200_000
	var got []TrackSnapshot
	if _, err := ReplayStoreWith(context.Background(), r,
		SinkFunc(func(snap TrackSnapshot) error { got = append(got, snap); return nil }),
		ReplayOptions{Sensors: []int{2}, T0: t0, T1: t1}); err != nil {
		t.Fatal(err)
	}
	var want []TrackSnapshot
	for _, snap := range live[2] {
		if snap.StartUS < t1 && snap.EndUS > t0 {
			want = append(want, snap)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded replay: %d snapshots, want %d", len(got), len(want))
	}
}

// TestMultiRunStoreScopedQueries pins the run-selector contract: two runs
// recorded into one directory are independently queryable, and the
// selector-less forms (run 0 = "the sole run") fail fast with the typed
// sentinel instead of interleaving two frame clocks into one timeline.
func TestMultiRunStoreScopedQueries(t *testing.T) {
	dir := t.TempDir()
	first := runFleetWithStore(t, dir, 2, 1)
	second := runFleetWithStore(t, dir, 2, 1) // second run recorded into the same store
	r, err := store.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayStoreWith(context.Background(), r, nil, ReplayOptions{}); !errors.Is(err, store.ErrMultipleRuns) {
		t.Fatalf("ReplayStoreWith over a two-run store: %v, want ErrMultipleRuns", err)
	}
	if _, err := ReplayStoreWith(context.Background(), r, nil, ReplayOptions{Sensors: []int{1}}); !errors.Is(err, store.ErrMultipleRuns) {
		t.Fatalf("selector-less one-sensor replay over a two-run store: %v, want ErrMultipleRuns", err)
	}
	runs := r.Runs()
	if len(runs) != 2 {
		t.Fatalf("Runs() listed %d runs, want 2", len(runs))
	}
	for i, want := range []map[int][]TrackSnapshot{first, second} {
		var got []TrackSnapshot
		stats, err := ReplayStoreWith(context.Background(), r,
			SinkFunc(func(snap TrackSnapshot) error { got = append(got, snap); return nil }),
			ReplayOptions{Run: runs[i].ID, Sensors: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Windows != int64(len(want[1])) || !reflect.DeepEqual(got, want[1]) {
			t.Fatalf("run %d: one-sensor replay yielded %d snapshots, want %d", runs[i].ID, len(got), len(want[1]))
		}
		replayed := make(map[int][]TrackSnapshot)
		if _, err := ReplayStoreWith(context.Background(), r,
			SinkFunc(func(snap TrackSnapshot) error {
				replayed[snap.Sensor] = append(replayed[snap.Sensor], snap)
				return nil
			}), ReplayOptions{Run: runs[i].ID}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replayed, want) {
			t.Fatalf("run %d: replay differs from its live recording", runs[i].ID)
		}
	}
}

// flushFailSink consumes everything but fails at flush time — the shape of
// a full disk surfacing only when a buffer drains.
type flushFailSink struct{ err error }

func (f *flushFailSink) Consume(TrackSnapshot) error { return nil }
func (f *flushFailSink) Flush() error                { return f.err }

// TestRunnerSurfacesFlushErrors covers the sink error-path fix: deferred
// write errors from buffering sinks must fail the run, including when the
// sink is buried inside a MultiSink.
func TestRunnerSurfacesFlushErrors(t *testing.T) {
	boom := errors.New("disk full")
	for _, wrap := range []func(Sink) Sink{
		func(s Sink) Sink { return s },
		func(s Sink) Sink { return MultiSink{NewTraceSink(), s} },
	} {
		src, err := NewSliceSource(syntheticStream(0, 500_000))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{FrameUS: 66_000})
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Run(context.Background(),
			[]Stream{{Source: src, System: &fakeSystem{name: "s"}}}, wrap(&flushFailSink{err: boom}))
		if !errors.Is(err, boom) {
			t.Fatalf("Run error = %v, want flush error %v", err, boom)
		}
	}
}

// TestCSVSinkFlushErrorFailsRun exercises the real CSVSink against a
// writer that rejects everything: the header and rows sit in the bufio
// buffer, so before the fix the run "succeeded" and the output silently
// vanished at flush time.
func TestCSVSinkFlushErrorFailsRun(t *testing.T) {
	sink, err := NewCSVSink(failWriter{})
	if err != nil {
		t.Fatal(err) // header is buffered, construction must succeed
	}
	src, err := NewSliceSource(syntheticStream(0, 2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{FrameUS: 66_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(),
		[]Stream{{Source: src, System: &fakeSystem{name: "s"}}}, sink); err == nil {
		t.Fatal("run over a failing writer reported success")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("write refused") }

// TestReplayStatusMatchesLiveRun records a two-stream run and replays it
// unmonitored and monitored: either way the replay's totals are the live
// run's, a monitored replay's per-stream status matches the live Runner's
// field for field, and a monitored replay cancelled by its sink partway
// reports context.Canceled with every stream it saw canceled.
func TestReplayStatusMatchesLiveRun(t *testing.T) {
	dir := t.TempDir()
	sw, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]Stream, 2)
	for k := range streams {
		src, err := NewSliceSource(syntheticStream(k, 500_000))
		if err != nil {
			t.Fatal(err)
		}
		streams[k] = Stream{Source: src, System: &fakeSystem{name: "s"}}
	}
	r, err := NewRunner(Config{FrameUS: 66_000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	live, err := r.Run(context.Background(), streams, NewStoreSink(sw))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	liveStreams := make(map[int]StreamSnapshot)
	for _, ss := range r.Status().Snapshot().PerStream {
		liveStreams[ss.Sensor] = ss
	}
	rd, err := store.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameTotals := func(label string, got Stats) {
		t.Helper()
		if got.Streams != live.Streams || got.Windows != live.Windows ||
			got.Events != live.Events || got.Boxes != live.Boxes {
			t.Errorf("%s replay totals (%d streams, %d windows, %d events, %d boxes), live (%d, %d, %d, %d)",
				label, got.Streams, got.Windows, got.Events, got.Boxes,
				live.Streams, live.Windows, live.Events, live.Boxes)
		}
	}

	records := 0
	count := SinkFunc(func(TrackSnapshot) error { records++; return nil })
	stats, err := ReplayStoreWith(context.Background(), rd, count, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameTotals("unmonitored", stats)
	if int64(records) != live.Windows {
		t.Errorf("unmonitored replay delivered %d records, want %d", records, live.Windows)
	}

	status := NewRunStatus(1)
	stats, err = ReplayStoreWith(context.Background(), rd, count, ReplayOptions{Status: status})
	if err != nil {
		t.Fatal(err)
	}
	sameTotals("monitored", stats)
	snap := status.Snapshot()
	if snap.Running || len(snap.PerStream) != len(liveStreams) {
		t.Fatalf("monitored replay status: running %v, %d streams, want done with %d",
			snap.Running, len(snap.PerStream), len(liveStreams))
	}
	for _, got := range snap.PerStream {
		want, ok := liveStreams[got.Sensor]
		if !ok {
			t.Fatalf("replay status has sensor %d, the live run did not", got.Sensor)
		}
		if got.State != "done" {
			t.Errorf("replay stream %d state %q, want done", got.Sensor, got.State)
		}
		type fields struct {
			Windows, Events, Boxes, ProcUS, LastFrame, LastEndUS, LastEvents, LastBoxes, FrameUS int64
		}
		g := fields{got.Windows, got.Events, got.Boxes, got.ProcUS, got.LastFrame, got.LastEndUS, got.LastEvents, got.LastBoxes, got.FrameUS}
		w := fields{want.Windows, want.Events, want.Boxes, want.ProcUS, want.LastFrame, want.LastEndUS, want.LastEvents, want.LastBoxes, want.FrameUS}
		if g != w {
			t.Errorf("replay stream %d status %+v, live %+v", got.Sensor, g, w)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := make(map[int]bool)
	stopper := SinkFunc(func(s TrackSnapshot) error {
		seen[s.Sensor] = true
		if len(seen) == len(liveStreams) {
			cancel()
		}
		return nil
	})
	status = NewRunStatus(1)
	stats, err = ReplayStoreWith(ctx, rd, stopper, ReplayOptions{Status: status})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("replay cancelled by its sink returned %v, want context.Canceled", err)
	}
	if stats.Windows >= live.Windows {
		t.Fatalf("cancelled replay delivered all %d windows", stats.Windows)
	}
	snap = status.Snapshot()
	if snap.Running || len(snap.PerStream) != len(seen) {
		t.Fatalf("cancelled replay status: running %v, %d streams, sink saw %d",
			snap.Running, len(snap.PerStream), len(seen))
	}
	for _, ss := range snap.PerStream {
		if ss.State != "canceled" {
			t.Errorf("cancelled replay stream %d state %q, want canceled", ss.Sensor, ss.State)
		}
	}
}
