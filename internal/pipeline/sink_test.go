package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebbiot/internal/events"
)

// sinkStreams builds n streams of windows one-event windows each (frame
// 1000 µs, as supervisorEvents) over fresh fake systems.
func sinkStreams(t *testing.T, n, windows int) []Stream {
	t.Helper()
	streams := make([]Stream, n)
	for k := range streams {
		src, err := NewSliceSource(supervisorEvents(windows))
		if err != nil {
			t.Fatal(err)
		}
		streams[k] = Stream{Source: src, System: &fakeSystem{name: "fake"}}
	}
	return streams
}

// handoffSource checks, at every pull, that the sink has consumed each of
// its stream's earlier windows.
type handoffSource struct {
	t        *testing.T
	inner    EventSource
	consumed *atomic.Int64
	pulls    int64
}

func (h *handoffSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	if got := h.consumed.Load(); got != h.pulls {
		h.t.Errorf("window [%d,%d) pulled with %d of the stream's %d earlier snapshots consumed", start, end, got, h.pulls)
	}
	h.pulls++
	return h.inner.NextWindow(buf, start, end)
}

// TestSinkConsumesBeforeNextPull: a worker hands each snapshot to the sink
// before it pulls its stream's next window, even when the sink is slow.
func TestSinkConsumesBeforeNextPull(t *testing.T) {
	streams := sinkStreams(t, 4, 8)
	consumed := make([]atomic.Int64, len(streams))
	for k := range streams {
		streams[k].Source = &handoffSource{t: t, inner: streams[k].Source, consumed: &consumed[k]}
	}
	r, err := NewRunner(Config{FrameUS: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sink := SinkFunc(func(snap TrackSnapshot) error {
		time.Sleep(time.Millisecond)
		consumed[snap.Sensor].Add(1)
		return nil
	})
	if _, err := r.Run(context.Background(), streams, sink); err != nil {
		t.Fatal(err)
	}
	for k := range consumed {
		if got := consumed[k].Load(); got != 8 {
			t.Errorf("stream %d: sink consumed %d snapshots, want 8", k, got)
		}
	}
}

// TestSinkCallsNeverOverlap: with many workers, Consume is still called one
// at a time, and each stream's snapshots arrive in frame order.
func TestSinkCallsNeverOverlap(t *testing.T) {
	const workers, nStreams, windows = 8, 32, 16
	streams := sinkStreams(t, nStreams, windows)
	r, err := NewRunner(Config{FrameUS: 1000, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var inFlight atomic.Int32
	next := make([]int, nStreams) // written only inside Consume
	sink := SinkFunc(func(snap TrackSnapshot) error {
		if n := inFlight.Add(1); n != 1 {
			t.Errorf("%d Consume calls in flight", n)
		}
		defer inFlight.Add(-1)
		if snap.Frame != next[snap.Sensor] {
			t.Errorf("stream %d: frame %d consumed, want %d", snap.Sensor, snap.Frame, next[snap.Sensor])
		}
		next[snap.Sensor] = snap.Frame + 1
		runtime.Gosched() // give another worker the chance to enter
		return nil
	})
	stats, err := r.Run(context.Background(), streams, sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != workers {
		t.Fatalf("ran on %d workers, want %d", stats.Workers, workers)
	}
	for k, n := range next {
		if n != windows {
			t.Errorf("stream %d: %d snapshots consumed, want %d", k, n, windows)
		}
	}
}

// TestSinkErrorCancelsEveryStream: a sink error ends the run with that
// error, and it is the run's failure, not one stream's: every stream ends
// canceled.
func TestSinkErrorCancelsEveryStream(t *testing.T) {
	boom := errors.New("sink full")
	streams := sinkStreams(t, 4, 10)
	r, err := NewRunner(Config{FrameUS: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := r.Run(context.Background(), streams, SinkFunc(func(TrackSnapshot) error { return boom }))
	if !errors.Is(runErr, boom) {
		t.Fatalf("Run error = %v, want %v", runErr, boom)
	}
	for _, ss := range r.Status().Snapshot().PerStream {
		if ss.State != StreamCanceled.String() {
			t.Errorf("stream %s ended %s, want %s", ss.Name, ss.State, StreamCanceled)
		}
	}
}

// TestSinkLagCountsWaitingWorkers: while one worker is inside a blocked
// Consume, the other worker waits to hand over its snapshot, and sink_lag
// counts it.
func TestSinkLagCountsWaitingWorkers(t *testing.T) {
	streams := sinkStreams(t, 2, 10)
	r, err := NewRunner(Config{FrameUS: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sink := SinkFunc(func(TrackSnapshot) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(context.Background(), streams, sink)
		done <- err
	}()
	<-entered
	lag := -1
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if lag = r.Status().Snapshot().SinkLag; lag == 1 {
			break
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if lag != 1 {
		t.Fatalf("sink_lag = %d with one worker in Consume and one waiting, want 1", lag)
	}
	if got := r.Status().Snapshot().SinkLag; got != 0 {
		t.Fatalf("sink_lag = %d after the run, want 0", got)
	}
}

// runGoroutines returns the stacks of live goroutines that Runner.Run
// started.
func runGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by ebbiot/internal/pipeline.(*Runner).Run") {
			out = append(out, g)
		}
	}
	return out
}

// TestRunLeavesNoGoroutines: every goroutine Run starts (workers and the
// watchdog) has exited once it returns, whether the run succeeds, its sink
// fails or panics, or its context is canceled.
func TestRunLeavesNoGoroutines(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		ctx     context.Context
		sink    Sink
		wantErr bool
	}{
		{"clean", context.Background(), SinkFunc(func(TrackSnapshot) error { return nil }), false},
		{"sink error", context.Background(), SinkFunc(func(TrackSnapshot) error { return errors.New("sink full") }), true},
		{"sink panic", context.Background(), SinkFunc(func(TrackSnapshot) error { panic("boom: sink bug") }), true},
		{"canceled", canceled, nil, true},
	}
	for _, c := range cases {
		r, err := NewRunner(Config{FrameUS: 1000, Workers: 2, Watchdog: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(c.ctx, sinkStreams(t, 4, 10), c.sink); (err != nil) != c.wantErr {
			t.Errorf("%s: Run error = %v, want an error: %v", c.name, err, c.wantErr)
		}
		// A worker that has signalled its WaitGroup may still be
		// unwinding; one that is still alive after this is a leak.
		left := runGoroutines()
		for deadline := time.Now().Add(2 * time.Second); len(left) > 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			left = runGoroutines()
		}
		if len(left) > 0 {
			t.Errorf("%s: %d goroutine(s) started by Run outlive it:\n%s", c.name, len(left), strings.Join(left, "\n\n"))
		}
	}
}
