package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ebbiot/internal/core"
	"ebbiot/internal/events"
)

// supervisorEvents builds n windows' worth of events, one event per 1000 µs
// frame, so window counts map directly to delivered snapshots.
func supervisorEvents(n int) []events.Event {
	evs := make([]events.Event, n)
	for i := range evs {
		evs[i] = ev(1+i%10, 1, int64(i)*1000+10)
	}
	return evs
}

// panickySource panics on its nth NextWindow call — a stand-in for a bug
// anywhere in the stream's pull chain.
type panickySource struct {
	inner   *SliceSource
	panicAt int
	calls   int
}

func (p *panickySource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	p.calls++
	if p.calls == p.panicAt {
		panic("boom: source bug")
	}
	return p.inner.NextWindow(buf, start, end)
}

// panickyTuner panics on its nth Tune call.
type panickyTuner struct {
	panicAt int
	calls   int
}

func (p *panickyTuner) Tune(sensor int, sys core.System) (int64, int64, error) {
	p.calls++
	if p.calls == p.panicAt {
		panic("boom: tuner bug")
	}
	return 0, 0, nil
}

// twoStreams builds a faulty stream named "bad" (using src) and a healthy
// sibling "good", runs them on two workers, and returns the run error, the
// per-name snapshot count, and the final status snapshot.
func twoStreams(t *testing.T, bad Stream, sinkPanics bool) (error, map[string]int, StatusSnapshot) {
	t.Helper()
	goodSrc, err := NewSliceSource(supervisorEvents(10))
	if err != nil {
		t.Fatal(err)
	}
	bad.Name = "bad"
	if bad.System == nil {
		bad.System = &fakeSystem{name: "fake"}
	}
	streams := []Stream{
		bad,
		{Name: "good", Source: goodSrc, System: &fakeSystem{name: "fake"}},
	}
	r, err := NewRunner(Config{FrameUS: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	sink := SinkFunc(func(snap TrackSnapshot) error {
		if sinkPanics && snap.Name == "bad" && got["bad"] >= 2 {
			panic("boom: sink bug")
		}
		got[snap.Name]++
		return nil
	})
	_, runErr := r.Run(context.Background(), streams, sink)
	return runErr, got, r.Status().Snapshot()
}

// assertContained checks the shared containment contract: the run reports
// the failed stream in its aggregate error, the failed stream carries the
// panic message and a recovered stack, and the healthy sibling delivered
// every one of its windows.
func assertContained(t *testing.T, runErr error, got map[string]int, snap StatusSnapshot, wantPanic string) {
	t.Helper()
	if runErr == nil || !strings.Contains(runErr.Error(), "1 stream(s) failed: bad") {
		t.Fatalf("run error = %v, want an aggregate failed-streams error naming bad", runErr)
	}
	if got["good"] != 10 {
		t.Fatalf("healthy sibling delivered %d windows, want all 10", got["good"])
	}
	for _, ss := range snap.PerStream {
		switch ss.Name {
		case "bad":
			if ss.State != StreamFailed.String() {
				t.Fatalf("bad stream state = %s, want failed", ss.State)
			}
			if !strings.Contains(ss.Error, wantPanic) {
				t.Fatalf("bad stream error = %q, want the panic value %q", ss.Error, wantPanic)
			}
			if !strings.Contains(ss.Stack, "goroutine") {
				t.Fatalf("bad stream has no recovered stack; got %q", ss.Stack)
			}
		case "good":
			if ss.State != StreamDone.String() || ss.Error != "" || ss.Stack != "" {
				t.Fatalf("healthy sibling contaminated: %+v", ss)
			}
		}
	}
}

func TestPanicContainedSource(t *testing.T) {
	src, err := NewSliceSource(supervisorEvents(10))
	if err != nil {
		t.Fatal(err)
	}
	runErr, got, snap := twoStreams(t, Stream{Source: &panickySource{inner: src, panicAt: 3}}, false)
	assertContained(t, runErr, got, snap, "boom: source bug")
}

func TestPanicContainedTuner(t *testing.T) {
	src, err := NewSliceSource(supervisorEvents(10))
	if err != nil {
		t.Fatal(err)
	}
	runErr, got, snap := twoStreams(t, Stream{Source: src, Tuner: &panickyTuner{panicAt: 3}}, false)
	assertContained(t, runErr, got, snap, "boom: tuner bug")
}

func TestPanicContainedSink(t *testing.T) {
	src, err := NewSliceSource(supervisorEvents(10))
	if err != nil {
		t.Fatal(err)
	}
	runErr, got, snap := twoStreams(t, Stream{Source: src}, true)
	assertContained(t, runErr, got, snap, "boom: sink bug")
	if got["bad"] >= 10 {
		t.Fatalf("sink-failed stream kept delivering: %d snapshots", got["bad"])
	}
}

// slowSource stalls (no window completes) for well past the watchdog
// deadline in the middle of the stream, then finishes normally.
type slowSource struct {
	inner *SliceSource
	calls int
	stall time.Duration
}

func (s *slowSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	s.calls++
	if s.calls == 3 {
		time.Sleep(s.stall)
	}
	return s.inner.NextWindow(buf, start, end)
}

// TestWatchdogFlagsStall: a stream that stops making progress is flagged
// stalled (state + counter) while stuck, flips back to running on its next
// window, and still finishes as done — the watchdog observes, it never
// kills.
func TestWatchdogFlagsStall(t *testing.T) {
	src, err := NewSliceSource(supervisorEvents(10))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{FrameUS: 1000, Watchdog: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	streams := []Stream{{Name: "cam0", Source: &slowSource{inner: src, stall: 250 * time.Millisecond}, System: &fakeSystem{name: "fake"}}}

	sawStalled := make(chan struct{})
	go func() {
		for {
			if rs := r.Status(); rs != nil {
				snap := rs.Snapshot()
				if len(snap.PerStream) == 1 && snap.PerStream[0].State == StreamStalled.String() {
					close(sawStalled)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	if _, err := r.Run(context.Background(), streams, nil); err != nil {
		t.Fatalf("stalled-but-recovered run failed: %v", err)
	}
	select {
	case <-sawStalled:
	case <-time.After(time.Second):
		t.Fatal("stream never observed in the stalled state")
	}
	snap := r.Status().Snapshot()
	ss := snap.PerStream[0]
	if ss.State != StreamDone.String() {
		t.Fatalf("final state = %s, want done (the watchdog must not kill)", ss.State)
	}
	if ss.Stalls < 1 || snap.Stalls < 1 {
		t.Fatalf("stall not counted: stream=%d run=%d", ss.Stalls, snap.Stalls)
	}
}

// transientSource fails transiently: each entry in failures burns one NextWindow
// call into an error, and Restart repairs it. It implements
// RestartableSource, so the Runner should absorb the failures within its
// restart budget.
type transientSource struct {
	inner    *SliceSource
	failures int
	broken   bool
	restarts int
}

func (f *transientSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	if f.broken {
		return buf, errors.New("transient transport error")
	}
	if f.failures > 0 {
		f.failures--
		f.broken = true
		return buf, errors.New("transient transport error")
	}
	return f.inner.NextWindow(buf, start, end)
}

func (f *transientSource) Restart() error {
	f.restarts++
	f.broken = false
	return nil
}

// TestRestartableSourceRecovers: transient source errors within the budget
// are retried after backoff and the stream completes with every window
// delivered and the restarts counted.
func TestRestartableSourceRecovers(t *testing.T) {
	src, err := NewSliceSource(supervisorEvents(10))
	if err != nil {
		t.Fatal(err)
	}
	fs := &transientSource{inner: src, failures: 2}
	r, err := NewRunner(Config{FrameUS: 1000, MaxRestarts: 3, RestartBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	_, runErr := r.Run(context.Background(),
		[]Stream{{Name: "cam0", Source: fs, System: &fakeSystem{name: "fake"}}},
		SinkFunc(func(TrackSnapshot) error { delivered++; return nil }))
	if runErr != nil {
		t.Fatalf("run with transient source errors failed: %v", runErr)
	}
	if delivered != 10 {
		t.Fatalf("delivered %d windows, want all 10", delivered)
	}
	snap := r.Status().Snapshot()
	if ss := snap.PerStream[0]; ss.Restarts != 2 || ss.SourceErrors != 2 {
		t.Fatalf("restarts=%d source_errors=%d, want 2 and 2", ss.Restarts, ss.SourceErrors)
	}
	if fs.restarts != 2 {
		t.Fatalf("source restarted %d times, want 2", fs.restarts)
	}
}

// TestRestartBudgetExhausted: a source that keeps failing burns the budget
// and then fails the run, with the restart count capped at MaxRestarts.
func TestRestartBudgetExhausted(t *testing.T) {
	src, err := NewSliceSource(supervisorEvents(10))
	if err != nil {
		t.Fatal(err)
	}
	fs := &transientSource{inner: src, failures: 100}
	r, err := NewRunner(Config{FrameUS: 1000, MaxRestarts: 2, RestartBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := r.Run(context.Background(),
		[]Stream{{Name: "cam0", Source: fs, System: &fakeSystem{name: "fake"}}}, nil)
	if runErr == nil || !strings.Contains(runErr.Error(), "transient transport error") {
		t.Fatalf("run error = %v, want the exhausted source error", runErr)
	}
	snap := r.Status().Snapshot()
	if ss := snap.PerStream[0]; ss.Restarts != 2 || ss.State != StreamFailed.String() {
		t.Fatalf("restarts=%d state=%s, want 2 and failed", ss.Restarts, ss.State)
	}
}

// rewindingSource fails once at its third window, and its Restart rewinds
// to t = 0 instead of resuming at the failed window: a source that would
// feed the System windows it has already seen.
type rewindingSource struct {
	evs      []events.Event
	inner    *SliceSource
	calls    int
	restarts int
}

func (s *rewindingSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	if s.calls++; s.calls == 3 {
		return buf, errors.New("transient transport error")
	}
	return s.inner.NextWindow(buf, start, end)
}

func (s *rewindingSource) Restart() error {
	s.restarts++
	var err error
	s.inner, err = NewSliceSource(s.evs)
	return err
}

// TestRestartRewindFailsUnsorted: a restarted source that rewinds to t = 0
// fails the stream with events.ErrUnsorted at the Windower's first-event
// check; the System never sees an event twice.
func TestRestartRewindFailsUnsorted(t *testing.T) {
	evs := supervisorEvents(10)
	inner, err := NewSliceSource(evs)
	if err != nil {
		t.Fatal(err)
	}
	src := &rewindingSource{evs: evs, inner: inner}
	r, err := NewRunner(Config{FrameUS: 1000, MaxRestarts: 2, RestartBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sys := &fakeSystem{name: "fake"}
	delivered := 0
	_, runErr := r.Run(context.Background(),
		[]Stream{{Name: "cam0", Source: src, System: sys}},
		SinkFunc(func(TrackSnapshot) error { delivered++; return nil }))
	if !errors.Is(runErr, events.ErrUnsorted) {
		t.Fatalf("run error = %v, want ErrUnsorted", runErr)
	}
	if delivered != 2 || sys.windows != 2 {
		t.Fatalf("delivered %d windows, processed %d; want the 2 before the failure", delivered, sys.windows)
	}
	if src.restarts != 2 {
		t.Fatalf("source restarted %d times, want the budget of 2", src.restarts)
	}
	if ss := r.Status().Snapshot().PerStream[0]; ss.State != StreamFailed.String() {
		t.Fatalf("stream state = %s, want failed", ss.State)
	}
}

// TestJitteredBackoffBounds pins the backoff envelope: doubling from the
// base, capped at 5 s, and jittered into [d/2, d]; a zero base means the
// 200 ms default.
func TestJitteredBackoffBounds(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{200 * ms, 0, 200 * ms},
		{200 * ms, 1, 400 * ms},
		{200 * ms, 2, 800 * ms},
		{200 * ms, 3, 1600 * ms},
		{200 * ms, 4, 3200 * ms},
		{200 * ms, 5, 5 * time.Second},
		{200 * ms, 6, 5 * time.Second}, // stays capped
		{0, 0, 200 * ms},
	} {
		for trial := 0; trial < 50; trial++ {
			got := JitteredBackoff(tc.base, tc.attempt)
			if got < tc.want/2 || got > tc.want {
				t.Fatalf("base %v attempt %d: backoff %v outside [%v, %v]",
					tc.base, tc.attempt, got, tc.want/2, tc.want)
			}
		}
	}
}
