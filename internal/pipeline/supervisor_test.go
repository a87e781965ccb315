package pipeline

import (
	"context"
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
