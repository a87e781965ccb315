package pipeline

import (
	"context"
	"errors"
	"testing"

	"ebbiot/internal/events"
)

// flakySource yields windows of events until its budget runs out, then
// fails with a non-EOF error — a network source dying mid-run.
type flakySource struct {
	src     *SliceSource
	windows int
	budget  int
	err     error
}

func (f *flakySource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	if f.windows >= f.budget {
		return buf, f.err
	}
	f.windows++
	return f.src.NextWindow(buf, start, end)
}

// meteredFlaky additionally implements SourceMeter so the publish-on-exit
// path is exercised alongside the error accounting.
type meteredFlaky struct {
	flakySource
	stats SourceStats
}

func (m *meteredFlaky) SourceStats() SourceStats { return m.stats }

// TestRunnerCountsSourceErrors: a source failing mid-run (after yielding
// windows) must fail the run AND leave source_errors = 1 on its stream's
// status, totaled into the run snapshot — so post-mortems can tell a
// source death from a system error.
func TestRunnerCountsSourceErrors(t *testing.T) {
	src, err := NewSliceSource(syntheticStream(0, 2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sensor unplugged")
	flaky := &meteredFlaky{
		flakySource: flakySource{src: src, budget: 5, err: boom},
		stats:       SourceStats{Faults: 1, LastError: boom.Error()},
	}
	r, err := NewRunner(Config{FrameUS: 66_000})
	if err != nil {
		t.Fatal(err)
	}
	streams := []Stream{{Name: "flaky", Source: flaky, System: &fakeSystem{name: "fake"}}}
	_, runErr := r.Run(context.Background(), streams, nil)
	if !errors.Is(runErr, boom) {
		t.Fatalf("run error = %v, want the source error", runErr)
	}
	snap := r.Status().Snapshot()
	if snap.SourceErrors != 1 {
		t.Fatalf("run source_errors = %d, want 1", snap.SourceErrors)
	}
	ss := snap.PerStream[0]
	if ss.SourceErrors != 1 {
		t.Fatalf("stream source_errors = %d, want 1", ss.SourceErrors)
	}
	if ss.State != "failed" {
		t.Fatalf("stream state = %q, want failed", ss.State)
	}
	// The meter was published on stream exit even though the stream died.
	if ss.Source == nil || ss.Source.Faults != 1 {
		t.Fatalf("source stats not published on failure: %+v", ss.Source)
	}
}

// TestRunnerNoSourceErrorsOnCleanRun: the counter stays zero for sources
// that end with io.EOF, and unmetered streams publish no Source block.
func TestRunnerNoSourceErrorsOnCleanRun(t *testing.T) {
	src, err := NewSliceSource(syntheticStream(0, 500_000))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{FrameUS: 66_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), []Stream{{Source: src, System: &fakeSystem{name: "fake"}}}, nil); err != nil {
		t.Fatal(err)
	}
	snap := r.Status().Snapshot()
	if snap.SourceErrors != 0 {
		t.Fatalf("clean run source_errors = %d, want 0", snap.SourceErrors)
	}
	if snap.PerStream[0].Source != nil {
		t.Fatalf("unmetered stream published source stats: %+v", snap.PerStream[0].Source)
	}
}
