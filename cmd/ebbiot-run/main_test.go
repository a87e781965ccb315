package main

import (
	"strings"
	"testing"

	"ebbiot/internal/pipeline"
)

// TestPrintStreamOutcomes pins the exit-code discipline: every stream gets a
// terminal-state line in the final summary, and exactly the streams that
// ended failed are returned for the caller to turn into a nonzero exit.
func TestPrintStreamOutcomes(t *testing.T) {
	snap := pipeline.StatusSnapshot{PerStream: []pipeline.StreamSnapshot{
		{Name: "cam0", State: pipeline.StreamDone.String(), Windows: 12, Events: 3400},
		{Name: "cam1", State: pipeline.StreamFailed.String(), Windows: 3, Events: 80, Error: "ingest: torn frame"},
		{
			Name: "cam2", State: pipeline.StreamDone.String(), Windows: 12, Events: 3400,
			Stalls: 1,
			Source: &pipeline.SourceStats{Resumes: 1, Epoch: 2},
		},
	}}

	var buf strings.Builder
	failed := printStreamOutcomes(&buf, snap)

	if len(failed) != 1 || failed[0] != "cam1" {
		t.Fatalf("failed streams = %v, want [cam1]", failed)
	}
	out := buf.String()
	if got := strings.Count(out, "\n"); got != 3 {
		t.Fatalf("want one line per stream (3), got %d:\n%s", got, out)
	}
	for _, want := range []string{
		"stream cam0: done (12 windows, 3400 events)",
		"stream cam1: failed (3 windows, 80 events): ingest: torn frame",
		"stalls 1",
		"resumed 1 time(s), epoch 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestPrintStreamOutcomesAllDone: a clean run returns no failures.
func TestPrintStreamOutcomesAllDone(t *testing.T) {
	snap := pipeline.StatusSnapshot{PerStream: []pipeline.StreamSnapshot{
		{Name: "cam0", State: pipeline.StreamDone.String()},
		{Name: "cam1", State: pipeline.StreamDone.String()},
	}}
	if failed := printStreamOutcomes(&strings.Builder{}, snap); failed != nil {
		t.Fatalf("clean run reported failures: %v", failed)
	}
}
