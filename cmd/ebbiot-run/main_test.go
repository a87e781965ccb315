package main

import (
	"strings"
	"testing"

	"ebbiot/internal/control"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/pipeline"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
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

// TestNewSystemUsesInputResolution builds every system newSystem offers for
// a DAVIS346 recording whose only object drives at x ≈ 270-310, y ≈
// 200-212, beyond a 240 x 180 array on both axes: each must report it, so
// each must be built for the resolution it is given.
func TestNewSystemUsesInputResolution(t *testing.T) {
	res := events.Resolution{A: 346, B: 260}
	const durUS = 3_000_000
	sc := &scene.Scene{
		Res:        res,
		DurationUS: durUS,
		Objects: []scene.Object{{
			ID: 0, Kind: scene.KindCar, W: 40, H: 12, LaneY: 200,
			X0: 265, VX: 15, EnterUS: 0, ExitUS: durUS, Z: 1,
			EdgeDensity: 0.9, InteriorDensity: 0.2,
		}},
	}
	simCfg := sensor.DefaultConfig(7)
	simCfg.Res = res
	outside := geometry.NewBox(240, 180, res.A-240, res.B-180)
	for _, name := range []string{"EBBIOT", "KF", "EBMS"} {
		sim, err := sensor.New(simCfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := newSystem(name, res, control.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		windows, seen := 0, 0
		for start := int64(0); start < durUS; start += 66_000 {
			evs, err := sim.Events(start, start+66_000)
			if err != nil {
				t.Fatal(err)
			}
			boxes, err := sys.ProcessWindow(evs)
			if err != nil {
				t.Fatal(err)
			}
			windows++
			for _, b := range boxes {
				if !b.Empty() && outside.ContainsBox(b) {
					seen++
					break
				}
			}
		}
		if seen < windows/4 {
			t.Errorf("%s reported the object in %d of %d windows", name, seen, windows)
		}
	}
}
