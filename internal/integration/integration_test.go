// Package integration_test exercises whole-system paths across module
// boundaries: dataset generation -> AEDAT serialisation -> streaming replay
// -> tracking -> evaluation, verifying that the file-based path is
// behaviourally identical to the in-memory path.
package integration_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ebbiot/internal/aedat"
	"ebbiot/internal/annot"
	"ebbiot/internal/core"
	"ebbiot/internal/dataset"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/metrics"
	"ebbiot/internal/roe"
	"ebbiot/internal/scene"
)

const frameUS = 66_000

// generate returns a 5-second LT4-style recording's full event stream and
// its scene.
func generate(t *testing.T) (*scene.Scene, []events.Event) {
	t.Helper()
	spec, err := dataset.For(dataset.LT4, 5.0/999.5, 77)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var all []events.Event
	for cursor := int64(0); cursor+frameUS <= spec.DurationUS; cursor += frameUS {
		evs, err := rec.Sim.Events(cursor, cursor+frameUS)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, evs...)
	}
	return rec.Scene, all
}

// trackDirect runs EBBIOT over in-memory windows.
func trackDirect(t *testing.T, evs []events.Event) [][]geometry.Box {
	t.Helper()
	sys, err := core.NewEBBIOT(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := events.Windows(evs, frameUS)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]geometry.Box
	for _, w := range ws {
		boxes, err := sys.ProcessWindow(w.Events)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, boxes)
	}
	return out
}

// trackViaAEDAT serialises the stream to the AEDAT container and replays it
// through the streaming reader's NextWindowInto, as cmd/ebbiot-run does.
func trackViaAEDAT(t *testing.T, evs []events.Event) [][]geometry.Box {
	t.Helper()
	var buf bytes.Buffer
	if err := aedat.Write(&buf, events.DAVIS240, evs); err != nil {
		t.Fatal(err)
	}
	r, err := aedat.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewEBBIOT(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out [][]geometry.Box
	frame := 0
	for {
		end := int64(frame+1) * frameUS
		wevs, werr := r.NextWindowInto(nil, end)
		boxes, perr := sys.ProcessWindow(wevs)
		if perr != nil {
			t.Fatal(perr)
		}
		out = append(out, boxes)
		frame++
		if werr != nil {
			if errors.Is(werr, io.EOF) {
				break
			}
			t.Fatal(werr)
		}
	}
	return out
}

func TestAEDATReplayMatchesDirectTracking(t *testing.T) {
	_, evs := generate(t)
	direct := trackDirect(t, evs)
	replay := trackViaAEDAT(t, evs)
	// The replay path may emit one extra (possibly empty) trailing frame at
	// EOF; compare the common prefix and require it covers the direct run.
	if len(replay) < len(direct) {
		t.Fatalf("replay produced fewer frames: %d vs %d", len(replay), len(direct))
	}
	for i := range direct {
		if len(direct[i]) != len(replay[i]) {
			t.Fatalf("frame %d: %d boxes direct vs %d via AEDAT", i, len(direct[i]), len(replay[i]))
		}
		for j := range direct[i] {
			if direct[i][j] != replay[i][j] {
				t.Fatalf("frame %d box %d: %v direct vs %v via AEDAT", i, j, direct[i][j], replay[i][j])
			}
		}
	}
}

func TestAnnotationsMatchSceneGroundTruth(t *testing.T) {
	sc, _ := generate(t)
	recs, err := annot.FromScene(sc, frameUS, 40)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := annot.Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := annot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check one sampling instant against the live scene.
	tUS := int64(10) * frameUS
	want := sc.GroundTruth(tUS, 40)
	got := annot.AtTime(back, tUS)
	if len(got) != len(want) {
		t.Fatalf("at t=%d: %d annotated vs %d live boxes", tUS, len(got), len(want))
	}
	for i := range want {
		if got[i].Box != want[i].Box || got[i].ID != want[i].ID {
			t.Errorf("record %d: %+v vs live %+v", i, got[i], want[i])
		}
	}
}

func TestFullPipelineAgainstAnnotations(t *testing.T) {
	// End to end: evaluate EBBIOT against file-based annotations instead of
	// the live scene, as an external user with only the .aer + .csv pair
	// would.
	sc, evs := generate(t)
	recs, err := annot.FromScene(sc, frameUS, 40)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewEBBIOT(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := events.Windows(evs, frameUS)
	if err != nil {
		t.Fatal(err)
	}
	var samples []metrics.FrameSample
	for i, w := range ws {
		boxes, err := sys.ProcessWindow(w.Events)
		if err != nil {
			t.Fatal(err)
		}
		if i < 5 {
			continue // warm-up
		}
		gts := annot.AtTime(recs, w.End)
		gtBoxes := make([]geometry.Box, len(gts))
		for j, g := range gts {
			gtBoxes[j] = g.Box
		}
		samples = append(samples, metrics.FrameSample{Tracker: boxes, GroundTruth: gtBoxes})
	}
	c := metrics.Evaluate(samples, 0.3)
	if c.Precision() < 0.5 || c.Recall() < 0.5 {
		t.Errorf("file-based evaluation P=%.2f R=%.2f suspiciously low", c.Precision(), c.Recall())
	}
}

func TestROEConsistencyAcrossPipelines(t *testing.T) {
	// All three systems must accept and honour the same exclusion mask:
	// no reported box may be mostly inside the ROE.
	mask := roe.New(dataset.TreeROEENG())
	spec, err := dataset.For(dataset.ENG, 5.0/2998.4, 99)
	if err != nil {
		t.Fatal(err)
	}
	build := map[string]func() (core.System, error){
		"EBBIOT": func() (core.System, error) {
			return core.NewEBBIOT(core.DefaultConfig().WithROE(mask))
		},
		"EBBI+KF": func() (core.System, error) {
			cfg := core.DefaultKFConfig()
			cfg.ROE = mask
			return core.NewEBBIKF(cfg)
		},
		"EBMS": func() (core.System, error) {
			cfg := core.DefaultEBMSConfig()
			cfg.ROE = mask
			return core.NewEBMS(cfg)
		},
	}
	for name, factory := range build {
		rec, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := factory()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for cursor := int64(0); cursor+frameUS <= spec.DurationUS; cursor += frameUS {
			evs, err := rec.Sim.Events(cursor, cursor+frameUS)
			if err != nil {
				t.Fatal(err)
			}
			boxes, err := sys.ProcessWindow(evs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, b := range boxes {
				if mask.Excluded(b, 0.5) {
					t.Errorf("%s reported box %v inside the ROE", name, b)
				}
			}
		}
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	// The entire chain — generation, simulation, tracking — must be
	// reproducible bit for bit across runs with the same seeds.
	run := func() [][]geometry.Box {
		_, evs := generate(t)
		return trackDirect(t, evs)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("frame counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("frame %d box counts differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("frame %d box %d differs: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}
