package sensor

import (
	"slices"
	"sync"
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/scene"
	"ebbiot/internal/xrand"
)

func quietConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.NoiseRatePerPixelHz = 0
	return cfg
}

func TestDeterministicStream(t *testing.T) {
	sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)
	gen := func() []events.Event {
		sim, err := New(DefaultConfig(42), sc)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := sim.Events(0, 500_000)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEventsSortedAndInBounds(t *testing.T) {
	sc := scene.CrossingScene(events.DAVIS240, 3_000_000)
	sim, err := New(DefaultConfig(7), sc)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sim.Events(0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no events generated")
	}
	if !events.Sorted(evs) {
		t.Error("stream must be sorted")
	}
	for _, e := range evs {
		if !events.DAVIS240.Contains(int(e.X), int(e.Y)) {
			t.Fatalf("event out of bounds: %v", e)
		}
		if e.T < 0 || e.T >= 1_000_000 {
			t.Fatalf("event time out of window: %v", e)
		}
		if !e.P.Valid() {
			t.Fatalf("invalid polarity: %v", e)
		}
	}
}

func TestContiguousWindowEnforced(t *testing.T) {
	sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)
	sim, err := New(DefaultConfig(1), sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Events(0, 100_000); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Events(200_000, 300_000); err == nil {
		t.Error("skipping a window should error")
	}
	if _, err := sim.Events(100_000, 100_000); err == nil {
		t.Error("empty window should error")
	}
	if _, err := sim.Events(100_000, 200_000); err != nil {
		t.Errorf("contiguous window should work: %v", err)
	}
	if sim.cursor != 200_000 {
		t.Errorf("cursor = %d", sim.cursor)
	}
}

func TestNoiseOnlyStream(t *testing.T) {
	// Empty scene: all events are background activity noise at the
	// configured rate.
	sc := &scene.Scene{Res: events.DAVIS240, DurationUS: 1_000_000}
	cfg := DefaultConfig(5)
	cfg.NoiseRatePerPixelHz = 2.0
	cfg.RefractoryUS = 0
	sim, err := New(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sim.Events(0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: 2 Hz * 43200 px * 1 s = 86400 events; Poisson, so allow 5%.
	want := 86400.0
	got := float64(len(evs))
	if got < want*0.95 || got > want*1.05 {
		t.Errorf("noise event count = %v, want ~%v", got, want)
	}
}

func TestObjectEventsConcentratedOnObject(t *testing.T) {
	sc := scene.SingleObjectScene(events.DAVIS240, 4_000_000)
	sim, err := New(quietConfig(3), sc)
	if err != nil {
		t.Fatal(err)
	}
	// At t=2s the car (entered at x=-32, 60 px/s) spans roughly x in
	// [88, 120], y in [70, 88].
	var evs []events.Event
	var win []events.Event
	cursor := int64(0)
	for cursor < 2_066_000 {
		w, err := sim.Events(cursor, cursor+66_000)
		if err != nil {
			t.Fatal(err)
		}
		cursor += 66_000
		win = w
	}
	evs = win // last 66 ms window, car near x ~ [88,120]
	if len(evs) == 0 {
		t.Fatal("no object events in window")
	}
	expanded := geometry.NewBox(80, 65, 55, 30)
	inside := 0
	for _, e := range evs {
		if expanded.Contains(int(e.X), int(e.Y)) {
			inside++
		}
	}
	frac := float64(inside) / float64(len(evs))
	if frac < 0.99 {
		t.Errorf("only %.2f of noise-free events near object box", frac)
	}
}

func TestEdgePolarities(t *testing.T) {
	// A rightward-moving object: ON events cluster at the leading (right)
	// edge, OFF at the trailing (left) edge.
	sc := scene.SingleObjectScene(events.DAVIS240, 4_000_000)
	cfg := quietConfig(11)
	sim, err := New(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	var all []events.Event
	cursor := int64(0)
	for cursor < 2_000_000 {
		w, err := sim.Events(cursor, cursor+66_000)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, w...)
		cursor += 66_000
	}
	// Use interior-free vertical strips: compare mean x of ON vs OFF events
	// in the object band.
	var onX, offX, onN, offN float64
	for _, e := range all {
		if int(e.Y) < 71 || int(e.Y) > 86 {
			continue // only the vertical edge band
		}
		if e.P == events.On {
			onX += float64(e.X)
			onN++
		} else {
			offX += float64(e.X)
			offN++
		}
	}
	if onN == 0 || offN == 0 {
		t.Fatal("missing ON or OFF events")
	}
	if onX/onN <= offX/offN {
		t.Errorf("ON mean x %.1f should exceed OFF mean x %.1f for rightward motion", onX/onN, offX/offN)
	}
}

func TestRefractorySuppressesRate(t *testing.T) {
	sc := &scene.Scene{Res: events.DAVIS240, DurationUS: 1_000_000}
	mk := func(refr int64) int {
		cfg := DefaultConfig(9)
		cfg.NoiseRatePerPixelHz = 400 // very high to force refractory hits
		cfg.RefractoryUS = refr
		sim, err := New(cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := sim.Events(0, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		return len(evs)
	}
	free := mk(0)
	limited := mk(10_000)
	if limited >= free {
		t.Errorf("refractory period should reduce event count: %d vs %d", limited, free)
	}
	// With a 10 ms refractory over a 20 ms window, each pixel can fire at
	// most twice.
	if limited > events.DAVIS240.Pixels()*2 {
		t.Errorf("refractory cap violated: %d events", limited)
	}
}

func TestOcclusionSuppressesFarObject(t *testing.T) {
	// Near bus fully covers far car: car pixels must not fire in the
	// overlap region.
	sc := &scene.Scene{
		Res: events.DAVIS240, DurationUS: 2_000_000,
		Objects: []scene.Object{
			{ID: 0, Kind: scene.KindCar, W: 20, H: 10, LaneY: 60, X0: 100, VX: 30, EnterUS: 0, ExitUS: 2_000_000, Z: 1, EdgeDensity: 0.9, InteriorDensity: 0.5},
			{ID: 1, Kind: scene.KindBus, W: 80, H: 40, LaneY: 50, X0: 70, VX: 30, EnterUS: 0, ExitUS: 2_000_000, Z: 2, EdgeDensity: 0, InteriorDensity: 0},
		},
	}
	sim, err := New(quietConfig(13), sc)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sim.Events(0, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	// The bus generates nothing (zero densities) and hides the car, so the
	// stream must be empty.
	if len(evs) != 0 {
		t.Errorf("occluded object leaked %d events", len(evs))
	}
}

func TestDistractorEvents(t *testing.T) {
	sc := &scene.Scene{
		Res:        events.DAVIS240,
		DurationUS: 1_000_000,
		Distractors: []scene.Distractor{
			{Box: geometry.NewBox(10, 150, 40, 20), RatePerPixelHz: 50},
		},
	}
	cfg := quietConfig(17)
	sim, err := New(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sim.Events(0, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("distractor generated no events")
	}
	for _, e := range evs {
		if !sc.Distractors[0].Box.Contains(int(e.X), int(e.Y)) {
			t.Fatalf("distractor event outside its box: %v", e)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	sc := scene.SingleObjectScene(events.DAVIS240, 1_000_000)
	cfg := DefaultConfig(1)
	cfg.NoiseRatePerPixelHz = -1
	if _, err := New(cfg, sc); err == nil {
		t.Error("negative noise rate should error")
	}
	// Zero resolution defaults to DAVIS240.
	cfg = Config{Seed: 1}
	sim, err := New(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Resolution() != events.DAVIS240 {
		t.Errorf("default resolution = %v", sim.Resolution())
	}
}

func TestHumanSlowObjectFewEvents(t *testing.T) {
	// The paper notes humans need longer exposure: a slow walker generates
	// far fewer events per frame than a car. Verify the rate ordering.
	mk := func(kind scene.Kind, w, h int, vx float64, interior float64) int {
		sc := &scene.Scene{
			Res: events.DAVIS240, DurationUS: 2_000_000,
			Objects: []scene.Object{{
				ID: 0, Kind: kind, W: w, H: h, LaneY: 60, X0: 50, VX: vx,
				EnterUS: 0, ExitUS: 2_000_000, Z: 1,
				EdgeDensity: 0.8, InteriorDensity: interior,
			}},
		}
		sim, err := New(quietConfig(21), sc)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := sim.Events(0, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return len(evs)
	}
	human := mk(scene.KindHuman, 7, 15, 8, 0.25)
	car := mk(scene.KindCar, 32, 18, 70, 0.18)
	if human*5 > car {
		t.Errorf("human events (%d) should be far fewer than car events (%d)", human, car)
	}
}

// TestSortTickMatchesStableSort checks the per-tick sort, on both sides of
// its insertion-sort cutoff, against the general stable sort: timestamps
// drawn from a narrow range force ties, whose input order must survive.
func TestSortTickMatchesStableSort(t *testing.T) {
	rng := xrand.New(5)
	for n := 0; n <= 200; n++ {
		evs := make([]events.Event, n)
		for i := range evs {
			evs[i] = events.Event{X: int16(i), Y: int16(i >> 8), T: int64(rng.Intn(n/3 + 1)), P: events.On}
		}
		want := slices.Clone(evs)
		events.SortByTime(want)
		sortTick(evs)
		if !slices.Equal(evs, want) {
			t.Fatalf("%d events: sortTick order differs from the stable sort", n)
		}
	}
}

// TestSharedSceneAcrossGoroutines runs simulators over one Scene on
// separate goroutines, as a multi-sensor scene run does: each keeps its
// scratch to itself, so each gives the stream it gives alone (and -race
// finds no shared write).
func TestSharedSceneAcrossGoroutines(t *testing.T) {
	sc := scene.CrossingScene(events.DAVIS240, 2_000_000)
	run := func(seed uint64) []events.Event {
		sim, err := New(DefaultConfig(seed), sc)
		if err != nil {
			t.Error(err)
			return nil
		}
		var all []events.Event
		for t0 := int64(0); t0 < 1_000_000; t0 += 66_000 {
			evs, err := sim.Events(t0, t0+66_000)
			if err != nil {
				t.Error(err)
				return nil
			}
			all = append(all, evs...)
		}
		return all
	}
	want := [][]events.Event{run(1), run(2), run(3)}
	got := make([][]events.Event, len(want))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(uint64(i + 1))
		}()
	}
	wg.Wait()
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("simulator %d: concurrent stream differs from its solo run", i)
		}
	}
}
