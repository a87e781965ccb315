package core

import (
	"reflect"
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
)

// sceneEvents renders a deterministic 2-object scene into one sorted event
// slice for the differential tests.
func sceneEvents(t *testing.T, durationUS int64) []events.Event {
	t.Helper()
	sc := &scene.Scene{
		Res:        events.DAVIS240,
		DurationUS: durationUS,
		Objects: []scene.Object{
			{ID: 0, Kind: scene.KindCar, W: 30, H: 16, LaneY: 40, X0: -30, VX: 60, EnterUS: 0, ExitUS: durationUS, Z: 1, EdgeDensity: 0.9, InteriorDensity: 0.2},
			{ID: 1, Kind: scene.KindVan, W: 40, H: 22, LaneY: 110, X0: 240, VX: -55, EnterUS: 0, ExitUS: durationUS, Z: 2, EdgeDensity: 0.9, InteriorDensity: 0.12},
		},
	}
	cfg := sensor.DefaultConfig(99)
	cfg.NoiseRatePerPixelHz = 2
	sim, err := sensor.New(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sim.Events(0, durationUS)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// rebase shifts timestamps so the slice starts at t=0, the clock a fresh
// run launched at a window boundary would see. EBBI accumulation is
// timestamp-free, so rebasing changes nothing but the frame clock.
func rebase(evs []events.Event, originUS int64) []events.Event {
	out := make([]events.Event, len(evs))
	for i, e := range evs {
		out[i] = e
		out[i].T -= originUS
	}
	return out
}

// feed runs sys over the windows and returns the per-window boxes.
func feed(t *testing.T, sys System, ws []events.Window) [][]geometry.Box {
	t.Helper()
	out := make([][]geometry.Box, 0, len(ws))
	for _, w := range ws {
		boxes, err := sys.ProcessWindow(w.Events)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, boxes)
	}
	return out
}

// boxesEqual compares per-window box slices, treating nil and empty alike.
func boxesEqual(a, b [][]geometry.Box) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) == 0 && len(b[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestApplyParamsEquivalentToFreshRun is the control plane's core
// guarantee: applying new parameters mid-run at a window boundary yields
// bit-identical tracks to a brand-new system launched with those parameters
// at the same boundary — across RPN retunes, a tF change and a
// median/geometry change.
func TestApplyParamsEquivalentToFreshRun(t *testing.T) {
	const tF1 = 66_000
	evs := sceneEvents(t, 4_000_000)

	base := DefaultConfig()
	cases := []struct {
		name string
		next Config
	}{
		{"rpn-retune", func() Config {
			c := base
			c.RPN.Threshold = 2
			c.RPN.MinValidPixels = 8
			c.Tracker.MatchFraction = 0.4
			return c
		}()},
		{"tf-change", func() Config {
			c := base
			c.EBBI.FrameUS = 33_000
			return c
		}()},
		{"geometry-change", func() Config {
			c := base
			c.EBBI.MedianP = 5
			c.RPN.S1, c.RPN.S2 = 8, 4
			return c
		}()},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const boundary = 20 // windows of tF1 before the change
			originUS := int64(boundary) * tF1

			prefixEvs := make([]events.Event, 0, len(evs))
			var suffixEvs []events.Event
			for i, e := range evs {
				if e.T >= originUS {
					suffixEvs = evs[i:]
					break
				}
				prefixEvs = append(prefixEvs, e)
			}
			prefix, err := events.Windows(prefixEvs, tF1)
			if err != nil {
				t.Fatal(err)
			}
			// The post-change windows both runs consume: remaining events
			// re-windowed at the (possibly new) tF from the boundary.
			suffix, err := events.Windows(rebase(suffixEvs, originUS), tc.next.EBBI.FrameUS)
			if err != nil {
				t.Fatal(err)
			}

			live, err := NewEBBIOT(base)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			feed(t, live, prefix)
			if err := live.ApplyParams(tc.next); err != nil {
				t.Fatal(err)
			}
			got := feed(t, live, suffix)

			fresh, err := NewEBBIOT(tc.next)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			want := feed(t, fresh, suffix)

			if !boxesEqual(got, want) {
				t.Fatalf("mid-run ApplyParams diverged from fresh run:\ngot  %v\nwant %v", got, want)
			}
		})
	}
}

// TestApplyParamsEquivalentToFreshRunKF mirrors the differential guarantee
// for the EBBI+KF comparison pipeline.
func TestApplyParamsEquivalentToFreshRunKF(t *testing.T) {
	const tF = 66_000
	evs := sceneEvents(t, 3_000_000)
	ws, err := events.Windows(evs, tF)
	if err != nil {
		t.Fatal(err)
	}
	const boundary = 15
	if len(ws) <= boundary {
		t.Fatalf("scene too short: %d windows", len(ws))
	}

	base := DefaultKFConfig()
	next := base
	next.RPN.Threshold = 2
	next.Tracker.GateDistance = 25

	live, err := NewEBBIKF(base)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	feed(t, live, ws[:boundary])
	if err := live.ApplyParams(next); err != nil {
		t.Fatal(err)
	}
	got := feed(t, live, ws[boundary:])

	fresh, err := NewEBBIKF(next)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want := feed(t, fresh, ws[boundary:])

	if !boxesEqual(got, want) {
		t.Fatalf("mid-run ApplyParams (KF) diverged from fresh run:\ngot  %v\nwant %v", got, want)
	}
}

// TestApplyParamsRejectsInvalid verifies an invalid parameter set is
// rejected whole: the system keeps its old configuration and keeps
// processing windows.
func TestApplyParamsRejectsInvalid(t *testing.T) {
	sys, err := NewEBBIOT(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	evs := sceneEvents(t, 200_000)
	ws, err := events.Windows(evs, 66_000)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, sys, ws[:1])

	bad := DefaultConfig()
	bad.EBBI.MedianP = 4 // even: invalid
	if err := sys.ApplyParams(bad); err == nil {
		t.Fatal("ApplyParams accepted an even median patch size")
	}
	bad = DefaultConfig()
	bad.RPN.S1 = 0
	if err := sys.ApplyParams(bad); err == nil {
		t.Fatal("ApplyParams accepted a zero RPN scale")
	}
	bad = DefaultConfig()
	bad.Tracker.MaxTrackers = 0
	if err := sys.ApplyParams(bad); err == nil {
		t.Fatal("ApplyParams accepted a zero tracker pool")
	}
	if got := sys.Config(); !reflect.DeepEqual(got, DefaultConfig()) {
		t.Fatalf("failed ApplyParams mutated the config: %+v", got)
	}
	// Still processes windows with the old parameters.
	feed(t, sys, ws[1:])
}
