package core

import (
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
)

// davis346 is a DAVIS346 array, wider and taller than the DAVIS240 the
// default configurations assume.
var davis346 = events.Resolution{A: 346, B: 260}

// wideSceneWindows renders 66 ms windows of a DAVIS346 scene whose only
// object drives at x ≈ 270-310, y ≈ 200-212: wholly outside a 240 x 180
// array.
func wideSceneWindows(t *testing.T) [][]events.Event {
	t.Helper()
	const durUS = 3_000_000
	sc := &scene.Scene{
		Res:        davis346,
		DurationUS: durUS,
		Objects: []scene.Object{{
			ID: 0, Kind: scene.KindCar, W: 40, H: 12, LaneY: 200,
			X0: 265, VX: 15, EnterUS: 0, ExitUS: durUS, Z: 1,
			EdgeDensity: 0.9, InteriorDensity: 0.2,
		}},
	}
	cfg := sensor.DefaultConfig(7)
	cfg.Res = davis346
	sim, err := sensor.New(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	var wins [][]events.Event
	for start := int64(0); start < durUS; start += 66_000 {
		evs, err := sim.Events(start, start+66_000)
		if err != nil {
			t.Fatal(err)
		}
		wins = append(wins, evs)
	}
	return wins
}

// TestSystemsTrackAtSensorResolution builds each system for the DAVIS346
// array and requires it to report the object, which lies beyond a 240 x
// 180 array on both axes: every stage, the tracker's bounds included,
// takes its array from the one resolution setting.
func TestSystemsTrackAtSensorResolution(t *testing.T) {
	wins := wideSceneWindows(t)
	ebbiot := DefaultConfig()
	ebbiot.EBBI.Res = davis346
	kf := DefaultKFConfig()
	kf.EBBI.Res = davis346
	ms := DefaultEBMSConfig()
	ms.Res = davis346
	builds := []func() (System, error){
		func() (System, error) { return NewEBBIOT(ebbiot) },
		func() (System, error) { return NewEBBIKF(kf) },
		func() (System, error) { return NewEBMS(ms) },
	}
	outside := geometry.NewBox(240, 180, 106, 80)
	for _, build := range builds {
		sys, err := build()
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, boxes := range runWindows(t, sys, wins) {
			for _, b := range boxes {
				if !b.Empty() && outside.ContainsBox(b) {
					seen++
					break
				}
			}
		}
		t.Logf("%s: object reported in %d of %d windows", sys.Name(), seen, len(wins))
		if seen < len(wins)/4 {
			t.Errorf("%s reported the object in %d of %d windows", sys.Name(), seen, len(wins))
		}
	}
}
