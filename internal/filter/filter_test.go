package filter

import (
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
)

func TestNNRejectsIsolatedNoise(t *testing.T) {
	f, err := NewNN(events.DAVIS240, 3, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	// Three far-apart events with no neighbours: all rejected.
	evs := []events.Event{
		{X: 10, Y: 10, T: 100, P: events.On},
		{X: 100, Y: 100, T: 200, P: events.Off},
		{X: 200, Y: 50, T: 300, P: events.On},
	}
	if got := f.Filter(evs); len(got) != 0 {
		t.Errorf("isolated events should be rejected, kept %d", len(got))
	}
}

func TestNNKeepsSupportedEvents(t *testing.T) {
	f, err := NewNN(events.DAVIS240, 3, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	evs := []events.Event{
		{X: 50, Y: 50, T: 100, P: events.On},  // no support yet: rejected
		{X: 51, Y: 50, T: 200, P: events.On},  // neighbour fired 100us ago: kept
		{X: 50, Y: 51, T: 300, P: events.Off}, // supported by both: kept
	}
	got := f.Filter(evs)
	if len(got) != 2 {
		t.Fatalf("kept %d events, want 2", len(got))
	}
	if got[0].T != 200 || got[1].T != 300 {
		t.Errorf("kept wrong events: %v", got)
	}
}

func TestNNSupportWindowExpires(t *testing.T) {
	f, err := NewNN(events.DAVIS240, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	evs := []events.Event{
		{X: 50, Y: 50, T: 0, P: events.On},
		{X: 51, Y: 50, T: 5000, P: events.On}, // neighbour too old: rejected
	}
	if got := f.Filter(evs); len(got) != 0 {
		t.Errorf("stale support should not count, kept %d", len(got))
	}
}

func TestNNSamePixelIsNotSupport(t *testing.T) {
	// Repeated firing of one pixel (stuck pixel) must not self-support.
	f, err := NewNN(events.DAVIS240, 3, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	evs := []events.Event{
		{X: 50, Y: 50, T: 0, P: events.On},
		{X: 50, Y: 50, T: 100, P: events.On},
		{X: 50, Y: 50, T: 200, P: events.On},
	}
	if got := f.Filter(evs); len(got) != 0 {
		t.Errorf("stuck pixel should be rejected, kept %d", len(got))
	}
}

func TestNNBorderSafe(t *testing.T) {
	f, err := NewNN(events.DAVIS240, 3, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	evs := []events.Event{
		{X: 0, Y: 0, T: 0, P: events.On},
		{X: 1, Y: 0, T: 10, P: events.On},
		{X: 239, Y: 179, T: 20, P: events.On},
	}
	got := f.Filter(evs) // must not panic at corners
	if len(got) != 1 {
		t.Errorf("kept %d, want 1 (only the supported corner-adjacent event)", len(got))
	}
}

func TestNNValidation(t *testing.T) {
	if _, err := NewNN(events.DAVIS240, 2, 1000); err == nil {
		t.Error("even p should error")
	}
	if _, err := NewNN(events.DAVIS240, 1, 1000); err == nil {
		t.Error("p=1 should error (no neighbours)")
	}
	if _, err := NewNN(events.DAVIS240, 3, 0); err == nil {
		t.Error("zero support window should error")
	}
	if _, err := NewNN(events.Resolution{}, 3, 1000); err == nil {
		t.Error("invalid resolution should error")
	}
}

func TestNNOpsCounting(t *testing.T) {
	f, err := NewNN(events.DAVIS240, 3, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	// An interior event touches 8 neighbours + 1 write = 9 ops.
	f.Filter([]events.Event{{X: 100, Y: 100, T: 0, P: events.On}})
	if got := f.Ops(); got != 9 {
		t.Errorf("interior event ops = %d, want 9", got)
	}
	// A corner event touches 3 neighbours + 1 write = 4 ops.
	before := f.Ops()
	f.Filter([]events.Event{{X: 0, Y: 0, T: 10, P: events.On}})
	if got := f.Ops() - before; got != 4 {
		t.Errorf("corner event ops = %d, want 4", got)
	}
}

func TestNNOnRealisticStream(t *testing.T) {
	// On a simulated noisy scene, the filter should keep most object events
	// and reject most noise.
	sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)
	cfg := sensor.DefaultConfig(77)
	cfg.NoiseRatePerPixelHz = 0.25
	sim, err := sensor.New(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	var all []events.Event
	for c := int64(0); c < 2_000_000; c += 66_000 {
		w, err := sim.Events(c, c+66_000)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, w...)
	}
	f, err := NewNN(events.DAVIS240, 3, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	kept := f.Filter(all)
	if len(kept) == 0 {
		t.Fatal("filter rejected everything")
	}
	// Count how many kept events lie near the object trajectory band.
	nearObject := func(evs []events.Event) float64 {
		n := 0
		for _, e := range evs {
			if int(e.Y) >= 68 && int(e.Y) <= 90 {
				n++
			}
		}
		return float64(n) / float64(len(evs))
	}
	before := nearObject(all)
	after := nearObject(kept)
	if after <= before {
		t.Errorf("filter should concentrate events on object: before %.3f after %.3f", before, after)
	}
	if after < 0.9 {
		t.Errorf("after filtering, %.3f of events near object, want > 0.9", after)
	}
}

func BenchmarkNNFilter(b *testing.B) {
	sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)
	cfg := sensor.DefaultConfig(5)
	sim, err := sensor.New(cfg, sc)
	if err != nil {
		b.Fatal(err)
	}
	evs, err := sim.Events(0, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	f, err := NewNN(events.DAVIS240, 3, 66_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Filter(evs)
	}
}
