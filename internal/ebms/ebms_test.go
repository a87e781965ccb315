package ebms

import (
	"math"
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
	"ebbiot/internal/xrand"
)

// burst generates count events scattered within radius r of (cx, cy)
// between t0 and t1.
func burst(rng *xrand.Rand, cx, cy int, r int, count int, t0, t1 int64) []events.Event {
	out := make([]events.Event, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, events.Event{
			X: int16(cx + rng.IntRange(-r, r)),
			Y: int16(cy + rng.IntRange(-r, r)),
			T: t0 + int64(rng.Float64()*float64(t1-t0)),
			P: events.On,
		})
	}
	events.SortByTime(out)
	return out
}

// davis is the DAVIS240 array every test tracks on.
var davis = geometry.NewBox(0, 0, 240, 180)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.MaxClusters = 0 },
		func(c *Config) { c.Radius = 0 },
		func(c *Config) { c.MixFactor = 0 },
		func(c *Config) { c.MixFactor = 2 },
		func(c *Config) { c.ExpiryUS = 0 },
		func(c *Config) { c.HistoryStrideUS = 0 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestSingleClusterForms(t *testing.T) {
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	tr.Process(burst(rng, 100, 90, 8, 200, 0, 50_000))
	if tr.ActiveClusters() != 1 {
		t.Fatalf("active clusters = %d, want 1", tr.ActiveClusters())
	}
	reps := tr.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d, want 1", len(reps))
	}
	cx, cy := reps[0].Box.Center()
	if math.Abs(cx-100) > 6 || math.Abs(cy-90) > 6 {
		t.Errorf("cluster center (%v, %v), want ~(100, 90)", cx, cy)
	}
}

func TestClusterTracksMovingBurst(t *testing.T) {
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	// Object moving right at 60 px/s: bursts every 33 ms moving 2 px.
	for k := 0; k < 40; k++ {
		cx := 40 + 2*k
		t0 := int64(k) * 33_000
		tr.Process(burst(rng, cx, 90, 6, 60, t0, t0+33_000))
	}
	reps := tr.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d, want 1", len(reps))
	}
	ccx, _ := reps[0].Box.Center()
	want := 40.0 + 2*39
	if math.Abs(ccx-want) > 10 {
		t.Errorf("cluster x = %v, want ~%v", ccx, want)
	}
	// Velocity regression should see ~60 px/s rightward.
	if reps[0].VX < 30 || reps[0].VX > 90 {
		t.Errorf("VX = %v px/s, want ~60", reps[0].VX)
	}
	if math.Abs(reps[0].VY) > 15 {
		t.Errorf("VY = %v px/s, want ~0", reps[0].VY)
	}
}

func TestTwoClustersSeparate(t *testing.T) {
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	a := burst(rng, 50, 50, 6, 150, 0, 50_000)
	b := burst(rng, 180, 120, 6, 150, 0, 50_000)
	merged, err := events.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	tr.Process(merged)
	if tr.ActiveClusters() != 2 {
		t.Fatalf("active clusters = %d, want 2", tr.ActiveClusters())
	}
}

func TestClusterExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExpiryUS = 100_000
	tr, err := New(cfg, davis)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	tr.Process(burst(rng, 100, 90, 6, 100, 0, 30_000))
	if tr.ActiveClusters() != 1 {
		t.Fatal("cluster not formed")
	}
	// A lone far-away event much later triggers expiry sweep.
	tr.Process([]events.Event{{X: 10, Y: 10, T: 400_000, P: events.On}})
	// The original cluster should be gone; only the new seed remains.
	if got := tr.ActiveClusters(); got != 1 {
		t.Fatalf("after expiry active = %d, want 1 (the new seed)", got)
	}
	if len(tr.Reports()) != 0 {
		t.Error("fresh seed should not be visible yet")
	}
}

func TestClustersMerge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MergeDistance = 15
	tr, err := New(cfg, davis)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	// Two clusters seeded apart, then their event sources converge until
	// the cluster centers come within MergeDistance.
	tr.Process(burst(rng, 50, 90, 5, 100, 0, 20_000))
	tr.Process(burst(rng, 140, 90, 5, 100, 0, 20_000))
	if tr.ActiveClusters() != 2 {
		t.Fatalf("precondition: want 2 clusters, got %d", tr.ActiveClusters())
	}
	// Move the two bursts toward each other, 2 px per 10 ms step.
	for k := 0; k < 22; k++ {
		t0 := 20_000 + int64(k)*10_000
		left := burst(rng, 50+2*k, 90, 5, 60, t0, t0+10_000)
		right := burst(rng, 140-2*k, 90, 5, 60, t0, t0+10_000)
		merged, err := events.Merge(left, right)
		if err != nil {
			t.Fatal(err)
		}
		tr.Process(merged)
	}
	if tr.ActiveClusters() != 1 {
		t.Errorf("converged clusters should merge: %d active", tr.ActiveClusters())
	}
	if tr.Merges() == 0 {
		t.Error("merge counter did not advance")
	}
}

func TestClusterCapRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxClusters = 2
	tr, err := New(cfg, davis)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(6)
	streams := [][]events.Event{
		burst(rng, 30, 30, 4, 50, 0, 10_000),
		burst(rng, 120, 120, 4, 50, 0, 10_000),
		burst(rng, 200, 60, 4, 50, 0, 10_000),
	}
	var all []events.Event
	for _, s := range streams {
		all, err = events.Merge(all, s)
		if err != nil {
			t.Fatal(err)
		}
	}
	tr.Process(all)
	if tr.ActiveClusters() > 2 {
		t.Errorf("cluster cap exceeded: %d", tr.ActiveClusters())
	}
}

func TestSupportThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SupportEvents = 50
	tr, err := New(cfg, davis)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	tr.Process(burst(rng, 100, 90, 5, 30, 0, 10_000))
	if len(tr.Reports()) != 0 {
		t.Error("under-supported cluster should not be reported")
	}
	tr.Process(burst(rng, 100, 90, 5, 40, 10_000, 20_000))
	if len(tr.Reports()) != 1 {
		t.Error("supported cluster should be reported")
	}
}

func TestOpsAndEventsCounters(t *testing.T) {
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(8)
	tr.Process(burst(rng, 100, 90, 5, 100, 0, 10_000))
	if tr.EventsSeen() != 100 {
		t.Errorf("EventsSeen = %d", tr.EventsSeen())
	}
	if tr.Ops() == 0 {
		t.Error("ops counter did not advance")
	}
}

func TestOnSimulatedScene(t *testing.T) {
	// End-to-end: EBMS on a clean simulated car should track it.
	sc := scene.SingleObjectScene(events.DAVIS240, 3_000_000)
	cfg := sensor.DefaultConfig(99)
	cfg.NoiseRatePerPixelHz = 0
	sim, err := sensor.New(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 3_000_000; c += 66_000 {
		evs, err := sim.Events(c, c+66_000)
		if err != nil {
			t.Fatal(err)
		}
		tr.Process(evs)
	}
	reps := tr.Reports()
	if len(reps) == 0 {
		t.Fatal("EBMS lost the object")
	}
	// At t=3s, the car (entered x=-32, 60 px/s) spans x in [148, 180].
	gt := sc.GroundTruth(3_000_000-33_000, 4)
	if len(gt) != 1 {
		t.Fatal("no ground truth")
	}
	cx, _ := reps[0].Box.Center()
	gcx, _ := gt[0].Box.Center()
	if math.Abs(cx-gcx) > 20 {
		t.Errorf("cluster x = %v, ground truth x = %v", cx, gcx)
	}
}

func BenchmarkProcessPerEvent(b *testing.B) {
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	evs := burst(rng, 100, 90, 10, 10000, 0, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Process(evs[i%len(evs) : i%len(evs)+1])
	}
}
