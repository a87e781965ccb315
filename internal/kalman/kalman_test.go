package kalman

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"ebbiot/internal/geometry"
	"ebbiot/internal/xrand"
)

func TestFilterConvergesToConstantVelocity(t *testing.T) {
	f := newFilter(0, 0, 1.0, 4.0)
	// Feed measurements of an object moving at (3, -1) px/frame.
	for k := 1; k <= 30; k++ {
		f.predict()
		if err := f.update(3*float64(k), -1*float64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if vx, vy := f.vx, f.vy; math.Abs(vx-3) > 0.2 || math.Abs(vy+1) > 0.2 {
		t.Errorf("velocity = (%v, %v), want ~(3, -1)", vx, vy)
	}
	if cx, cy := f.px, f.py; math.Abs(cx-90) > 2 || math.Abs(cy+30) > 2 {
		t.Errorf("centroid = (%v, %v), want ~(90, -30)", cx, cy)
	}
}

func TestFilterSmoothsNoisyMeasurements(t *testing.T) {
	f := newFilter(0, 0, 0.5, 9.0)
	// Alternate +2/-2 noise around a fixed point; estimate should stay
	// closer to the truth than the raw measurements.
	noise := []float64{2, -2}
	for k := 0; k < 40; k++ {
		f.predict()
		if err := f.update(50+noise[k%2], 80); err != nil {
			t.Fatal(err)
		}
	}
	if cx := f.px; math.Abs(cx-50) > 1 {
		t.Errorf("smoothed centroid x = %v, want ~50", cx)
	}
}

// TestFilterStateLock pins the filter's float64 state bit for bit: a
// SHA-256 over both axes' position, velocity and covariance entries after
// every predict and every update, over seeded tracks with missed
// detections at three noise settings. Measurements are half-pixel box
// centres, computed exactly from integers. At q = r = 1e-14 the innovation
// variance falls below the singularity threshold within a few frames; the
// lock records the step where update fails, and requires that the failed
// update left the state as it was. At the ordinary settings every variance
// must stay non-negative. The digest was recorded on the dense 4-state
// matrix filter that this closed form replaced.
func TestFilterStateLock(t *testing.T) {
	const want = "c2d1fe01d3d63f559230e4195263ad186180f120faab5548a7e9cc37719f14d2"
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, n := range []struct {
		q, r     float64
		ordinary bool
	}{{1, 4, true}, {0.5, 9, true}, {1e-14, 1e-14, false}} {
		hashState := func(f *filter) {
			// The shared covariance is hashed once per axis, the layout
			// of the per-axis filter the digest was recorded on.
			for _, v := range []float64{f.px, f.vx, f.a, f.b, f.c, f.py, f.vy, f.a, f.b, f.c} {
				put(math.Float64bits(v))
			}
			if n.ordinary && (f.a < 0 || f.c < 0) {
				t.Fatalf("q=%g r=%g: negative variance in %+v", n.q, n.r, *f)
			}
		}
		fails := 0
		for seed := uint64(1); seed <= 50; seed++ {
			rng := xrand.New(seed)
			x0, y0 := rng.IntRange(0, 480), rng.IntRange(0, 360)
			vx, vy := rng.IntRange(-12, 12), rng.IntRange(-6, 6)
			meas := func(k int) (float64, float64) {
				return float64(x0+vx*k+rng.IntRange(-4, 4)) / 2, float64(y0+vy*k+rng.IntRange(-4, 4)) / 2
			}
			mx, my := meas(0)
			f := newFilter(mx, my, n.q, n.r)
			hashState(&f)
			for k := 1; k <= 60; k++ {
				f.predict()
				hashState(&f)
				if rng.Intn(5) == 0 {
					continue // a missed detection: the track coasts
				}
				mx, my := meas(k)
				before := f
				if err := f.update(mx, my); err != nil {
					if f != before {
						t.Fatalf("q=%g r=%g seed %d: failed update changed the state", n.q, n.r, seed)
					}
					put(uint64(k))
					fails++
					break
				}
				hashState(&f)
			}
		}
		if n.ordinary != (fails == 0) {
			t.Errorf("q=%g r=%g: %d of 50 tracks hit a singular innovation", n.q, n.r, fails)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("filter state digest = %s, want %s", got, want)
	}
}

func TestFilterUncertaintyGrowsWithoutMeasurements(t *testing.T) {
	f := newFilter(10, 10, 1, 4)
	if err := f.update(10, 10); err != nil {
		t.Fatal(err)
	}
	before := f.a
	for k := 0; k < 5; k++ {
		f.predict()
	}
	if f.a <= before {
		t.Errorf("position variance should grow during coasting: %v -> %v", before, f.a)
	}
}

// davis is the DAVIS240 array every test tracks on.
var davis = geometry.NewBox(0, 0, 240, 180)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.MaxTracks = 0 },
		func(c *Config) { c.GateDistance = 0 },
		func(c *Config) { c.ProcessNoise = 0 },
		func(c *Config) { c.MeasurementNoise = -1 },
		func(c *Config) { c.SizeBlend = 1.5 },
		func(c *Config) { c.MaxMisses = 0 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestTrackerFollowsObject(t *testing.T) {
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		t.Fatal(err)
	}
	obj := geometry.NewBox(10, 60, 30, 16)
	var last []Report
	for i := 0; i < 20; i++ {
		last, err = tr.Step([]geometry.Box{obj.Translate(4*i, 0)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(last) != 1 {
		t.Fatalf("want one track, got %d", len(last))
	}
	final := obj.Translate(4*19, 0)
	if last[0].Box.IoU(final) < 0.5 {
		t.Errorf("KF track %v lost object %v", last[0].Box, final)
	}
	if math.Abs(last[0].VX-4) > 1 {
		t.Errorf("VX = %v, want ~4", last[0].VX)
	}
}

func TestTrackerSeedsAndExpires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMisses = 2
	tr, err := New(cfg, davis)
	if err != nil {
		t.Fatal(err)
	}
	obj := geometry.NewBox(50, 60, 20, 12)
	if _, err := tr.Step([]geometry.Box{obj}); err != nil {
		t.Fatal(err)
	}
	if tr.ActiveTracks() != 1 {
		t.Fatal("track not seeded")
	}
	for i := 0; i < 3; i++ {
		if _, err := tr.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.ActiveTracks() != 0 {
		t.Errorf("track not expired after misses: %d", tr.ActiveTracks())
	}
}

func TestTrackerGating(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GateDistance = 10
	tr, err := New(cfg, davis)
	if err != nil {
		t.Fatal(err)
	}
	a := geometry.NewBox(50, 60, 20, 12)
	if _, err := tr.Step([]geometry.Box{a}); err != nil {
		t.Fatal(err)
	}
	// A proposal far outside the gate must seed a second track rather than
	// teleport the first.
	far := geometry.NewBox(150, 60, 20, 12)
	if _, err := tr.Step([]geometry.Box{far}); err != nil {
		t.Fatal(err)
	}
	if tr.ActiveTracks() != 2 {
		t.Errorf("far proposal should seed, have %d tracks", tr.ActiveTracks())
	}
}

func TestTrackerTwoObjects(t *testing.T) {
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		t.Fatal(err)
	}
	a := geometry.NewBox(20, 40, 24, 14)
	b := geometry.NewBox(180, 100, 30, 16)
	var reps []Report
	for i := 0; i < 10; i++ {
		reps, err = tr.Step([]geometry.Box{a.Translate(4*i, 0), b.Translate(-4*i, 0)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(reps) != 2 {
		t.Fatalf("want 2 tracks, got %d", len(reps))
	}
	ids := map[int]bool{reps[0].ID: true, reps[1].ID: true}
	if len(ids) != 2 {
		t.Error("tracks share an ID")
	}
}

func TestTrackerPoolCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTracks = 1
	tr, err := New(cfg, davis)
	if err != nil {
		t.Fatal(err)
	}
	props := []geometry.Box{
		geometry.NewBox(10, 10, 20, 12),
		geometry.NewBox(100, 100, 20, 12),
	}
	if _, err := tr.Step(props); err != nil {
		t.Fatal(err)
	}
	if tr.ActiveTracks() != 1 {
		t.Errorf("pool cap violated: %d", tr.ActiveTracks())
	}
}

func TestTrackerSingularInnovation(t *testing.T) {
	// Validate accepts any positive noise, but at q = r = 1e-14 the
	// innovation variance falls below the singularity threshold on a
	// track's second update. Step must fail there, on the third frame,
	// as the dense-matrix filter did.
	cfg := DefaultConfig()
	cfg.ProcessNoise, cfg.MeasurementNoise = 1e-14, 1e-14
	tr, err := New(cfg, davis)
	if err != nil {
		t.Fatal(err)
	}
	obj := geometry.NewBox(10, 60, 30, 16)
	for i := 0; i < 3; i++ {
		_, err = tr.Step([]geometry.Box{obj.Translate(4*i, 0)})
		if (err != nil) != (i == 2) {
			t.Fatalf("frame %d: err = %v, want a failure on frame 2 only", i, err)
		}
	}
	if !errors.Is(err, errSingular) {
		t.Errorf("err = %v, want %v", err, errSingular)
	}
}

func TestReportsInsideBounds(t *testing.T) {
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		t.Fatal(err)
	}
	edge := geometry.NewBox(225, 60, 14, 12)
	tr.Step([]geometry.Box{edge})
	reps, err := tr.Step([]geometry.Box{edge.Translate(5, 0).Clamp(davis)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		if !davis.ContainsBox(r.Box) {
			t.Errorf("report outside bounds: %v", r.Box)
		}
	}
}

func BenchmarkFilterPredictUpdate(b *testing.B) {
	f := newFilter(0, 0, 1, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.predict()
		if err := f.update(float64(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrackerStep(b *testing.B) {
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		b.Fatal(err)
	}
	props := []geometry.Box{
		geometry.NewBox(50, 60, 30, 16),
		geometry.NewBox(150, 90, 40, 20),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(props); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGreedyAssociationUnderContention(t *testing.T) {
	// Two tracks 30 px apart (centres 100 and 130), then two proposals
	// (centres 116 and 131) that both tracks' gates reach: greedy
	// association must still match each track and report both.
	cfg := DefaultConfig()
	cfg.GateDistance = 60
	tr, err := New(cfg, davis)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step([]geometry.Box{geometry.NewBox(90, 60, 20, 12), geometry.NewBox(120, 60, 20, 12)}); err != nil {
		t.Fatal(err)
	}
	reps, err := tr.Step([]geometry.Box{
		geometry.NewBox(106, 60, 20, 12),
		geometry.NewBox(121, 60, 20, 12),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Errorf("reported %d tracks, want 2", len(reps))
	}
}

func TestGreedyAssociationTracksCrossingObjects(t *testing.T) {
	// Two objects approaching each other: association must keep both
	// tracks matched every frame, ending with 2 live tracks.
	tr, err := New(DefaultConfig(), davis)
	if err != nil {
		t.Fatal(err)
	}
	a := geometry.NewBox(40, 60, 20, 12)
	b := geometry.NewBox(180, 60, 20, 12)
	for i := 0; i < 15; i++ {
		if _, err := tr.Step([]geometry.Box{a.Translate(5*i, 0), b.Translate(-5*i, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.ActiveTracks() != 2 {
		t.Errorf("association lost a track: %d", tr.ActiveTracks())
	}
}
