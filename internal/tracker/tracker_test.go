package tracker

import (
	"math"
	"testing"
	"testing/quick"

	"ebbiot/internal/geometry"
	"ebbiot/internal/roe"
)

// davis is the DAVIS240 array every test tracks on.
var davis = geometry.NewBox(0, 0, 240, 180)

func mustNew(t *testing.T, cfg Config) *Tracker {
	t.Helper()
	tr, err := New(cfg, davis)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.MaxTrackers = 0 },
		func(c *Config) { c.MatchFraction = 0 },
		func(c *Config) { c.MatchFraction = 1.5 },
		func(c *Config) { c.PositionBlend = -0.1 },
		func(c *Config) { c.SizeBlend = 2 },
		func(c *Config) { c.VelocityBlend = -1 },
		func(c *Config) { c.OcclusionSteps = -1 },
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

func TestSeedAndConfirm(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	p := geometry.NewBox(50, 50, 30, 16)
	// First frame: track seeded but unconfirmed (MinHits = 2).
	if got := tr.Step([]geometry.Box{p}); len(got) != 0 {
		t.Errorf("track reported before confirmation: %v", got)
	}
	if tr.ActiveTracks() != 1 {
		t.Fatalf("active tracks = %d, want 1", tr.ActiveTracks())
	}
	// Second frame: matched again, now confirmed.
	got := tr.Step([]geometry.Box{p.Translate(3, 0)})
	if len(got) != 1 {
		t.Fatalf("confirmed track not reported: %v", got)
	}
	if got[0].Box.IoU(p.Translate(3, 0)) < 0.5 {
		t.Errorf("reported box %v far from proposal", got[0].Box)
	}
}

func TestTrackFollowsMovingObject(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	obj := geometry.NewBox(10, 60, 30, 16)
	var last []Report
	for i := 0; i < 20; i++ {
		last = tr.Step([]geometry.Box{obj.Translate(4*i, 0)})
	}
	if len(last) != 1 {
		t.Fatalf("want one track, got %d", len(last))
	}
	final := obj.Translate(4*19, 0)
	if last[0].Box.IoU(final) < 0.6 {
		t.Errorf("track %v lost object %v (IoU %.2f)", last[0].Box, final, last[0].Box.IoU(final))
	}
	// Velocity estimate should converge to ~4 px/frame rightward.
	if math.Abs(last[0].VX-4) > 1.5 {
		t.Errorf("VX = %v, want ~4", last[0].VX)
	}
	if math.Abs(last[0].VY) > 1 {
		t.Errorf("VY = %v, want ~0", last[0].VY)
	}
	// Track identity must be stable across the sequence.
	if tr.ActiveTracks() != 1 {
		t.Errorf("active tracks = %d", tr.ActiveTracks())
	}
}

func TestCoastingAndExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMisses = 2
	tr := mustNew(t, cfg)
	obj := geometry.NewBox(50, 60, 30, 16)
	tr.Step([]geometry.Box{obj})
	tr.Step([]geometry.Box{obj.Translate(4, 0)})
	if tr.ActiveTracks() != 1 {
		t.Fatal("track not established")
	}
	// Proposals vanish: the track coasts for MaxMisses frames then frees.
	tr.Step(nil)
	tr.Step(nil)
	if tr.ActiveTracks() != 1 {
		t.Fatalf("track freed too early")
	}
	tr.Step(nil)
	if tr.ActiveTracks() != 0 {
		t.Errorf("track not freed after %d misses", cfg.MaxMisses+1)
	}
}

func TestCoastingPredictsThroughGap(t *testing.T) {
	// A two-frame detection dropout: prediction should carry the track so
	// that the object is re-acquired with the same ID.
	tr := mustNew(t, DefaultConfig())
	obj := geometry.NewBox(20, 60, 30, 16)
	var id int
	for i := 0; i < 6; i++ {
		reps := tr.Step([]geometry.Box{obj.Translate(5*i, 0)})
		if len(reps) > 0 {
			id = reps[0].ID
		}
	}
	tr.Step(nil) // dropout frames
	tr.Step(nil)
	reps := tr.Step([]geometry.Box{obj.Translate(5*8, 0)})
	if len(reps) != 1 {
		t.Fatalf("track lost through dropout: %v", reps)
	}
	if reps[0].ID != id {
		t.Errorf("track ID changed across dropout: %d -> %d", id, reps[0].ID)
	}
}

func TestFragmentedProposalsMerged(t *testing.T) {
	// One object fragmenting into two proposals: step 4 merges them into
	// one track; no second track may be seeded.
	tr := mustNew(t, DefaultConfig())
	whole := geometry.NewBox(50, 60, 40, 16)
	tr.Step([]geometry.Box{whole})
	tr.Step([]geometry.Box{whole.Translate(4, 0)})
	left := geometry.NewBox(58, 60, 14, 16)
	right := geometry.NewBox(80, 60, 14, 16)
	reps := tr.Step([]geometry.Box{left, right})
	if tr.ActiveTracks() != 1 {
		t.Fatalf("fragmentation seeded extra tracks: %d active", tr.ActiveTracks())
	}
	if len(reps) != 1 {
		t.Fatalf("want 1 report, got %d", len(reps))
	}
	// The track should span roughly the union of the fragments, with
	// history damping.
	if reps[0].Box.W < 25 {
		t.Errorf("merged track too narrow: %v", reps[0].Box)
	}
}

func TestPoolExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTrackers = 2
	tr := mustNew(t, cfg)
	props := []geometry.Box{
		geometry.NewBox(10, 10, 20, 12),
		geometry.NewBox(60, 60, 20, 12),
		geometry.NewBox(120, 120, 20, 12), // no slot for this one
	}
	tr.Step(props)
	if tr.ActiveTracks() != 2 {
		t.Errorf("active = %d, want pool cap 2", tr.ActiveTracks())
	}
}

func TestTrackFreedWhenLeavingFrame(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	// Object moving right at 12 px/frame near the right edge.
	obj := geometry.NewBox(200, 60, 24, 16)
	for i := 0; i < 4; i++ {
		tr.Step([]geometry.Box{obj.Translate(8*i, 0).Clamp(davis)})
	}
	// Let it coast out of the frame.
	for i := 0; i < 8; i++ {
		tr.Step(nil)
	}
	if tr.ActiveTracks() != 0 {
		t.Errorf("off-screen track not freed: %d active", tr.ActiveTracks())
	}
}

func TestOcclusionCoasting(t *testing.T) {
	// Two tracks with crossing trajectories receive one merged proposal at
	// the crossing: with occlusion handling they must both survive and keep
	// separate identities.
	cfg := DefaultConfig()
	tr := mustNew(t, cfg)
	// Establish two tracks moving toward each other.
	a := geometry.NewBox(40, 60, 24, 14)
	b := geometry.NewBox(160, 62, 24, 14)
	var ids []int
	for i := 0; i < 8; i++ {
		reps := tr.Step([]geometry.Box{a.Translate(6*i, 0), b.Translate(-6*i, 0)})
		ids = nil
		for _, r := range reps {
			ids = append(ids, r.ID)
		}
	}
	if len(ids) != 2 {
		t.Fatalf("want 2 established tracks, got %d", len(ids))
	}
	// Crossing frames: a single merged proposal covering both.
	merged := geometry.NewBox(85, 60, 40, 16)
	tr.Step([]geometry.Box{merged})
	tr.Step([]geometry.Box{merged.Translate(0, 0)})
	if tr.ActiveTracks() != 2 {
		t.Fatalf("occlusion collapsed tracks: %d active", tr.ActiveTracks())
	}
	// After crossing, two separate proposals reappear; both tracks should
	// reattach without new IDs.
	reps := tr.Step([]geometry.Box{
		geometry.NewBox(40+6*11, 60, 24, 14),
		geometry.NewBox(160-6*11, 62, 24, 14),
	})
	if len(reps) != 2 {
		t.Fatalf("tracks lost after occlusion: %d", len(reps))
	}
	for _, r := range reps {
		if r.ID != ids[0] && r.ID != ids[1] {
			t.Errorf("new ID %d appeared after occlusion (had %v)", r.ID, ids)
		}
	}
}

func TestFragmentMergeWithoutOcclusion(t *testing.T) {
	// Two tracks with nearly identical velocity contesting one proposal are
	// fragments of the same object: they must merge into one track.
	cfg := DefaultConfig()
	tr := mustNew(t, cfg)
	left := geometry.NewBox(50, 60, 14, 16)
	right := geometry.NewBox(72, 60, 14, 16)
	// Seed as two separate slow-moving tracks (same velocity).
	for i := 0; i < 4; i++ {
		tr.Step([]geometry.Box{left.Translate(3*i, 0), right.Translate(3*i, 0)})
	}
	if tr.ActiveTracks() != 2 {
		t.Fatalf("precondition: want 2 tracks, got %d", tr.ActiveTracks())
	}
	// The object defragments into one proposal spanning both.
	whole := geometry.NewBox(50+12, 60, 36, 16)
	tr.Step([]geometry.Box{whole})
	if tr.ActiveTracks() != 1 {
		t.Errorf("same-velocity contention should merge tracks: %d active", tr.ActiveTracks())
	}
}

func TestOcclusionHandlingDisabledMerges(t *testing.T) {
	// A2 ablation: with occlusion handling off, crossing tracks collapse.
	cfg := DefaultConfig()
	cfg.OcclusionHandling = false
	tr := mustNew(t, cfg)
	a := geometry.NewBox(40, 60, 24, 14)
	b := geometry.NewBox(160, 62, 24, 14)
	for i := 0; i < 8; i++ {
		tr.Step([]geometry.Box{a.Translate(6*i, 0), b.Translate(-6*i, 0)})
	}
	if tr.ActiveTracks() != 2 {
		t.Fatalf("precondition failed: %d active", tr.ActiveTracks())
	}
	merged := geometry.NewBox(85, 60, 40, 16)
	tr.Step([]geometry.Box{merged})
	if tr.ActiveTracks() != 1 {
		t.Errorf("without occlusion handling contention must merge: %d active", tr.ActiveTracks())
	}
}

func TestROEFiltersProposals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROE = roe.New(geometry.NewBox(0, 120, 240, 60)) // top band = tree zone
	tr := mustNew(t, cfg)
	inROE := geometry.NewBox(100, 140, 20, 12)
	clear := geometry.NewBox(100, 60, 20, 12)
	tr.Step([]geometry.Box{inROE, clear})
	tr.Step([]geometry.Box{inROE, clear})
	if tr.ActiveTracks() != 1 {
		t.Errorf("ROE proposal seeded a track: %d active", tr.ActiveTracks())
	}
	reps := tr.Step([]geometry.Box{clear})
	if len(reps) != 1 {
		t.Fatalf("clear track missing")
	}
	if !clear.Overlaps(reps[0].Box) {
		t.Errorf("surviving track at %v, want near %v", reps[0].Box, clear)
	}
}

func TestReportsClampedToBounds(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	edge := geometry.NewBox(220, 60, 19, 14)
	tr.Step([]geometry.Box{edge})
	reps := tr.Step([]geometry.Box{edge.Translate(6, 0).Clamp(davis)})
	for _, r := range reps {
		if !davis.ContainsBox(r.Box) {
			t.Errorf("report %v outside bounds", r.Box)
		}
	}
}

func TestVelocityRetainedDuringOcclusionCoast(t *testing.T) {
	cfg := DefaultConfig()
	tr := mustNew(t, cfg)
	a := geometry.NewBox(40, 60, 24, 14)
	b := geometry.NewBox(160, 62, 24, 14)
	for i := 0; i < 8; i++ {
		tr.Step([]geometry.Box{a.Translate(6*i, 0), b.Translate(-6*i, 0)})
	}
	var vxBefore []float64
	for _, trk := range tr.Tracks() {
		vxBefore = append(vxBefore, trk.VX)
	}
	merged := geometry.NewBox(85, 60, 40, 16)
	tr.Step([]geometry.Box{merged})
	for i, trk := range tr.Tracks() {
		if math.Abs(trk.VX-vxBefore[i]) > 1e-9 {
			t.Errorf("track %d velocity changed during occlusion coast: %v -> %v", i, vxBefore[i], trk.VX)
		}
	}
}

func TestOpsCounterAdvances(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	tr.Step([]geometry.Box{geometry.NewBox(10, 10, 20, 10)})
	if tr.Ops() == 0 {
		t.Error("ops counter did not advance")
	}
	if tr.Frame() != 1 {
		t.Errorf("frame counter = %d", tr.Frame())
	}
}

func TestStepNoProposalsNoTracks(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	if got := tr.Step(nil); len(got) != 0 {
		t.Errorf("empty step produced reports: %v", got)
	}
}

func BenchmarkStepTwoTracks(b *testing.B) {
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
		tr.Step(props)
	}
}

func TestStepInvariantsProperty(t *testing.T) {
	// Whatever proposals arrive, the tracker must maintain its invariants:
	// reports lie inside bounds, the pool never exceeds MaxTrackers, IDs
	// never repeat across distinct live tracks, and velocities stay finite.
	prop := func(seed []uint16) bool {
		cfg := DefaultConfig()
		tr, err := New(cfg, davis)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for step := 0; step < 30; step++ {
			var props []geometry.Box
			for i := 0; i+3 < len(seed); i += 4 {
				if (int(seed[i])+step)%3 == 0 {
					props = append(props, geometry.NewBox(
						int(seed[i])%250-5,
						int(seed[i+1])%190-5,
						1+int(seed[i+2])%60,
						1+int(seed[i+3])%40,
					))
				}
			}
			reports := tr.Step(props)
			if tr.ActiveTracks() > cfg.MaxTrackers {
				return false
			}
			ids := map[int]bool{}
			for _, r := range reports {
				if !davis.ContainsBox(r.Box) || r.Box.Empty() {
					return false
				}
				if ids[r.ID] {
					return false // duplicate ID within a frame
				}
				ids[r.ID] = true
				if math.IsNaN(r.VX) || math.IsInf(r.VX, 0) || math.IsNaN(r.VY) || math.IsInf(r.VY, 0) {
					return false
				}
				seen[r.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestIDsNeverReused(t *testing.T) {
	// Track IDs are globally unique across the tracker's lifetime even as
	// slots are recycled.
	cfg := DefaultConfig()
	cfg.MaxMisses = 1
	tr := mustNew(t, cfg)
	assigned := map[int]int{} // ID -> generation
	gen := 0
	for cycle := 0; cycle < 10; cycle++ {
		gen++
		p := geometry.NewBox(20+cycle*5, 60, 20, 12)
		for i := 0; i < 3; i++ {
			for _, r := range tr.Step([]geometry.Box{p.Translate(3*i, 0)}) {
				if g, ok := assigned[r.ID]; ok && g != gen {
					t.Fatalf("ID %d reused across generations %d and %d", r.ID, g, gen)
				}
				assigned[r.ID] = gen
			}
		}
		// Kill the track.
		for i := 0; i < cfg.MaxMisses+2; i++ {
			tr.Step(nil)
		}
		if tr.ActiveTracks() != 0 {
			t.Fatalf("cycle %d: track survived starvation", cycle)
		}
	}
}
