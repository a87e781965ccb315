package scene

import (
	"slices"
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
)

func TestKindString(t *testing.T) {
	if KindBus.String() != "bus" || KindHuman.String() != "human" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind formatting wrong")
	}
	if Kind(0).Valid() || Kind(7).Valid() {
		t.Error("invalid kinds should not validate")
	}
	if !KindCar.Valid() {
		t.Error("car should be valid")
	}
}

func TestObjectBoxAt(t *testing.T) {
	o := Object{ID: 1, Kind: KindCar, W: 30, H: 15, LaneY: 50, X0: -30, VX: 60, EnterUS: 0, ExitUS: 10_000_000}
	b0 := o.BoxAt(0)
	if b0.X != -30 || b0.Y != 50 || b0.W != 30 || b0.H != 15 {
		t.Errorf("box at t=0: %+v", b0)
	}
	// After 1 second at 60 px/s the box has moved 60 px.
	b1 := o.BoxAt(1_000_000)
	if b1.X != 30 {
		t.Errorf("box.X at t=1s = %v, want 30", b1.X)
	}
}

func TestObjectActive(t *testing.T) {
	o := Object{EnterUS: 100, ExitUS: 200}
	if o.Active(99) || o.Active(200) {
		t.Error("outside interval should be inactive")
	}
	if !o.Active(100) || !o.Active(199) {
		t.Error("inside interval should be active")
	}
}

func TestSceneAtDepthOrder(t *testing.T) {
	sc := CrossingScene(events.DAVIS240, 5_000_000)
	states := sc.At(1_000_000)
	if len(states) != 2 {
		t.Fatalf("want 2 active objects, got %d", len(states))
	}
	if states[0].Z > states[1].Z {
		t.Error("states must be ordered far-to-near")
	}
}

// TestAppendAtKeepsPrefix checks that AppendAt orders only what it
// appends: a reversed prefix survives, and the appended states are At's.
func TestAppendAtKeepsPrefix(t *testing.T) {
	sc := CrossingScene(events.DAVIS240, 5_000_000)
	prefix := sc.At(1_000_000)
	prefix[0], prefix[1] = prefix[1], prefix[0]
	got := sc.AppendAt(slices.Clone(prefix), 1_000_000)
	if !slices.Equal(got[:2], prefix) {
		t.Error("AppendAt reordered the prefix")
	}
	if !slices.Equal(got[2:], sc.At(1_000_000)) {
		t.Error("AppendAt appended other states than At returns")
	}
}

func TestSceneValidate(t *testing.T) {
	good := SingleObjectScene(events.DAVIS240, 1_000_000)
	if err := good.Validate(); err != nil {
		t.Errorf("good scene should validate: %v", err)
	}
	bad := &Scene{Res: events.DAVIS240, DurationUS: 100,
		Objects: []Object{{ID: 0, Kind: KindCar, W: 0, H: 5, EnterUS: 0, ExitUS: 10}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-width object should fail validation")
	}
	bad2 := &Scene{Res: events.DAVIS240, DurationUS: 100,
		Objects: []Object{{ID: 0, Kind: Kind(42), W: 5, H: 5, EnterUS: 0, ExitUS: 10}}}
	if err := bad2.Validate(); err == nil {
		t.Error("invalid kind should fail validation")
	}
	bad3 := &Scene{Res: events.DAVIS240, DurationUS: 100,
		Objects: []Object{{ID: 0, Kind: KindCar, W: 5, H: 5, EnterUS: 10, ExitUS: 5}}}
	if err := bad3.Validate(); err == nil {
		t.Error("exit before enter should fail validation")
	}
	if err := (&Scene{Res: events.DAVIS240, DurationUS: 0}).Validate(); err == nil {
		t.Error("zero duration should fail validation")
	}
}

func TestGroundTruthClamped(t *testing.T) {
	sc := SingleObjectScene(events.DAVIS240, 10_000_000)
	// At t=0 the car is fully off-screen to the left: no ground truth.
	if gt := sc.GroundTruth(0, 4); len(gt) != 0 {
		t.Errorf("off-screen object should have no GT, got %v", gt)
	}
	// Mid-recording it is fully visible.
	gt := sc.GroundTruth(2_000_000, 4)
	if len(gt) != 1 {
		t.Fatalf("want 1 GT box, got %d", len(gt))
	}
	bounds := geometry.NewBox(0, 0, 240, 180)
	if !bounds.ContainsBox(gt[0].Box) {
		t.Errorf("GT box %v outside sensor bounds", gt[0].Box)
	}
	if gt[0].Kind != KindCar || gt[0].ID != 0 {
		t.Errorf("GT label wrong: %+v", gt[0])
	}
}

func TestGroundTruthOcclusionSuppression(t *testing.T) {
	// Two same-lane objects directly on top of each other; the nearer one
	// fully covers the farther one.
	sc := &Scene{
		Res: events.DAVIS240, DurationUS: 1_000_000,
		Objects: []Object{
			{ID: 0, Kind: KindCar, W: 30, H: 16, LaneY: 50, X0: 100, VX: 0.001, EnterUS: 0, ExitUS: 1_000_000, Z: 1, EdgeDensity: 0.9, InteriorDensity: 0.2},
			{ID: 1, Kind: KindBus, W: 60, H: 30, LaneY: 45, X0: 90, VX: 0.001, EnterUS: 0, ExitUS: 1_000_000, Z: 2, EdgeDensity: 0.9, InteriorDensity: 0.05},
		},
	}
	gt := sc.GroundTruth(500_000, 4)
	if len(gt) != 1 {
		t.Fatalf("fully occluded object should be dropped, got %d boxes", len(gt))
	}
	if gt[0].ID != 1 {
		t.Errorf("surviving GT should be the near bus, got %+v", gt[0])
	}
}

func TestGenerateDeterminism(t *testing.T) {
	spec := TrafficSpec{
		Res:        events.DAVIS240,
		DurationUS: 30_000_000,
		Lanes: []Lane{
			{Y: 60, Dir: 1, Z: 1, ArrivalRateHz: 0.5},
			{Y: 40, Dir: -1, Z: 2, ArrivalRateHz: 0.3},
		},
		Seed: 99,
	}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Objects) != len(b.Objects) {
		t.Fatalf("object counts differ: %d vs %d", len(a.Objects), len(b.Objects))
	}
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			t.Fatalf("object %d differs:\n%+v\n%+v", i, a.Objects[i], b.Objects[i])
		}
	}
	spec.Seed = 100
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Objects) == len(c.Objects)
	if same {
		diff := false
		for i := range a.Objects {
			if a.Objects[i] != c.Objects[i] {
				diff = true
				break
			}
		}
		if !diff && len(a.Objects) > 0 {
			t.Error("different seeds produced identical scenes")
		}
	}
}

func TestGenerateObjectsWithinSpec(t *testing.T) {
	spec := TrafficSpec{
		Res:        events.DAVIS240,
		DurationUS: 60_000_000,
		Lanes:      []Lane{{Y: 60, Dir: 1, Z: 1, ArrivalRateHz: 1.0}},
		Seed:       7,
	}
	sc, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Objects) == 0 {
		t.Fatal("expected some objects at 1 Hz over 60 s")
	}
	profiles := DefaultProfiles()
	for _, o := range sc.Objects {
		p := profiles[o.Kind]
		if o.W < p.MinW || o.W > p.MaxW || o.H < p.MinH || o.H > p.MaxH {
			t.Errorf("object %d size %dx%d outside profile %+v", o.ID, o.W, o.H, p)
		}
		speed := o.VX
		if speed < 0 {
			speed = -speed
		}
		// The no-overtake rule may clamp a follower below its profile
		// minimum, but never above the maximum and never to a standstill.
		if speed <= 0 || speed > p.MaxSpeed {
			t.Errorf("object %d speed %v outside (0,%v]", o.ID, speed, p.MaxSpeed)
		}
		if o.EnterUS < 0 || o.EnterUS >= spec.DurationUS {
			t.Errorf("object %d enter time %d outside recording", o.ID, o.EnterUS)
		}
	}
}

func TestGenerateLensScale(t *testing.T) {
	mkSpec := func(scale float64) TrafficSpec {
		return TrafficSpec{
			Res:        events.DAVIS240,
			DurationUS: 120_000_000,
			Lanes:      []Lane{{Y: 60, Dir: 1, Z: 1, ArrivalRateHz: 0.5}},
			LensScale:  scale,
			Seed:       11,
		}
	}
	full, err := Generate(mkSpec(1.0))
	if err != nil {
		t.Fatal(err)
	}
	half, err := Generate(mkSpec(0.5))
	if err != nil {
		t.Fatal(err)
	}
	meanW := func(sc *Scene) float64 {
		s := 0
		for _, o := range sc.Objects {
			s += o.W
		}
		return float64(s) / float64(len(sc.Objects))
	}
	if len(full.Objects) == 0 || len(half.Objects) == 0 {
		t.Fatal("no objects generated")
	}
	r := meanW(half) / meanW(full)
	if r < 0.35 || r > 0.65 {
		t.Errorf("half lens scale mean width ratio = %v, want ~0.5", r)
	}
}

func TestGenerateErrors(t *testing.T) {
	base := TrafficSpec{Res: events.DAVIS240, DurationUS: 1000, Lanes: []Lane{{Y: 1, Dir: 1, ArrivalRateHz: 1}}}
	bad := base
	bad.DurationUS = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero duration should error")
	}
	bad = base
	bad.Lanes = nil
	if _, err := Generate(bad); err == nil {
		t.Error("no lanes should error")
	}
	bad = base
	bad.Lanes = []Lane{{Y: 1, Dir: 1, ArrivalRateHz: 0}}
	if _, err := Generate(bad); err == nil {
		t.Error("zero arrival rate should error")
	}
	bad = base
	bad.Res = events.Resolution{}
	if _, err := Generate(bad); err == nil {
		t.Error("invalid resolution should error")
	}
}

func TestTrackCount(t *testing.T) {
	sc := SingleObjectScene(events.DAVIS240, 10_000_000)
	if got := sc.TrackCount(); got != 1 {
		t.Errorf("TrackCount = %d, want 1", got)
	}
	cross := CrossingScene(events.DAVIS240, 5_000_000)
	if got := cross.TrackCount(); got != 2 {
		t.Errorf("crossing TrackCount = %d, want 2", got)
	}
}

func TestPickKindDistribution(t *testing.T) {
	spec := TrafficSpec{
		Res:        events.DAVIS240,
		DurationUS: 600_000_000,
		Lanes: []Lane{{
			Y: 60, Dir: 1, Z: 1, ArrivalRateHz: 2,
			Kinds: map[Kind]float64{KindCar: 0.8, KindBus: 0.2},
		}},
		Seed: 3,
	}
	sc, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Kind]int{}
	for _, o := range sc.Objects {
		counts[o.Kind]++
	}
	if counts[KindHuman] != 0 || counts[KindTruck] != 0 {
		t.Error("kinds outside the lane mix should not appear")
	}
	total := counts[KindCar] + counts[KindBus]
	if total == 0 {
		t.Fatal("no objects generated")
	}
	frac := float64(counts[KindCar]) / float64(total)
	if frac < 0.7 || frac > 0.9 {
		t.Errorf("car fraction = %v, want ~0.8", frac)
	}
}

func TestCrossingSceneActuallyCrosses(t *testing.T) {
	sc := CrossingScene(events.DAVIS240, 5_000_000)
	crossed := false
	for tUS := int64(0); tUS < sc.DurationUS; tUS += 66_000 {
		st := sc.At(tUS)
		if len(st) == 2 && st[0].Box.IntersectionArea(st[1].Box) > 0 {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Error("crossing scene objects never overlap")
	}
}

func TestNoOvertakeInvariant(t *testing.T) {
	// Objects sharing a lane must never overlap: the no-overtake rule
	// caps a follower's speed while its leader is still crossing.
	spec := TrafficSpec{
		Res:        events.DAVIS240,
		DurationUS: 300_000_000,
		Lanes:      []Lane{{Y: 60, Dir: 1, Z: 1, ArrivalRateHz: 1.2}},
		Seed:       5,
	}
	sc, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Objects) < 10 {
		t.Fatalf("expected a busy lane, got %d objects", len(sc.Objects))
	}
	for tUS := int64(0); tUS < spec.DurationUS; tUS += 500_000 {
		states := sc.At(tUS)
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				a, b := states[i].Box, states[j].Box
				if a.IntersectionArea(b) > 1 { // float rounding tolerance
					t.Fatalf("objects %d and %d overlap at t=%dus: %v vs %v",
						states[i].ID, states[j].ID, tUS, a, b)
				}
			}
		}
	}
}
