package scene

import (
	"fmt"
	"sort"

	"ebbiot/internal/events"
	"ebbiot/internal/xrand"
)

// Lane describes one traffic lane in the side-view scene.
type Lane struct {
	// Y is the pixel row of the lane floor (object bottom edge).
	Y int
	// Dir is +1 for left-to-right traffic, -1 for right-to-left.
	Dir int
	// Z is the lane's depth order; nearer lanes (larger Z) occlude farther
	// ones where boxes overlap, producing the paper's dynamic occlusions.
	Z int
	// ArrivalRateHz is the mean object arrival rate on this lane.
	ArrivalRateHz float64
	// Kinds is the mix of object kinds on this lane with relative weights.
	// An empty map means the full default vehicle mix.
	Kinds map[Kind]float64
}

// TrafficSpec parameterises the synthetic traffic generator.
type TrafficSpec struct {
	Res        events.Resolution
	DurationUS int64
	Lanes      []Lane
	// LensScale scales object sizes: 1.0 reproduces the ENG 12 mm geometry,
	// 0.5 the wider LT4 6 mm view where objects appear half as large.
	LensScale float64
	// Profiles overrides the per-kind profiles; nil uses DefaultProfiles.
	Profiles map[Kind]Profile
	// Distractors to embed (tree clutter for ROE experiments).
	Distractors []Distractor
	// MinGapUS enforces a minimum headway between consecutive arrivals on
	// the same lane so objects do not spawn overlapping.
	MinGapUS int64
	// Seed drives all randomness; equal specs with equal seeds produce
	// identical scenes.
	Seed uint64
}

func defaultKindMix() map[Kind]float64 {
	return map[Kind]float64{
		KindHuman: 0.10,
		KindBike:  0.10,
		KindCar:   0.45,
		KindVan:   0.15,
		KindTruck: 0.10,
		KindBus:   0.10,
	}
}

// pickKind draws a kind from the weighted mix.
func pickKind(r *xrand.Rand, mix map[Kind]float64) Kind {
	total := 0.0
	kinds := make([]Kind, 0, len(mix))
	for k := range mix {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		total += mix[k]
	}
	u := r.Float64() * total
	acc := 0.0
	for _, k := range kinds {
		acc += mix[k]
		if u < acc {
			return k
		}
	}
	return kinds[len(kinds)-1]
}

// Generate synthesises a Scene from the spec. Arrivals on each lane follow
// a Poisson process thinned by the minimum headway; each object's size and
// speed are drawn from its kind profile scaled by the lens factor.
func Generate(spec TrafficSpec) (*Scene, error) {
	if err := spec.Res.Validate(); err != nil {
		return nil, err
	}
	if spec.DurationUS <= 0 {
		return nil, fmt.Errorf("scene: non-positive duration %d", spec.DurationUS)
	}
	if len(spec.Lanes) == 0 {
		return nil, fmt.Errorf("scene: no lanes in spec")
	}
	if spec.LensScale <= 0 {
		spec.LensScale = 1.0
	}
	profiles := spec.Profiles
	if profiles == nil {
		profiles = DefaultProfiles()
	}

	root := xrand.New(spec.Seed)
	sc := &Scene{Res: spec.Res, DurationUS: spec.DurationUS, Distractors: spec.Distractors}
	id := 0
	for li, lane := range spec.Lanes {
		laneRng := root.Fork()
		mix := lane.Kinds
		if len(mix) == 0 {
			mix = defaultKindMix()
		}
		if lane.ArrivalRateHz <= 0 {
			return nil, fmt.Errorf("scene: lane %d has non-positive arrival rate", li)
		}
		t := 0.0 // seconds
		prevSpeed := 0.0
		prevEnter := 0.0
		prevW := 0
		prevExit := 0.0 // when the previous object finishes crossing
		for {
			t += laneRng.ExpFloat64() / lane.ArrivalRateHz
			if spec.MinGapUS > 0 {
				t += float64(float64(spec.MinGapUS) / 1e6 * laneRng.Float64())
			}
			kind := pickKind(laneRng, mix)
			prof, ok := profiles[kind]
			if !ok {
				return nil, fmt.Errorf("scene: no profile for kind %v", kind)
			}
			w := scaleDim(laneRng.IntRange(prof.MinW, prof.MaxW), spec.LensScale)
			h := scaleDim(laneRng.IntRange(prof.MinH, prof.MaxH), spec.LensScale)
			speed := laneRng.Range(prof.MinSpeed, prof.MaxSpeed) * spec.LensScale
			// No-overtake rule, part 1: a follower may not spawn until its
			// leader has cleared the spawn point plus a safety gap (objects
			// in one lane cannot physically overlap).
			if prevSpeed > 0 {
				if clearT := prevEnter + (float64(prevW)+4)/prevSpeed; t < clearT {
					t = clearT
				}
			}
			// Part 2: while the leader is still crossing, the follower may
			// not be faster, or the two would pass through each other.
			if t < prevExit && prevSpeed > 0 && speed > prevSpeed {
				speed = prevSpeed
			}
			enterUS := int64(t * 1e6)
			if enterUS >= spec.DurationUS {
				break
			}
			vx := speed * float64(lane.Dir)
			// Start just off-screen and cross the full width.
			var x0 float64
			if lane.Dir >= 0 {
				x0 = -float64(w)
			} else {
				x0 = float64(spec.Res.A)
			}
			travel := float64(spec.Res.A + w) // pixels to fully cross
			durUS := int64(travel / speed * 1e6)
			prevSpeed = speed
			prevEnter = t
			prevW = w
			prevExit = t + travel/speed
			obj := Object{
				ID: id, Kind: kind, W: w, H: h,
				LaneY: lane.Y, X0: x0, VX: vx,
				EnterUS: enterUS, ExitUS: enterUS + durUS,
				Z:               lane.Z,
				EdgeDensity:     prof.EdgeDensity,
				InteriorDensity: prof.InteriorDensity,
			}
			sc.Objects = append(sc.Objects, obj)
			id++
		}
	}
	sort.Slice(sc.Objects, func(i, j int) bool {
		if sc.Objects[i].EnterUS != sc.Objects[j].EnterUS {
			return sc.Objects[i].EnterUS < sc.Objects[j].EnterUS
		}
		return sc.Objects[i].ID < sc.Objects[j].ID
	})
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func scaleDim(v int, scale float64) int {
	s := int(float64(float64(v)*scale) + 0.5)
	if s < 2 {
		s = 2
	}
	return s
}

// CrossingScene builds a deterministic two-object scene in which two cars
// travelling in opposite directions on overlapping lanes cross mid-frame —
// the dynamic-occlusion case of tracker step 5. Both tracks are well
// established before the crossing, the images merge during it, and the
// objects separate afterwards. Used by tests, the occlusion example and
// the A2 ablation bench.
func CrossingScene(res events.Resolution, durationUS int64) *Scene {
	return &Scene{
		Res:        res,
		DurationUS: durationUS,
		Objects: []Object{
			{
				ID: 0, Kind: KindCar, W: 30, H: 16, LaneY: 60,
				X0: -30, VX: 55, EnterUS: 0, ExitUS: durationUS, Z: 1,
				EdgeDensity: 0.9, InteriorDensity: 0.18,
			},
			{
				ID: 1, Kind: KindCar, W: 32, H: 18, LaneY: 64,
				X0: float64(res.A), VX: -55, EnterUS: 0, ExitUS: durationUS, Z: 2,
				EdgeDensity: 0.9, InteriorDensity: 0.18,
			},
		},
	}
}

// SingleObjectScene builds a one-car scene crossing the full frame, used by
// the quickstart example and unit tests.
func SingleObjectScene(res events.Resolution, durationUS int64) *Scene {
	return &Scene{
		Res:        res,
		DurationUS: durationUS,
		Objects: []Object{{
			ID: 0, Kind: KindCar, W: 32, H: 18, LaneY: 70,
			X0: -32, VX: 60, EnterUS: 0, ExitUS: durationUS, Z: 1,
			EdgeDensity: 0.9, InteriorDensity: 0.2,
		}},
	}
}
