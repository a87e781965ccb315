// Package scene models the side-view traffic scenes the paper records with
// a stationary DAVIS sensor at a junction: vehicles and pedestrians moving
// along horizontal lanes, with static distractors (trees) and occlusion
// between lanes.
//
// A Scene is a purely kinematic description — which objects exist, where
// each one is at any microsecond, and which pixels of each are visible. The
// sensor package turns a Scene into an address-event stream; ground-truth
// boxes for evaluation come straight from the same kinematics, replacing the
// paper's manual annotation with exact annotation.
package scene

import (
	"cmp"
	"fmt"
	"slices"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
)

// Kind classifies a moving object. The paper's scenes contain humans, bikes,
// cars, vans, trucks and buses, with sizes spanning an order of magnitude.
type Kind int

// Object kinds, ordered roughly by size.
const (
	KindHuman Kind = iota + 1
	KindBike
	KindCar
	KindVan
	KindTruck
	KindBus
)

var kindNames = map[Kind]string{
	KindHuman: "human",
	KindBike:  "bike",
	KindCar:   "car",
	KindVan:   "van",
	KindTruck: "truck",
	KindBus:   "bus",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k >= KindHuman && k <= KindBus }

// Profile holds the event-generation characteristics of an object kind at
// the reference 12 mm lens (the ENG recording). Sizes are in pixels; rates
// are dimensionless densities consumed by the sensor model.
type Profile struct {
	// MinW, MaxW, MinH, MaxH bound the object's pixel size.
	MinW, MaxW, MinH, MaxH int
	// MinSpeed, MaxSpeed bound |velocity| in pixels per second.
	MinSpeed, MaxSpeed float64
	// EdgeDensity is the probability that an edge pixel fires an event per
	// pixel of motion; high-contrast object outlines approach 1.
	EdgeDensity float64
	// InteriorDensity is the per-interior-pixel event probability per pixel
	// of motion. Large vehicles have low values: their flat flanks generate
	// few events, which is exactly the fragmentation failure mode the
	// paper's RPN and tracker must handle.
	InteriorDensity float64
}

// DefaultProfiles returns the per-kind profiles used by the dataset presets.
// Speeds follow the paper's observation that object velocities span
// sub-pixel to 5-6 pixels per frame (a frame is 66 ms, so 6 px/frame is
// ~90 px/s) and sizes vary by an order of magnitude in a scene.
func DefaultProfiles() map[Kind]Profile {
	return map[Kind]Profile{
		KindHuman: {MinW: 5, MaxW: 9, MinH: 12, MaxH: 18, MinSpeed: 4, MaxSpeed: 12, EdgeDensity: 0.8, InteriorDensity: 0.25},
		KindBike:  {MinW: 10, MaxW: 16, MinH: 12, MaxH: 16, MinSpeed: 30, MaxSpeed: 60, EdgeDensity: 0.8, InteriorDensity: 0.30},
		KindCar:   {MinW: 28, MaxW: 40, MinH: 14, MaxH: 20, MinSpeed: 45, MaxSpeed: 90, EdgeDensity: 0.9, InteriorDensity: 0.18},
		KindVan:   {MinW: 36, MaxW: 50, MinH: 18, MaxH: 26, MinSpeed: 45, MaxSpeed: 80, EdgeDensity: 0.9, InteriorDensity: 0.12},
		KindTruck: {MinW: 50, MaxW: 70, MinH: 22, MaxH: 32, MinSpeed: 40, MaxSpeed: 70, EdgeDensity: 0.9, InteriorDensity: 0.08},
		KindBus:   {MinW: 65, MaxW: 90, MinH: 26, MaxH: 36, MinSpeed: 40, MaxSpeed: 70, EdgeDensity: 0.9, InteriorDensity: 0.05},
	}
}

// Object is one moving entity in the scene. Motion is constant-velocity
// along the lane (the side-view geometry of the paper's recordings), active
// between EnterUS and ExitUS.
type Object struct {
	ID   int
	Kind Kind
	// W, H is the object's pixel extent.
	W, H int
	// LaneY is the y coordinate of the object's bottom edge.
	LaneY int
	// X0 is the x position of the object's left edge at time EnterUS.
	X0 float64
	// VX is the horizontal velocity in pixels per second (signed).
	VX float64
	// EnterUS and ExitUS bound the object's presence in the scene.
	EnterUS, ExitUS int64
	// Z is the depth order: larger Z is nearer the camera and occludes
	// smaller Z where boxes overlap.
	Z int
	// EdgeDensity and InteriorDensity override the kind profile for this
	// instance (set by the generator from the profile).
	EdgeDensity, InteriorDensity float64
}

// Active reports whether the object is in the scene at time t.
func (o *Object) Active(tUS int64) bool { return tUS >= o.EnterUS && tUS < o.ExitUS }

// BoxAt returns the object's sub-pixel box at time t. The caller must check
// Active; BoxAt extrapolates outside the active interval.
func (o *Object) BoxAt(tUS int64) geometry.FBox {
	dt := float64(tUS-o.EnterUS) / 1e6
	return geometry.FBox{X: o.X0 + o.VX*dt, Y: float64(o.LaneY), W: float64(o.W), H: float64(o.H)}
}

// State is an object's instantaneous kinematic state.
type State struct {
	ID   int
	Kind Kind
	Box  geometry.FBox
	// VX, VY are velocities in pixels per second.
	VX, VY float64
	Z      int
	// EdgeDensity, InteriorDensity are the event-generation densities.
	EdgeDensity, InteriorDensity float64
}

// Distractor is a static scene element (tree foliage, flag) that produces
// clutter events at a constant rate. The paper removes these with a
// manually-defined region of exclusion (ROE).
type Distractor struct {
	Box geometry.Box
	// RatePerPixelHz is the clutter event rate per pixel.
	RatePerPixelHz float64
}

// Scene is a full kinematic scenario over a fixed duration.
type Scene struct {
	Res         events.Resolution
	DurationUS  int64
	Objects     []Object
	Distractors []Distractor
}

// Validate checks internal consistency: object sizes positive, times
// ordered, kinds valid.
func (s *Scene) Validate() error {
	if err := s.Res.Validate(); err != nil {
		return err
	}
	if s.DurationUS <= 0 {
		return fmt.Errorf("scene: non-positive duration %d", s.DurationUS)
	}
	for i := range s.Objects {
		o := &s.Objects[i]
		if !o.Kind.Valid() {
			return fmt.Errorf("scene: object %d has invalid kind %d", o.ID, o.Kind)
		}
		if o.W <= 0 || o.H <= 0 {
			return fmt.Errorf("scene: object %d has non-positive size %dx%d", o.ID, o.W, o.H)
		}
		if o.ExitUS <= o.EnterUS {
			return fmt.Errorf("scene: object %d exits (%d) before entering (%d)", o.ID, o.ExitUS, o.EnterUS)
		}
	}
	return nil
}

// At returns the states of all objects active at time t, ordered by
// ascending Z (far to near) so a renderer can paint in depth order.
func (s *Scene) At(tUS int64) []State { return s.AppendAt(nil, tUS) }

// AppendAt appends At's states to dst and returns the extended slice, so a
// caller that samples every tick can reuse one buffer. Only the appended
// states are ordered. A Scene holds no scratch of its own: one Scene may
// be sampled from several goroutines at once.
func (s *Scene) AppendAt(dst []State, tUS int64) []State {
	base := len(dst)
	for i := range s.Objects {
		o := &s.Objects[i]
		if !o.Active(tUS) {
			continue
		}
		dst = append(dst, State{
			ID: o.ID, Kind: o.Kind, Box: o.BoxAt(tUS),
			VX: o.VX, VY: 0, Z: o.Z,
			EdgeDensity: o.EdgeDensity, InteriorDensity: o.InteriorDensity,
		})
	}
	slices.SortFunc(dst[base:], func(a, b State) int {
		if a.Z != b.Z {
			return cmp.Compare(a.Z, b.Z)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return dst
}

// LabeledBox is a ground-truth annotation: the visible pixel box of one
// object at one instant.
type LabeledBox struct {
	ID   int
	Kind Kind
	Box  geometry.Box
}

// GroundTruth returns the ground-truth boxes at time t: each active
// object's box clamped to the sensor array. Objects whose on-screen
// visible area has been reduced below minVisible pixels (off-screen, or
// nearly fully occluded by a nearer object) are omitted, matching how a
// human annotator would not label an invisible object.
func (s *Scene) GroundTruth(tUS int64, minVisible int) []LabeledBox {
	states := s.At(tUS)
	bounds := geometry.NewBox(0, 0, s.Res.A, s.Res.B)
	var out []LabeledBox
	for i, st := range states {
		b := st.Box.Round().Clamp(bounds)
		if b.Area() < minVisible {
			continue
		}
		// Estimate visible area after occlusion by nearer objects.
		visible := b.Area()
		for j := i + 1; j < len(states); j++ {
			if states[j].Z > st.Z {
				visible -= b.IntersectionArea(states[j].Box.Round().Clamp(bounds))
			}
		}
		if visible < minVisible {
			continue
		}
		out = append(out, LabeledBox{ID: st.ID, Kind: st.Kind, Box: b})
	}
	return out
}

// TrackCount returns the number of distinct objects that ever appear within
// the sensor bounds — the paper's "number of ground truth tracks" used to
// weight precision/recall across recordings.
//
// For the constant-velocity motion model the on-screen interval can be
// solved in closed form: the object is visible while its x extent
// [x(t), x(t)+W) overlaps [0, A), and its fixed y extent overlaps [0, B).
func (s *Scene) TrackCount() int {
	n := 0
	for i := range s.Objects {
		if s.objectEverVisible(&s.Objects[i]) {
			n++
		}
	}
	return n
}

func (s *Scene) objectEverVisible(o *Object) bool {
	if o.LaneY+o.H <= 0 || o.LaneY >= s.Res.B {
		return false
	}
	// Solve x(t)+W > 0 and x(t) < A for t in [EnterUS, min(ExitUS, DurationUS)).
	end := o.ExitUS
	if s.DurationUS > 0 && s.DurationUS < end {
		end = s.DurationUS
	}
	if end <= o.EnterUS {
		return false
	}
	x0 := o.X0
	if o.VX == 0 {
		return x0+float64(o.W) > 0 && x0 < float64(s.Res.A)
	}
	// Times (seconds from entry) at which the two constraints flip.
	tEnterScreen := (-float64(o.W) - x0) / o.VX   // x + W == 0
	tExitScreen := (float64(s.Res.A) - x0) / o.VX // x == A
	lo, hi := tEnterScreen, tExitScreen
	if lo > hi {
		lo, hi = hi, lo
	}
	activeLo := 0.0
	activeHi := float64(end-o.EnterUS) / 1e6
	return hi > activeLo && lo < activeHi
}
