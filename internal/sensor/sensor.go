// Package sensor implements a behavioural simulator for a DAVIS-class
// neuromorphic vision sensor observing a scene.Scene.
//
// The paper's hardware (a 240x180 DAVIS at a traffic junction) is replaced
// by a model that reproduces the properties every stage of the EBBIOT
// pipeline depends on:
//
//   - change-detection events: a pixel fires only when the local contrast
//     changes, so moving edges fire strongly, flat object interiors fire
//     weakly (object fragmentation), and the static background is silent;
//   - ON/OFF polarity: leading edges of a bright-on-dark object fire ON,
//     trailing edges OFF;
//   - background-activity noise: every pixel fires spurious events as a
//     Poisson process, the salt-and-pepper noise the median / NN filters
//     must remove;
//   - a per-pixel refractory period bounding the event rate.
//
// The sensor's latched readout — a pixel that has fired is not reset until
// it is read out, so the array itself stores an event-based binary image
// between processor interrupts (the "sensor as memory" trick of Section
// II-A) — is modelled where the frame is built, by internal/ebbi's
// builders.
//
// Determinism: all randomness comes from the seeded xrand generator in the
// config, drawn in a fixed order, so a (scene, config) pair always yields
// the byte-identical event stream, and the dataset replicas built on it
// stay byte-identical across releases. A window is simulated tick by tick,
// and its events are put in stable time order one tick at a time: every
// event of a tick is stamped in [tick, tickEnd), after every earlier
// tick's and before every later one's (a last tick cut short by the window
// end included), so the ticks in turn give exactly the stable time order
// of the whole window.
package sensor

import (
	"fmt"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/scene"
	"ebbiot/internal/xrand"
)

// Config parameterises the sensor model.
type Config struct {
	// Res is the array resolution; defaults to DAVIS240 when zero.
	Res events.Resolution
	// NoiseRatePerPixelHz is the background-activity rate per pixel. Real
	// DAVIS BA noise at indoor bias settings is around 0.1-2 Hz/pixel.
	NoiseRatePerPixelHz float64
	// RefractoryUS suppresses a pixel's events for this long after each
	// fired event (0 disables).
	RefractoryUS int64
	// TickUS is the simulation step; object motion is piecewise-constant
	// within a tick. Must be small relative to the frame period so edges
	// sweep smoothly; 1000 us default.
	TickUS int64
	// Seed drives the deterministic RNG.
	Seed uint64
}

// DefaultConfig returns the configuration used by the dataset presets:
// 1 ms ticks, 1 Hz/pixel background activity and a 300 us refractory
// period on a DAVIS240 array.
func DefaultConfig(seed uint64) Config {
	return Config{
		Res:                 events.DAVIS240,
		NoiseRatePerPixelHz: 1.0,
		RefractoryUS:        300,
		TickUS:              1000,
		Seed:                seed,
	}
}

func (c *Config) normalize() error {
	if c.Res.A == 0 && c.Res.B == 0 {
		c.Res = events.DAVIS240
	}
	if err := c.Res.Validate(); err != nil {
		return err
	}
	if c.TickUS <= 0 {
		c.TickUS = 1000
	}
	if c.NoiseRatePerPixelHz < 0 {
		return fmt.Errorf("sensor: negative noise rate %v", c.NoiseRatePerPixelHz)
	}
	return nil
}

// Simulator produces the event stream a DAVIS would emit while watching the
// scene. It is stateful: successive calls to Events must use contiguous,
// forward-moving windows.
type Simulator struct {
	cfg Config
	sc  *scene.Scene
	rng *xrand.Rand
	// lastFire[pixel] is the timestamp of the pixel's last event, for the
	// refractory model. Initialised to a large negative value.
	lastFire []int64
	// cursor is the end of the last generated window.
	cursor int64
	// candidates is the last window's event count before the refractory
	// filter. Events reserves it plus 1/8: a window has more candidates
	// than the one before about half the time, but in the presets fewer
	// than 1% of windows outgrow the eighth.
	candidates int
	// Per-tick scratch, reused from tick to tick: the scene's object
	// states, their rounded boxes, and the nearer boxes that overlap the
	// object being simulated. It lives here rather than on the Scene,
	// which several simulators on different goroutines may share.
	states []scene.State
	near   []geometry.Box
	occ    []geometry.Box
}

// New constructs a simulator for the given scene.
func New(cfg Config, sc *scene.Scene) (*Simulator, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	lf := make([]int64, cfg.Res.Pixels())
	for i := range lf {
		lf[i] = -1 << 40
	}
	return &Simulator{cfg: cfg, sc: sc, rng: xrand.New(cfg.Seed), lastFire: lf}, nil
}

// Resolution returns the sensor array resolution.
func (s *Simulator) Resolution() events.Resolution { return s.cfg.Res }

// Events generates the sorted event stream for the window [t0, t1). t0 must
// equal the current cursor (windows are contiguous) and t1 > t0.
func (s *Simulator) Events(t0, t1 int64) ([]events.Event, error) {
	return s.EventsInto(make([]events.Event, 0, s.candidates+s.candidates/8), t0, t1)
}

// EventsInto is Events appending into a caller-owned buffer, so streaming
// pipelines can recycle one window buffer instead of allocating per frame.
// Only the appended region is sorted and refractory-filtered; the extended
// slice is returned.
func (s *Simulator) EventsInto(buf []events.Event, t0, t1 int64) ([]events.Event, error) {
	if t0 != s.cursor {
		return buf, fmt.Errorf("sensor: non-contiguous window start %d, cursor at %d", t0, s.cursor)
	}
	if t1 <= t0 {
		return buf, fmt.Errorf("sensor: empty window [%d,%d)", t0, t1)
	}
	base := len(buf)
	out := buf
	for tick := t0; tick < t1; tick += s.cfg.TickUS {
		tickEnd := min(tick+s.cfg.TickUS, t1)
		from := len(out)
		out = s.tick(out, tick, tickEnd)
		sortTick(out[from:]) // the window's order, a tick at a time (package doc)
	}
	s.candidates = len(out) - base
	kept := s.applyRefractory(out[base:])
	s.cursor = t1
	return out[:base+len(kept)], nil
}

// sortTick puts one tick's events in stable time order. Up to 64 events an
// insertion sort beats events.SortByTime even on a tick in reverse time
// order, its worst case (at 128 that order makes it slower); the presets'
// ticks hold 10-60 events in random order, where it is about 3x faster.
func sortTick(evs []events.Event) {
	if len(evs) > 64 {
		events.SortByTime(evs)
		return
	}
	for i := 1; i < len(evs); i++ {
		e := evs[i]
		j := i
		for ; j > 0 && evs[j-1].T > e.T; j-- {
			evs[j] = evs[j-1]
		}
		evs[j] = e
	}
}

// tick appends this tick's candidate events (before refractory filtering).
func (s *Simulator) tick(out []events.Event, t0, t1 int64) []events.Event {
	dtSec := float64(t1-t0) / 1e6
	s.states = s.sc.AppendAt(s.states[:0], t0)
	bounds := geometry.NewBox(0, 0, s.cfg.Res.A, s.cfg.Res.B)

	// Moving objects, far to near; collect near-object masks for occlusion.
	s.near = s.near[:0]
	for i := range s.states {
		s.near = append(s.near, s.states[i].Box.Round())
	}
	for i := range s.states {
		out = s.objectEvents(out, &s.states[i], s.near[i+1:], bounds, t0, t1, dtSec)
	}

	// Distractor clutter.
	for _, d := range s.sc.Distractors {
		box := d.Box.Clamp(bounds)
		if box.Empty() || d.RatePerPixelHz <= 0 {
			continue
		}
		mean := d.RatePerPixelHz * float64(box.Area()) * dtSec
		n := s.rng.Poisson(mean)
		for k := 0; k < n; k++ {
			out = append(out, s.randomEventIn(box, t0, t1))
		}
	}

	// Background-activity noise over the whole array.
	if s.cfg.NoiseRatePerPixelHz > 0 {
		mean := s.cfg.NoiseRatePerPixelHz * float64(s.cfg.Res.Pixels()) * dtSec
		n := s.rng.Poisson(mean)
		for k := 0; k < n; k++ {
			out = append(out, s.randomEventIn(bounds, t0, t1))
		}
	}
	return out
}

// objectEvents emits the events one moving object produces in a tick:
// strong responses on its leading and trailing vertical edges and on the
// horizontal outline, weak texture events in the interior. occluders are
// the boxes of nearer objects whose pixels mask this object.
//
// Every pixel the object covers draws one Bernoulli test, in a fixed
// order; a pixel that fires then draws its polarity where it has none of
// its own, and, unless masked, its timestamp. Each of the three pixel
// sets is one run of tests, made by xrand.FirstHit from hit to hit.
func (s *Simulator) objectEvents(out []events.Event, st *scene.State, occluders []geometry.Box, bounds geometry.Box, t0, t1 int64, dtSec float64) []events.Event {
	box := st.Box.Round().Clamp(bounds)
	if box.Empty() {
		return out
	}
	speed := st.VX
	if speed < 0 {
		speed = -speed
	}
	motionPx := speed * dtSec // pixels of motion this tick
	if motionPx <= 0 {
		return out
	}
	// Only the nearer boxes that overlap this one can mask its pixels.
	s.occ = s.occ[:0]
	for _, ob := range occluders {
		if ob.Overlaps(box) {
			s.occ = append(s.occ, ob)
		}
	}
	span := float64(t1 - t0)
	rng := s.rng

	// Leading and trailing vertical edges, row by row: the leading pixel's
	// test, then the trailing pixel's. For rightward motion the right edge
	// is leading (ON for a bright object entering dark background) and the
	// left edge trailing (OFF).
	leadX, trailX := box.MaxX()-1, box.X
	leadP, trailP := events.On, events.Off
	if st.VX < 0 {
		leadX, trailX = box.X, box.MaxX()-1
		// Polarity semantics stay with the edge role, not the side.
	}
	pEdge := xrand.Threshold(st.EdgeDensity * motionPx)
	for k, n := 0, 2*box.H; ; k++ {
		if k += rng.FirstHit(n-k, pEdge); k >= n {
			break
		}
		if y := box.Y + k/2; k%2 == 0 {
			out = s.emit(out, leadX, y, leadP, t0, span)
		} else {
			out = s.emit(out, trailX, y, trailP, t0, span)
		}
	}
	// Horizontal outline, column by column: the bottom pixel's test, then
	// the top pixel's. It fires at a reduced rate — contrast changes there
	// only where the outline is not parallel to the motion, so scale by
	// half.
	pOutline := xrand.Threshold(0.5 * st.EdgeDensity * motionPx)
	for k, n := 0, 2*box.W; ; k++ {
		if k += rng.FirstHit(n-k, pOutline); k >= n {
			break
		}
		y := box.Y
		if k%2 == 0 {
			y = box.MaxY() - 1
		}
		out = s.emit(out, box.X+k/2, y, randomPolarity(rng), t0, span)
	}
	// Interior texture, row-major: each interior pixel fires with
	// probability InteriorDensity per pixel of motion. Large flat-sided
	// vehicles have low densities, producing the fragmented binary images
	// of Fig. 3. A zero probability draws nothing.
	w, h := box.W-2, box.H-2
	if pInt := xrand.Threshold(st.InteriorDensity * motionPx); pInt > 0 && w > 0 && h > 0 {
		for k, n := 0, w*h; ; k++ {
			if k += rng.FirstHit(n-k, pInt); k >= n {
				break
			}
			out = s.emit(out, box.X+1+k%w, box.Y+1+k/w, randomPolarity(rng), t0, span)
		}
	}
	return out
}

// emit appends the event of a fired pixel (x, y) inside the array, unless
// one of the nearer boxes in s.occ masks it, stamped uniformly in
// [t0, t0+span). A masked pixel draws no timestamp.
func (s *Simulator) emit(out []events.Event, x, y int, p events.Polarity, t0 int64, span float64) []events.Event {
	for _, ob := range s.occ {
		if ob.Contains(x, y) {
			return out
		}
	}
	t := t0 + int64(s.rng.Float64()*span)
	return append(out, events.Event{X: int16(x), Y: int16(y), T: t, P: p})
}

func randomPolarity(r *xrand.Rand) events.Polarity {
	if r.Bool(0.5) {
		return events.On
	}
	return events.Off
}

// randomEventIn returns a uniformly placed event within the box and window.
func (s *Simulator) randomEventIn(box geometry.Box, t0, t1 int64) events.Event {
	x := box.X + s.rng.Intn(box.W)
	y := box.Y + s.rng.Intn(box.H)
	t := t0 + int64(s.rng.Float64()*float64(t1-t0))
	return events.Event{X: int16(x), Y: int16(y), T: t, P: randomPolarity(s.rng)}
}

// applyRefractory drops events that arrive within the refractory period of
// the same pixel's previous event, mutating lastFire. The input must be
// sorted by time; filtering is done in place.
func (s *Simulator) applyRefractory(evs []events.Event) []events.Event {
	if s.cfg.RefractoryUS <= 0 {
		return evs
	}
	out := evs[:0]
	for _, e := range evs {
		idx := int(e.Y)*s.cfg.Res.A + int(e.X)
		if e.T-s.lastFire[idx] < s.cfg.RefractoryUS {
			continue
		}
		s.lastFire[idx] = e.T
		out = append(out, e)
	}
	return out
}
