// Package kalman implements the Kalman-filter tracking baseline of Section
// II-C: a constant-velocity motion model per track, with region-proposal
// centroids as measurements (state centroid (x, y), following Lin et al.,
// the paper's reference [14]).
//
// The model's transition, measurement and noise matrices never couple x
// with y, so the filter runs in closed form: each axis keeps its position
// and velocity, and the two axes, which start alike and are predicted and
// updated together, share the three distinct entries of one 2x2 covariance.
// resources.KFComputes and KFMemoryBits (Eq. 7) still cost the paper's
// dense 4-state formulation.
//
// Data association is greedy nearest-centroid with a gating distance, and
// track lifecycle (confirmation, misses, seeding) mirrors the overlap
// tracker so the comparison isolates the filtering algorithm itself. Box
// extents are carried alongside the filter state (smoothed exponentially),
// since the KF state proper contains only centroid kinematics.
package kalman

import (
	"errors"
	"fmt"
	"math"

	"ebbiot/internal/assign"
	"ebbiot/internal/geometry"
)

// errSingular reports an innovation variance too small to invert.
var errSingular = errors.New("kalman: gain: singular innovation covariance")

// filter is one track's Kalman state x = [cx, cy, vx, vy]^T, held as the
// positions px, py and velocities vx, vy, each axis under
//
//	F = | 1 1 |   H = | 1 0 |   Q = q | 1/4 1/2 |   R = r
//	    | 0 1 |                       | 1/2  1  |
//
// for each axis (time unit = one frame; Q is piecewise-constant white
// acceleration). Both axes start from the same covariance and see the same
// q, r and predict/update sequence, so they share one covariance
// [[a b] [b c]] and one gain. Every product or quotient that feeds an
// addition is wrapped in float64(), so no target fuses it into a
// multiply-add and the state's bits are the same on every architecture.
type filter struct {
	px, vx, py, vy float64
	a, b, c        float64
	// q and r are process and measurement noise intensities.
	q, r float64
}

// newFilter returns a filter initialised at the measured centroid with
// zero velocity and large velocity uncertainty.
func newFilter(cx, cy, processNoise, measNoise float64) filter {
	return filter{px: cx, py: cy, a: measNoise, c: 100, q: processNoise, r: measNoise}
}

// predict advances the state one frame: x = Fx, P = FPF^T + Q.
func (f *filter) predict() {
	f.px += f.vx
	f.py += f.vy
	f.a = ((f.a + f.b) + (f.b + f.c)) + float64(f.q/4)
	f.b = (f.b + f.c) + float64(f.q/2)
	f.c += f.q
}

// update folds in a centroid measurement (mx, my): with the Kalman gain
// K = PH^T (HPH^T + R)^-1 = [k0 k1]^T, x += K(z - Hx) per axis, then
// P = (I - KH)P, whose off-diagonal entries are averaged to keep P
// symmetric. An innovation variance a+r below 1e-12 in magnitude is
// singular: update then fails and leaves the state as it was.
func (f *filter) update(mx, my float64) error {
	s := f.a + f.r
	if math.Abs(s) < 1e-12 {
		return errSingular
	}
	i := 1 / s
	k0, k1 := float64(f.a*i), float64(f.b*i)
	ex, ey := mx-f.px, my-f.py
	f.px += float64(k0 * ex)
	f.vx += float64(k1 * ex)
	f.py += float64(k0 * ey)
	f.vy += float64(k1 * ey)
	a, b := f.a, f.b
	f.a = (1 - k0) * a
	f.b = (float64((1-k0)*b) + (b - float64(k1*a))) * 0.5
	f.c -= float64(k1 * b)
	return nil
}

// Config parameterises the multi-track KF tracker.
type Config struct {
	// MaxTracks mirrors the OT pool size NT.
	MaxTracks int
	// GateDistance is the maximum centroid distance (pixels) for
	// associating a proposal with a track.
	GateDistance float64
	// ProcessNoise and MeasurementNoise are the KF intensities.
	ProcessNoise, MeasurementNoise float64
	// SizeBlend smooths the carried box extents toward each associated
	// proposal.
	SizeBlend float64
	// MinHits confirms a track; MaxMisses frees it.
	MinHits, MaxMisses int
}

// DefaultConfig returns parameters matched to the OT defaults.
func DefaultConfig() Config {
	return Config{
		MaxTracks:        8,
		GateDistance:     40,
		ProcessNoise:     1.0,
		MeasurementNoise: 4.0,
		SizeBlend:        0.3,
		MinHits:          2,
		MaxMisses:        3,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxTracks <= 0 {
		return fmt.Errorf("kalman: MaxTracks must be positive, got %d", c.MaxTracks)
	}
	if c.GateDistance <= 0 {
		return fmt.Errorf("kalman: GateDistance must be positive, got %v", c.GateDistance)
	}
	if c.ProcessNoise <= 0 || c.MeasurementNoise <= 0 {
		return fmt.Errorf("kalman: noise intensities must be positive")
	}
	if c.SizeBlend < 0 || c.SizeBlend > 1 {
		return fmt.Errorf("kalman: SizeBlend must be in [0,1], got %v", c.SizeBlend)
	}
	if c.MaxMisses < 1 {
		return fmt.Errorf("kalman: MaxMisses must be >= 1, got %d", c.MaxMisses)
	}
	return nil
}

type track struct {
	id     int
	filter filter
	w, h   float64
	hits   int
	misses int
	valid  bool
}

// Report is one confirmed track's per-frame output.
type Report struct {
	ID     int
	Box    geometry.Box
	VX, VY float64
}

// Tracker is the multi-object KF tracker.
type Tracker struct {
	cfg Config
	// bounds is the sensor array: tracks whose centroid leaves it by more
	// than their extent are dropped, and reports are clamped to it.
	bounds geometry.Box
	tracks []track
	nextID int
}

// New returns a Tracker for a sensor array of the given bounds.
func New(cfg Config, bounds geometry.Box) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, bounds: bounds, tracks: make([]track, cfg.MaxTracks)}, nil
}

// ActiveTracks returns the number of live tracks.
func (t *Tracker) ActiveTracks() int {
	n := 0
	for i := range t.tracks {
		if t.tracks[i].valid {
			n++
		}
	}
	return n
}

// associate returns pairs[trackIndex] = proposal index (or -1): greedy
// nearest-first matching within the gate.
func (t *Tracker) associate(proposals []geometry.Box) ([]int, error) {
	pairs := make([]int, len(t.tracks))
	for i := range pairs {
		pairs[i] = -1
	}
	if len(proposals) == 0 {
		return pairs, nil
	}
	// Build the gated cost matrix over live tracks only.
	live := make([]int, 0, len(t.tracks))
	for i := range t.tracks {
		if t.tracks[i].valid {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return pairs, nil
	}
	cost := make([][]float64, len(live))
	for li, ti := range live {
		cost[li] = make([]float64, len(proposals))
		f := &t.tracks[ti].filter
		for j, p := range proposals {
			px, py := p.Center()
			d := math.Hypot(px-f.px, py-f.py)
			if d <= t.cfg.GateDistance {
				cost[li][j] = d
			} else {
				cost[li][j] = assign.Inf
			}
		}
	}
	rowTo, err := assign.Greedy(cost)
	if err != nil {
		return nil, fmt.Errorf("kalman: association: %w", err)
	}
	for li, pj := range rowTo {
		pairs[live[li]] = pj
	}
	return pairs, nil
}

// Step advances all tracks one frame with the given proposals and returns
// confirmed-track reports.
func (t *Tracker) Step(proposals []geometry.Box) ([]Report, error) {
	// Predict.
	for i := range t.tracks {
		if t.tracks[i].valid {
			t.tracks[i].filter.predict()
		}
	}

	// Association within the gate: greedy nearest-first.
	pairs, err := t.associate(proposals)
	if err != nil {
		return nil, err
	}
	trackUsed := make([]bool, len(t.tracks))
	propUsed := make([]bool, len(proposals))
	for ti, pj := range pairs {
		if pj < 0 {
			continue
		}
		trackUsed[ti] = true
		propUsed[pj] = true
		tr := &t.tracks[ti]
		px, py := proposals[pj].Center()
		if err := tr.filter.update(px, py); err != nil {
			return nil, err
		}
		sb := t.cfg.SizeBlend
		tr.w = float64((1-sb)*tr.w) + float64(sb*float64(proposals[pj].W))
		tr.h = float64((1-sb)*tr.h) + float64(sb*float64(proposals[pj].H))
		tr.hits++
		tr.misses = 0
	}

	// Missed tracks age out.
	for i := range t.tracks {
		tr := &t.tracks[i]
		if !tr.valid || trackUsed[i] {
			continue
		}
		tr.misses++
		if tr.misses > t.cfg.MaxMisses {
			t.tracks[i] = track{}
		}
	}

	// Seed new tracks from unassociated proposals.
	for j, p := range proposals {
		if propUsed[j] {
			continue
		}
		slot := -1
		for i := range t.tracks {
			if !t.tracks[i].valid {
				slot = i
				break
			}
		}
		if slot < 0 {
			break
		}
		cx, cy := p.Center()
		t.tracks[slot] = track{
			id:     t.nextID,
			filter: newFilter(cx, cy, t.cfg.ProcessNoise, t.cfg.MeasurementNoise),
			w:      float64(p.W),
			h:      float64(p.H),
			hits:   1,
			valid:  true,
		}
		t.nextID++
	}

	// Drop tracks that left the frame.
	for i := range t.tracks {
		tr := &t.tracks[i]
		if !tr.valid {
			continue
		}
		cx, cy := tr.filter.px, tr.filter.py
		if cx < float64(t.bounds.X)-tr.w || cx > float64(t.bounds.MaxX())+tr.w ||
			cy < float64(t.bounds.Y)-tr.h || cy > float64(t.bounds.MaxY())+tr.h {
			t.tracks[i] = track{}
		}
	}

	// Reports.
	var out []Report
	for i := range t.tracks {
		tr := &t.tracks[i]
		if !tr.valid || tr.hits < t.cfg.MinHits {
			continue
		}
		f := &tr.filter
		b := geometry.FBox{X: f.px - float64(tr.w/2), Y: f.py - float64(tr.h/2), W: tr.w, H: tr.h}.Round().Clamp(t.bounds)
		if b.Empty() {
			continue
		}
		out = append(out, Report{ID: tr.id, Box: b, VX: f.vx, VY: f.vy})
	}
	return out, nil
}
