// Package tracker implements the paper's overlap-based tracker (OT), the
// final stage of the EBBIOT pipeline (Section II-C).
//
// The tracker maintains up to NT (= 8) simultaneous tracks. Every frame it
// follows the five steps of the paper:
//
//  1. predict each valid track's position by adding its velocity;
//  2. match predictions against region proposals by overlap: a match is
//     declared when the intersection area exceeds a fraction of either the
//     predicted track box or the proposal box;
//  3. unmatched proposals seed new tracks while free slots exist;
//  4. a track matching one or more proposals (each uncontested) is updated
//     as a weighted average of prediction and the merged proposals, the
//     track's history smoothing away proposal fragmentation;
//  5. a proposal matched by multiple tracks is either a dynamic occlusion —
//     detected by predicting the contending tracks up to n (= 2) future
//     steps and testing for overlap, in which case each track coasts on its
//     prediction with velocity retained — or stale fragmentation, in which
//     case the tracks merge into the oldest one and the rest are freed.
//
// All state fits in a handful of registers per track (< 0.5 kB total in
// the paper's memory model, Eq. 6).
package tracker

import (
	"fmt"
	"math"

	"ebbiot/internal/geometry"
	"ebbiot/internal/roe"
)

// Config parameterises the overlap tracker.
type Config struct {
	// MaxTrackers is NT, the size of the track pool; the paper uses 8.
	MaxTrackers int
	// MatchFraction is the overlap fraction threshold: a predicted track
	// and a proposal match when their intersection exceeds this fraction of
	// either box's area.
	MatchFraction float64
	// PositionBlend is the weight given to the region proposal (versus the
	// prediction) when updating a matched track's position in step 4.
	PositionBlend float64
	// SizeBlend is the weight given to the merged proposal's size versus
	// the track's historical size; low values let history smooth
	// fragmentation.
	SizeBlend float64
	// VelocityBlend is the weight of the newly measured displacement in the
	// velocity update.
	VelocityBlend float64
	// OcclusionSteps is n, the number of future steps examined by the
	// occlusion test of step 5; the paper uses 2.
	OcclusionSteps int
	// OcclusionHandling can be disabled for the A2 ablation: when false,
	// contested proposals always merge tracks (no prediction coasting).
	OcclusionHandling bool
	// MinHits is the number of matched frames before a track is reported.
	MinHits int
	// MaxMisses frees a track after this many consecutive unmatched frames.
	MaxMisses int
	// ROE optionally discards proposals covered by exclusion zones.
	ROE *roe.Mask
	// ROEMaxCover is the coverage fraction above which a proposal is
	// excluded (see roe.Mask.Excluded).
	ROEMaxCover float64
}

// DefaultConfig returns the parameters used throughout the evaluation:
// NT = 8, 30% overlap matching, n = 2 occlusion look-ahead.
func DefaultConfig() Config {
	return Config{
		MaxTrackers:       8,
		MatchFraction:     0.3,
		PositionBlend:     0.6,
		SizeBlend:         0.7,
		VelocityBlend:     0.5,
		OcclusionSteps:    2,
		OcclusionHandling: true,
		MinHits:           2,
		MaxMisses:         3,
		ROEMaxCover:       0.5,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxTrackers <= 0 {
		return fmt.Errorf("tracker: MaxTrackers must be positive, got %d", c.MaxTrackers)
	}
	if c.MatchFraction <= 0 || c.MatchFraction > 1 {
		return fmt.Errorf("tracker: MatchFraction must be in (0,1], got %v", c.MatchFraction)
	}
	if c.PositionBlend < 0 || c.PositionBlend > 1 {
		return fmt.Errorf("tracker: PositionBlend must be in [0,1], got %v", c.PositionBlend)
	}
	if c.SizeBlend < 0 || c.SizeBlend > 1 {
		return fmt.Errorf("tracker: SizeBlend must be in [0,1], got %v", c.SizeBlend)
	}
	if c.VelocityBlend < 0 || c.VelocityBlend > 1 {
		return fmt.Errorf("tracker: VelocityBlend must be in [0,1], got %v", c.VelocityBlend)
	}
	if c.OcclusionSteps < 0 {
		return fmt.Errorf("tracker: negative OcclusionSteps %d", c.OcclusionSteps)
	}
	if c.MaxMisses < 1 {
		return fmt.Errorf("tracker: MaxMisses must be >= 1, got %d", c.MaxMisses)
	}
	return nil
}

// Track is one active track's state. Position is sub-pixel; velocities are
// in pixels per frame.
type Track struct {
	ID     int
	Box    geometry.FBox
	VX, VY float64
	// Hits is the number of frames in which the track matched a proposal;
	// Misses counts consecutive unmatched frames; Age is total frames.
	Hits, Misses, Age int
	valid             bool
}

// Confirmed reports whether the track has enough support to be reported.
func (t *Track) Confirmed(minHits int) bool { return t.valid && t.Hits >= minHits }

// predicted returns the track's position advanced k frames.
func (t *Track) predicted(k float64) geometry.FBox {
	return t.Box.Translate(float64(t.VX*k), float64(t.VY*k))
}

// Report is one confirmed track's per-frame output.
type Report struct {
	ID     int
	Box    geometry.Box
	VX, VY float64
}

// Tracker runs the overlap-based multi-object tracker. Every product or
// quotient that feeds an addition is wrapped in float64(), so no target
// fuses it into a multiply-add and the tracks' bits are the same on every
// architecture.
type Tracker struct {
	cfg Config
	// bounds is the sensor array: tracks wholly outside it are freed, and
	// reports are clamped to it.
	bounds geometry.Box
	pool   []Track
	nextID int
	// frame counts processed frames.
	frame int
	// ops approximates the per-frame primitive-operation count using the
	// paper's accounting, for validating Eq. 6.
	ops int64
}

// New returns a Tracker for a sensor array of the given bounds.
func New(cfg Config, bounds geometry.Box) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, bounds: bounds, pool: make([]Track, cfg.MaxTrackers)}, nil
}

// Config returns the tracker's configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Frame returns the number of frames processed.
func (t *Tracker) Frame() int { return t.frame }

// Ops returns the cumulative approximate operation count.
func (t *Tracker) Ops() int64 { return t.ops }

// ActiveTracks returns the number of valid tracks.
func (t *Tracker) ActiveTracks() int {
	n := 0
	for i := range t.pool {
		if t.pool[i].valid {
			n++
		}
	}
	return n
}

// Tracks returns copies of all valid tracks (confirmed or not), for tests
// and instrumentation.
func (t *Tracker) Tracks() []Track {
	out := make([]Track, 0, len(t.pool))
	for i := range t.pool {
		if t.pool[i].valid {
			out = append(out, t.pool[i])
		}
	}
	return out
}

// Step advances the tracker by one frame given the frame's region
// proposals, returning the confirmed tracks' reports.
func (t *Tracker) Step(proposals []geometry.Box) []Report {
	t.frame++

	// ROE: discard excluded proposals up front.
	if t.cfg.ROE != nil {
		proposals = t.cfg.ROE.FilterBoxes(proposals, t.cfg.ROEMaxCover)
	}

	// Step 1: predictions for all valid tracks.
	preds := make([]pred, 0, len(t.pool))
	for i := range t.pool {
		if t.pool[i].valid {
			preds = append(preds, pred{idx: i, box: t.pool[i].predicted(1)})
		}
	}

	// Step 2: overlap matching. matchT[pi] lists proposal indices matched
	// by prediction pi; matchP[j] lists prediction indices matching
	// proposal j.
	matchT := make([][]int, len(preds))
	matchP := make([][]int, len(proposals))
	for pi, pr := range preds {
		for j, pb := range proposals {
			t.ops += 4 // corner min/max for the intersection test
			fb := geometry.FBoxFrom(pb)
			inter := pr.box.IntersectionArea(fb)
			if inter <= 0 {
				continue
			}
			if inter >= t.cfg.MatchFraction*pr.box.Area() || inter >= t.cfg.MatchFraction*fb.Area() {
				matchT[pi] = append(matchT[pi], j)
				matchP[j] = append(matchP[j], pi)
			}
		}
	}

	// Step 5 first: resolve contested proposals (matched by > 1 track) so
	// that step 4 afterwards only sees uncontested assignments.
	claimed := make([]bool, len(proposals)) // proposal consumed by step 5
	frozen := make([]bool, len(preds))      // track already updated by step 5
	for j := range proposals {
		if len(matchP[j]) < 2 || claimed[j] {
			continue
		}
		// Tracks already resolved by an earlier contested proposal this
		// frame must not be re-processed: their boxes have advanced, which
		// would corrupt a second occlusion test (and double-count hits).
		contenders := make([]int, 0, len(matchP[j]))
		for _, pi := range matchP[j] {
			if !frozen[pi] {
				contenders = append(contenders, pi)
			}
		}
		if len(contenders) == 0 {
			claimed[j] = true
			continue
		}
		if len(contenders) == 1 {
			// Only one live contender: an ordinary step-4 match.
			continue
		}
		if t.cfg.OcclusionHandling && t.occluding(preds, contenders) {
			// Dynamic occlusion: every contender coasts on its prediction,
			// velocity retained (step 5, occlusion branch).
			for _, pi := range contenders {
				tr := &t.pool[preds[pi].idx]
				tr.Box = preds[pi].box
				tr.Age++
				tr.Hits++ // the object is present, just occluded
				tr.Misses = 0
				frozen[pi] = true
			}
		} else {
			// Stale fragmentation: merge all contenders into the oldest
			// track, update it from the proposal, free the rest.
			oldest := contenders[0]
			for _, pi := range contenders[1:] {
				if t.pool[preds[pi].idx].Age > t.pool[preds[oldest].idx].Age {
					oldest = pi
				}
			}
			tr := &t.pool[preds[oldest].idx]
			t.updateTrack(tr, preds[oldest].box, geometry.FBoxFrom(proposals[j]))
			frozen[oldest] = true
			for _, pi := range contenders {
				if pi != oldest {
					t.pool[preds[pi].idx] = Track{}
					frozen[pi] = true
				}
			}
		}
		claimed[j] = true
		t.ops += int64(80 * len(contenders))
	}

	// Step 4: uncontested updates; a track may consume several proposals
	// (fragmentation of the current frame), merged by union.
	for pi := range preds {
		if frozen[pi] {
			continue
		}
		tr := &t.pool[preds[pi].idx]
		var merged geometry.FBox
		n := 0
		for _, j := range matchT[pi] {
			if claimed[j] {
				continue
			}
			fb := geometry.FBoxFrom(proposals[j])
			if n == 0 {
				merged = fb
			} else {
				merged = unionF(merged, fb)
			}
			claimed[j] = true
			n++
		}
		if n == 0 {
			// Unmatched: coast and count a miss.
			tr.Box = preds[pi].box
			tr.Age++
			tr.Misses++
			if tr.Misses > t.cfg.MaxMisses {
				*tr = Track{}
			}
			continue
		}
		t.updateTrack(tr, preds[pi].box, merged)
		t.ops += int64(30 * n)
	}

	// Step 3: seed new tracks from unclaimed proposals.
	for j, pb := range proposals {
		if claimed[j] || len(matchP[j]) > 0 {
			continue
		}
		slot := t.freeSlot()
		if slot < 0 {
			break // pool exhausted
		}
		t.pool[slot] = Track{
			ID:    t.nextID,
			Box:   geometry.FBoxFrom(pb),
			Hits:  1,
			Age:   1,
			valid: true,
		}
		t.nextID++
		t.ops += 10
	}

	// Lifecycle: free tracks that left the array.
	boundsF := geometry.FBoxFrom(t.bounds)
	for i := range t.pool {
		if !t.pool[i].valid {
			continue
		}
		if t.pool[i].Box.IntersectionArea(boundsF) <= 0 {
			t.pool[i] = Track{}
		}
	}

	// Reports.
	var out []Report
	for i := range t.pool {
		tr := &t.pool[i]
		if !tr.Confirmed(t.cfg.MinHits) {
			continue
		}
		b := tr.Box.Round().Clamp(t.bounds)
		if b.Empty() {
			continue
		}
		out = append(out, Report{ID: tr.ID, Box: b, VX: tr.VX, VY: tr.VY})
	}
	return out
}

// pred pairs a pool index with the track's one-step prediction.
type pred struct {
	idx int
	box geometry.FBox
}

// occluding implements the step-5 occlusion test. A contested proposal is
// a dynamic occlusion (rather than stale fragmentation) when two contending
// tracks move on distinct trajectories: fragments of one object share its
// velocity, while two objects crossing do not. For distinct-velocity pairs
// the occlusion is confirmed when the predicted trajectories overlap within
// the next OcclusionSteps frames (objects converging, the paper's n-step
// test) or when the tracks are already moving apart (objects that crossed
// but whose images have not yet separated).
func (t *Tracker) occluding(preds []pred, contenders []int) bool {
	for a := 0; a < len(contenders); a++ {
		ta := &t.pool[preds[contenders[a]].idx]
		for b := a + 1; b < len(contenders); b++ {
			tb := &t.pool[preds[contenders[b]].idx]
			if math.Abs(ta.VX-tb.VX) <= 0.5 && math.Abs(ta.VY-tb.VY) <= 0.5 {
				continue // co-moving: fragments of one object
			}
			// Converging: overlap within n future steps.
			for k := 1; k <= t.cfg.OcclusionSteps; k++ {
				t.ops += 4
				if ta.predicted(float64(k)+1).IntersectionArea(tb.predicted(float64(k)+1)) > 0 {
					return true
				}
			}
			// Diverging: center distance grows over the next step.
			ax0, ay0 := ta.Box.Center()
			bx0, by0 := tb.Box.Center()
			ax1, ay1 := ta.predicted(1).Center()
			bx1, by1 := tb.predicted(1).Center()
			d0 := float64((ax0-bx0)*(ax0-bx0)) + float64((ay0-by0)*(ay0-by0))
			d1 := float64((ax1-bx1)*(ax1-bx1)) + float64((ay1-by1)*(ay1-by1))
			t.ops += 8
			if d1 > d0 {
				return true
			}
		}
	}
	return false
}

// updateTrack applies the step-4 weighted update: position blends the
// prediction with the (merged) proposal, size blends track history with the
// proposal, and velocity blends the previous velocity with the newly
// measured displacement.
func (t *Tracker) updateTrack(tr *Track, predBox, proposal geometry.FBox) {
	pcx, pcy := predBox.Center()
	mcx, mcy := proposal.Center()
	w := t.cfg.PositionBlend
	cx := float64((1-w)*pcx) + float64(w*mcx)
	cy := float64((1-w)*pcy) + float64(w*mcy)

	sw := t.cfg.SizeBlend
	newW := float64((1-sw)*tr.Box.W) + float64(sw*proposal.W)
	newH := float64((1-sw)*tr.Box.H) + float64(sw*proposal.H)

	// Measured velocity from the track's previous center to the corrected
	// center.
	ocx, ocy := tr.Box.Center()
	vw := t.cfg.VelocityBlend
	tr.VX = float64((1-vw)*tr.VX) + float64(vw*(cx-ocx))
	tr.VY = float64((1-vw)*tr.VY) + float64(vw*(cy-ocy))

	tr.Box = geometry.FBox{X: cx - float64(newW/2), Y: cy - float64(newH/2), W: newW, H: newH}
	tr.Hits++
	tr.Misses = 0
	tr.Age++
}

func (t *Tracker) freeSlot() int {
	for i := range t.pool {
		if !t.pool[i].valid {
			return i
		}
	}
	return -1
}

func unionF(a, b geometry.FBox) geometry.FBox {
	x0 := math.Min(a.X, b.X)
	y0 := math.Min(a.Y, b.Y)
	x1 := math.Max(a.X+a.W, b.X+b.W)
	y1 := math.Max(a.Y+a.H, b.Y+b.H)
	return geometry.FBox{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}
