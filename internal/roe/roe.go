// Package roe implements regions of exclusion (ROE): manually defined
// areas of the sensor array whose region proposals are discarded.
//
// The paper's tracker assumes "distractors such as trees which create
// spurious events can be removed by a manually provided definition of
// region of exclusion"; static occlusions (posts) are handled the same way.
package roe

import (
	"sort"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/imgproc"
)

// Mask is a set of exclusion rectangles.
type Mask struct {
	zones []geometry.Box
}

// New returns a mask covering the given zones. Empty boxes are dropped.
func New(zones ...geometry.Box) *Mask {
	m := &Mask{zones: make([]geometry.Box, 0, len(zones))}
	for _, z := range zones {
		if !z.Empty() {
			m.zones = append(m.zones, z)
		}
	}
	return m
}

// Zones returns a copy of the exclusion rectangles.
func (m *Mask) Zones() []geometry.Box {
	out := make([]geometry.Box, len(m.zones))
	copy(out, m.zones)
	return out
}

// Add appends a zone to the mask.
func (m *Mask) Add(z geometry.Box) {
	if !z.Empty() {
		m.zones = append(m.zones, z)
	}
}

// Excluded reports whether a proposal box should be discarded: true when
// the fraction of the box's area covered by exclusion zones exceeds
// maxCover (e.g. 0.5 discards proposals more than half inside an ROE).
func (m *Mask) Excluded(b geometry.Box, maxCover float64) bool {
	if b.Empty() || len(m.zones) == 0 {
		return false
	}
	covered := unionCoverage(b, m.zones)
	return float64(covered) > maxCover*float64(b.Area())
}

// unionCoverage returns the area of b covered by the union of the zones
// (zones may overlap each other, so simple summation would double count).
// Coordinate compression over the intersection rectangles keeps this exact
// at O(k^2) for k zones, and k is tiny in practice.
func unionCoverage(b geometry.Box, zones []geometry.Box) int {
	inters := make([]geometry.Box, 0, len(zones))
	xs := make([]int, 0, 2*len(zones))
	ys := make([]int, 0, 2*len(zones))
	for _, z := range zones {
		in := b.Intersect(z)
		if in.Empty() {
			continue
		}
		inters = append(inters, in)
		xs = append(xs, in.X, in.MaxX())
		ys = append(ys, in.Y, in.MaxY())
	}
	if len(inters) == 0 {
		return 0
	}
	sort.Ints(xs)
	sort.Ints(ys)
	xs = dedupInts(xs)
	ys = dedupInts(ys)
	covered := 0
	for xi := 0; xi+1 < len(xs); xi++ {
		for yi := 0; yi+1 < len(ys); yi++ {
			cx, cy := xs[xi], ys[yi]
			cell := geometry.BoxFromCorners(cx, cy, xs[xi+1], ys[yi+1])
			for _, in := range inters {
				if in.Contains(cx, cy) {
					covered += cell.Area()
					break
				}
			}
		}
	}
	return covered
}

func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// FilterBoxes returns the proposals not excluded by the mask, preserving
// order. The result is a fresh slice.
func (m *Mask) FilterBoxes(boxes []geometry.Box, maxCover float64) []geometry.Box {
	out := make([]geometry.Box, 0, len(boxes))
	for _, b := range boxes {
		if !m.Excluded(b, maxCover) {
			out = append(out, b)
		}
	}
	return out
}

// ContainsPoint reports whether (x, y) lies inside any exclusion zone.
func (m *Mask) ContainsPoint(x, y int) bool {
	for _, z := range m.zones {
		if z.Contains(x, y) {
			return true
		}
	}
	return false
}

// MaskBitmap clears every pixel inside the exclusion zones, in place. The
// EBBIOT pipeline applies this to the filtered EBBI before region proposal
// so that distractor events cannot contaminate the X/Y histograms (the
// histograms project over full rows/columns, so even a distant distractor
// would otherwise widen runs everywhere).
func (m *Mask) MaskBitmap(b *imgproc.Bitmap) {
	for _, z := range m.zones {
		x0, y0 := max(z.X, 0), max(z.Y, 0)
		x1, y1 := min(z.MaxX(), b.W), min(z.MaxY(), b.H)
		for y := y0; y < y1; y++ {
			row := y * b.W
			for x := x0; x < x1; x++ {
				b.Pix[row+x] = 0
			}
		}
	}
}

// MaskPacked is MaskBitmap for the packed frame chain: each zone row is
// blanked with word-masked stores instead of per-pixel writes, and zone
// rows outside the frame's active region (its dirty row span) are already
// all-zero and are skipped instead of rewritten. Clearing pixels never
// invalidates the region (it is a superset contract), so ar stays correct
// afterwards. A nil region blanks every zone row.
func (m *Mask) MaskPacked(p *imgproc.PackedBitmap, ar *imgproc.ActiveRegion) {
	y0, y1 := 0, p.H
	if ar != nil {
		y0, y1 = ar.RowSpan()
		if y0 >= y1 {
			return
		}
	}
	for _, z := range m.zones {
		zy0, zy1 := max(z.Y, y0), min(z.MaxY(), y1)
		if zy0 >= zy1 {
			continue
		}
		p.ClearRange(z.X, zy0, z.MaxX(), zy1)
	}
}

// FilterEvents returns the events outside all exclusion zones, preserving
// order — the event-domain analogue of MaskBitmap, applied by the EBMS
// pipeline. The result is a fresh slice.
func (m *Mask) FilterEvents(evs []events.Event) []events.Event {
	if len(m.zones) == 0 {
		return append([]events.Event(nil), evs...)
	}
	out := make([]events.Event, 0, len(evs))
	for _, e := range evs {
		if !m.ContainsPoint(int(e.X), int(e.Y)) {
			out = append(out, e)
		}
	}
	return out
}
