// Package geometry provides integer box and point primitives shared by the
// region-proposal, tracking and evaluation stages of the EBBIOT pipeline.
//
// All boxes use the paper's convention: (X, Y) is the bottom-left corner of
// the box on the sensor array, W and H are width and height in pixels. A box
// with W <= 0 or H <= 0 is empty.
package geometry

import (
	"fmt"
	"math"
)

// Point is an integer pixel coordinate on the sensor array.
type Point struct {
	X, Y int
}

// Add returns the component-wise sum p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the component-wise difference p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Box is an axis-aligned rectangle with integer coordinates. X, Y locate the
// bottom-left corner; W and H are the extent in pixels.
type Box struct {
	X, Y, W, H int
}

// NewBox returns the box with bottom-left corner (x, y), width w and height h.
func NewBox(x, y, w, h int) Box { return Box{X: x, Y: y, W: w, H: h} }

// BoxFromCorners returns the box spanning the two corner points (x0, y0)
// (inclusive) and (x1, y1) (exclusive). The corners may be given in any
// order.
func BoxFromCorners(x0, y0, x1, y1 int) Box {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Box{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("Box(x=%d,y=%d,w=%d,h=%d)", b.X, b.Y, b.W, b.H)
}

// Empty reports whether the box has no area.
func (b Box) Empty() bool { return b.W <= 0 || b.H <= 0 }

// Area returns the box area in pixels; empty boxes have zero area.
func (b Box) Area() int {
	if b.Empty() {
		return 0
	}
	return b.W * b.H
}

// MaxX returns the exclusive right edge of the box.
func (b Box) MaxX() int { return b.X + b.W }

// MaxY returns the exclusive top edge of the box.
func (b Box) MaxY() int { return b.Y + b.H }

// Center returns the box centroid in floating point, matching the centroid
// measurements used by the Kalman-filter tracker.
func (b Box) Center() (cx, cy float64) {
	return float64(b.X) + float64(b.W)/2, float64(b.Y) + float64(b.H)/2
}

// Contains reports whether the pixel (x, y) lies inside the box.
func (b Box) Contains(x, y int) bool {
	return x >= b.X && x < b.X+b.W && y >= b.Y && y < b.Y+b.H
}

// ContainsBox reports whether o lies fully inside b. Empty boxes are
// contained by everything.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	return o.X >= b.X && o.Y >= b.Y && o.MaxX() <= b.MaxX() && o.MaxY() <= b.MaxY()
}

// Translate returns the box shifted by (dx, dy).
func (b Box) Translate(dx, dy int) Box {
	return Box{X: b.X + dx, Y: b.Y + dy, W: b.W, H: b.H}
}

// Intersect returns the overlapping region of b and o. The result is empty
// (possibly with negative extent normalised to zero) when they do not
// overlap.
func (b Box) Intersect(o Box) Box {
	x0 := max(b.X, o.X)
	y0 := max(b.Y, o.Y)
	x1 := min(b.MaxX(), o.MaxX())
	y1 := min(b.MaxY(), o.MaxY())
	if x1 <= x0 || y1 <= y0 {
		return Box{}
	}
	return Box{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Union returns the smallest box containing both b and o. If either box is
// empty the other is returned unchanged.
func (b Box) Union(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	x0 := min(b.X, o.X)
	y0 := min(b.Y, o.Y)
	x1 := max(b.MaxX(), o.MaxX())
	y1 := max(b.MaxY(), o.MaxY())
	return Box{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Overlaps reports whether b and o share at least one pixel.
func (b Box) Overlaps(o Box) bool { return !b.Intersect(o).Empty() }

// IntersectionArea returns the area of overlap between b and o.
func (b Box) IntersectionArea(o Box) int { return b.Intersect(o).Area() }

// UnionArea returns |b| + |o| - |b ∩ o|, the area of the set union (not the
// bounding box).
func (b Box) UnionArea(o Box) int {
	return b.Area() + o.Area() - b.IntersectionArea(o)
}

// IoU returns the intersection-over-union of the two boxes, the evaluation
// metric of Eq. 9 in the paper. Two empty boxes have IoU 0.
func (b Box) IoU(o Box) float64 {
	inter := b.IntersectionArea(o)
	if inter == 0 {
		return 0
	}
	return float64(inter) / float64(b.UnionArea(o))
}

// OverlapFraction returns the intersection area divided by the area of b.
// The paper's overlap-based tracker declares a match when this fraction (for
// either the tracker or the proposal box) exceeds a threshold.
func (b Box) OverlapFraction(o Box) float64 {
	if b.Area() == 0 {
		return 0
	}
	return float64(b.IntersectionArea(o)) / float64(b.Area())
}

// Clamp returns b clipped to lie within bounds. The result may be empty.
func (b Box) Clamp(bounds Box) Box {
	return b.Intersect(bounds)
}

// Expand grows the box by m pixels on every side (shrinks when m < 0). The
// result is normalised so that a fully collapsed box becomes empty rather
// than inverted.
func (b Box) Expand(m int) Box {
	nb := Box{X: b.X - m, Y: b.Y - m, W: b.W + 2*m, H: b.H + 2*m}
	if nb.W < 0 {
		nb.W = 0
	}
	if nb.H < 0 {
		nb.H = 0
	}
	return nb
}

// FBox is a floating-point box used where sub-pixel positions matter
// (tracker prediction, Kalman state). The same bottom-left convention as Box
// applies.
type FBox struct {
	X, Y, W, H float64
}

// FBoxFrom converts an integer box.
func FBoxFrom(b Box) FBox {
	return FBox{X: float64(b.X), Y: float64(b.Y), W: float64(b.W), H: float64(b.H)}
}

// Round converts back to an integer box using round-to-nearest on the corner
// and size.
func (f FBox) Round() Box {
	return Box{
		X: int(math.Round(f.X)),
		Y: int(math.Round(f.Y)),
		W: int(math.Round(f.W)),
		H: int(math.Round(f.H)),
	}
}

// Center returns the centroid of the box.
func (f FBox) Center() (cx, cy float64) { return f.X + f.W/2, f.Y + f.H/2 }

// Area returns the area; empty boxes have zero area.
func (f FBox) Area() float64 {
	if f.W <= 0 || f.H <= 0 {
		return 0
	}
	return f.W * f.H
}

// Translate returns the box shifted by (dx, dy).
func (f FBox) Translate(dx, dy float64) FBox {
	return FBox{X: f.X + dx, Y: f.Y + dy, W: f.W, H: f.H}
}

// Intersect returns the overlapping region of f and o, or the zero FBox when
// they are disjoint.
func (f FBox) Intersect(o FBox) FBox {
	x0 := math.Max(f.X, o.X)
	y0 := math.Max(f.Y, o.Y)
	x1 := math.Min(f.X+f.W, o.X+o.W)
	y1 := math.Min(f.Y+f.H, o.Y+o.H)
	if x1 <= x0 || y1 <= y0 {
		return FBox{}
	}
	return FBox{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// IntersectionArea returns the area of overlap between f and o.
func (f FBox) IntersectionArea(o FBox) float64 { return f.Intersect(o).Area() }

// IoU returns intersection-over-union for floating point boxes.
func (f FBox) IoU(o FBox) float64 {
	inter := f.IntersectionArea(o)
	if inter == 0 {
		return 0
	}
	return inter / (f.Area() + o.Area() - inter)
}
