package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBoxBasics(t *testing.T) {
	tests := []struct {
		name      string
		box       Box
		wantArea  int
		wantEmpty bool
	}{
		{"unit", NewBox(0, 0, 1, 1), 1, false},
		{"rect", NewBox(3, 4, 10, 5), 50, false},
		{"zero width", NewBox(1, 1, 0, 5), 0, true},
		{"zero height", NewBox(1, 1, 5, 0), 0, true},
		{"negative", NewBox(1, 1, -3, 5), 0, true},
		{"zero value", Box{}, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.box.Area(); got != tt.wantArea {
				t.Errorf("Area() = %d, want %d", got, tt.wantArea)
			}
			if got := tt.box.Empty(); got != tt.wantEmpty {
				t.Errorf("Empty() = %v, want %v", got, tt.wantEmpty)
			}
		})
	}
}

func TestBoxFromCorners(t *testing.T) {
	tests := []struct {
		name           string
		x0, y0, x1, y1 int
		want           Box
	}{
		{"ordered", 1, 2, 4, 6, Box{1, 2, 3, 4}},
		{"swapped x", 4, 2, 1, 6, Box{1, 2, 3, 4}},
		{"swapped y", 1, 6, 4, 2, Box{1, 2, 3, 4}},
		{"swapped both", 4, 6, 1, 2, Box{1, 2, 3, 4}},
		{"degenerate", 2, 2, 2, 2, Box{2, 2, 0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := BoxFromCorners(tt.x0, tt.y0, tt.x1, tt.y1); got != tt.want {
				t.Errorf("BoxFromCorners = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		name string
		a, b Box
		want Box
	}{
		{"identical", NewBox(0, 0, 4, 4), NewBox(0, 0, 4, 4), NewBox(0, 0, 4, 4)},
		{"partial", NewBox(0, 0, 4, 4), NewBox(2, 2, 4, 4), NewBox(2, 2, 2, 2)},
		{"disjoint", NewBox(0, 0, 2, 2), NewBox(5, 5, 2, 2), Box{}},
		{"touching edges", NewBox(0, 0, 2, 2), NewBox(2, 0, 2, 2), Box{}},
		{"contained", NewBox(0, 0, 10, 10), NewBox(3, 3, 2, 2), NewBox(3, 3, 2, 2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Intersect(tt.b); got != tt.want {
				t.Errorf("Intersect = %v, want %v", got, tt.want)
			}
			// Intersection must be symmetric.
			if got := tt.b.Intersect(tt.a); got != tt.want {
				t.Errorf("Intersect (swapped) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIoU(t *testing.T) {
	tests := []struct {
		name string
		a, b Box
		want float64
	}{
		{"identical", NewBox(0, 0, 10, 10), NewBox(0, 0, 10, 10), 1.0},
		{"disjoint", NewBox(0, 0, 2, 2), NewBox(10, 10, 2, 2), 0.0},
		{"half shift", NewBox(0, 0, 10, 10), NewBox(5, 0, 10, 10), 50.0 / 150.0},
		{"quarter", NewBox(0, 0, 4, 4), NewBox(2, 2, 4, 4), 4.0 / 28.0},
		{"empty vs empty", Box{}, Box{}, 0.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.IoU(tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("IoU = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestContains(t *testing.T) {
	b := NewBox(2, 3, 4, 5)
	cases := []struct {
		x, y int
		want bool
	}{
		{2, 3, true},  // bottom-left corner inclusive
		{5, 7, true},  // top-right interior
		{6, 3, false}, // right edge exclusive
		{2, 8, false}, // top edge exclusive
		{1, 3, false}, // left of box
		{2, 2, false}, // below box
	}
	for _, c := range cases {
		if got := b.Contains(c.x, c.y); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestContainsBox(t *testing.T) {
	outer := NewBox(0, 0, 10, 10)
	if !outer.ContainsBox(NewBox(2, 2, 3, 3)) {
		t.Error("inner box should be contained")
	}
	if !outer.ContainsBox(outer) {
		t.Error("box should contain itself")
	}
	if outer.ContainsBox(NewBox(8, 8, 5, 5)) {
		t.Error("overhanging box should not be contained")
	}
	if !outer.ContainsBox(Box{}) {
		t.Error("empty box is contained by everything")
	}
}

func TestClamp(t *testing.T) {
	b := NewBox(5, 5, 4, 4)
	bounds := NewBox(0, 0, 8, 8)
	if got := b.Clamp(bounds); got != NewBox(5, 5, 3, 3) {
		t.Errorf("Clamp = %v", got)
	}
}

func TestCenter(t *testing.T) {
	b := NewBox(0, 0, 10, 20)
	cx, cy := b.Center()
	if cx != 5 || cy != 10 {
		t.Errorf("Center = (%v,%v), want (5,10)", cx, cy)
	}
}

func TestFBoxRoundTrip(t *testing.T) {
	b := NewBox(3, -2, 17, 9)
	if got := FBoxFrom(b).Round(); got != b {
		t.Errorf("FBox round trip = %v, want %v", got, b)
	}
}

func TestFBoxIoU(t *testing.T) {
	a := FBox{0, 0, 10, 10}
	b := FBox{5, 0, 10, 10}
	want := 50.0 / 150.0
	if got := a.IoU(b); math.Abs(got-want) > 1e-12 {
		t.Errorf("FBox IoU = %v, want %v", got, want)
	}
	if got := a.IoU(FBox{20, 20, 1, 1}); got != 0 {
		t.Errorf("disjoint FBox IoU = %v, want 0", got)
	}
}

// clampGen maps arbitrary ints into a small coordinate range so random boxes
// overlap often enough to exercise the interesting code paths.
func clampGen(v, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	m := (hi - lo + 1)
	r := v % m
	if r < 0 {
		r += m
	}
	return lo + r
}

func genBox(x, y, w, h int) Box {
	return Box{
		X: clampGen(x, -20, 20),
		Y: clampGen(y, -20, 20),
		W: clampGen(w, 0, 30),
		H: clampGen(h, 0, 30),
	}
}

func TestIoUProperties(t *testing.T) {
	// IoU is symmetric, bounded in [0, 1], and exactly 1 only for identical
	// non-empty boxes.
	prop := func(ax, ay, aw, ah, bx, by, bw, bh int) bool {
		a := genBox(ax, ay, aw, ah)
		b := genBox(bx, by, bw, bh)
		iou := a.IoU(b)
		if iou < 0 || iou > 1 {
			return false
		}
		if math.Abs(iou-b.IoU(a)) > 1e-12 {
			return false
		}
		if !a.Empty() && a == b && iou != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntersectionProperties(t *testing.T) {
	// The intersection is contained in both operands and never larger than
	// either.
	prop := func(ax, ay, aw, ah, bx, by, bw, bh int) bool {
		a := genBox(ax, ay, aw, ah)
		b := genBox(bx, by, bw, bh)
		in := a.Intersect(b)
		if in.Area() > a.Area() || in.Area() > b.Area() {
			return false
		}
		if !in.Empty() && (!a.ContainsBox(in) || !b.ContainsBox(in)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUnionProperties(t *testing.T) {
	// Union area obeys inclusion-exclusion bounds.
	prop := func(ax, ay, aw, ah, bx, by, bw, bh int) bool {
		a := genBox(ax, ay, aw, ah)
		b := genBox(bx, by, bw, bh)
		ua := a.UnionArea(b)
		if ua > a.Area()+b.Area() {
			return false
		}
		if ua < a.Area() || ua < b.Area() {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTranslateProperties(t *testing.T) {
	// Translation preserves area and IoU with a co-translated box.
	prop := func(ax, ay, aw, ah, dx, dy int) bool {
		a := genBox(ax, ay, aw, ah)
		d := a.Translate(dx%50, dy%50)
		if d.Area() != a.Area() {
			return false
		}
		b := genBox(ay, ax, ah, aw)
		db := b.Translate(dx%50, dy%50)
		return math.Abs(a.IoU(b)-d.IoU(db)) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
}
