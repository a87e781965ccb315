package roe

import (
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/imgproc"
)

func TestExcluded(t *testing.T) {
	m := New(geometry.NewBox(0, 0, 50, 50))
	tests := []struct {
		name     string
		box      geometry.Box
		maxCover float64
		want     bool
	}{
		{"fully inside", geometry.NewBox(10, 10, 20, 20), 0.5, true},
		{"fully outside", geometry.NewBox(100, 100, 20, 20), 0.5, false},
		{"half covered at 0.4 cap", geometry.NewBox(40, 0, 20, 20), 0.4, true},
		{"half covered at 0.6 cap", geometry.NewBox(40, 0, 20, 20), 0.6, false},
		{"empty box", geometry.Box{}, 0.5, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.Excluded(tt.box, tt.maxCover); got != tt.want {
				t.Errorf("Excluded = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestOverlappingZonesCapped(t *testing.T) {
	// Two identical zones must not double-count coverage beyond 100%.
	m := New(geometry.NewBox(0, 0, 10, 10), geometry.NewBox(0, 0, 10, 10))
	b := geometry.NewBox(0, 0, 10, 20) // exactly half covered
	if m.Excluded(b, 0.9) {
		t.Error("coverage must cap at the box area: half-covered box excluded at 0.9")
	}
	if !m.Excluded(b, 0.4) {
		t.Error("half-covered box should be excluded at 0.4")
	}
}

func TestEmptyMask(t *testing.T) {
	m := New()
	if m.Excluded(geometry.NewBox(0, 0, 10, 10), 0.1) {
		t.Error("empty mask should exclude nothing")
	}
}

func TestNewDropsEmptyZones(t *testing.T) {
	m := New(geometry.Box{}, geometry.NewBox(0, 0, 5, 5))
	if len(m.Zones()) != 1 {
		t.Errorf("empty zones should be dropped, have %d", len(m.Zones()))
	}
}

func TestAddAndZonesCopy(t *testing.T) {
	m := New()
	m.Add(geometry.NewBox(1, 1, 2, 2))
	m.Add(geometry.Box{}) // ignored
	z := m.Zones()
	if len(z) != 1 {
		t.Fatalf("zones = %v", z)
	}
	z[0] = geometry.NewBox(9, 9, 9, 9) // mutating the copy must not affect the mask
	if m.Zones()[0] != geometry.NewBox(1, 1, 2, 2) {
		t.Error("Zones must return a copy")
	}
}

func TestFilterBoxes(t *testing.T) {
	m := New(geometry.NewBox(0, 0, 50, 180))
	boxes := []geometry.Box{
		geometry.NewBox(10, 10, 20, 20),  // inside ROE
		geometry.NewBox(100, 10, 20, 20), // clear
		geometry.NewBox(45, 10, 20, 20),  // 25% covered
	}
	got := m.FilterBoxes(boxes, 0.5)
	if len(got) != 2 {
		t.Fatalf("kept %d boxes, want 2", len(got))
	}
	if got[0] != boxes[1] || got[1] != boxes[2] {
		t.Errorf("kept wrong boxes: %v", got)
	}
}

func TestContainsPoint(t *testing.T) {
	m := New(geometry.NewBox(10, 10, 5, 5), geometry.NewBox(100, 100, 5, 5))
	if !m.ContainsPoint(12, 12) || !m.ContainsPoint(100, 104) {
		t.Error("points inside zones should be contained")
	}
	if m.ContainsPoint(9, 10) || m.ContainsPoint(50, 50) {
		t.Error("points outside zones should not be contained")
	}
}

func TestMaskBitmap(t *testing.T) {
	m := New(geometry.NewBox(2, 2, 3, 3))
	b := imgproc.NewBitmap(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			b.Set(x, y)
		}
	}
	m.MaskBitmap(b)
	if b.Get(3, 3) != 0 || b.Get(2, 2) != 0 || b.Get(4, 4) != 0 {
		t.Error("zone pixels should be cleared")
	}
	if b.Get(5, 5) != 1 || b.Get(1, 1) != 1 {
		t.Error("pixels outside zones must survive")
	}
	if b.CountOnes() != 64-9 {
		t.Errorf("CountOnes = %d, want %d", b.CountOnes(), 64-9)
	}
}

func TestMaskBitmapClipsZones(t *testing.T) {
	// A zone hanging off the image must not panic or touch other pixels.
	m := New(geometry.NewBox(-5, -5, 10, 10))
	b := imgproc.NewBitmap(8, 8)
	b.Set(0, 0)
	b.Set(7, 7)
	m.MaskBitmap(b)
	if b.Get(0, 0) != 0 {
		t.Error("in-zone pixel should clear")
	}
	if b.Get(7, 7) != 1 {
		t.Error("out-of-zone pixel must survive")
	}
}

func TestFilterEvents(t *testing.T) {
	m := New(geometry.NewBox(0, 150, 120, 30))
	evs := []events.Event{
		{X: 10, Y: 160, T: 1, P: events.On},   // in the zone
		{X: 10, Y: 100, T: 2, P: events.On},   // clear
		{X: 130, Y: 160, T: 3, P: events.Off}, // right of the zone
	}
	got := m.FilterEvents(evs)
	if len(got) != 2 {
		t.Fatalf("kept %d events, want 2", len(got))
	}
	if got[0].T != 2 || got[1].T != 3 {
		t.Errorf("kept wrong events: %v", got)
	}
	// Empty mask: all events survive, and the result must be a copy.
	empty := New()
	all := empty.FilterEvents(evs)
	if len(all) != 3 {
		t.Errorf("empty mask should keep all events")
	}
	all[0].X = 99
	if evs[0].X == 99 {
		t.Error("FilterEvents must not alias the input")
	}
}

// TestMaskPackedParity holds MaskPacked bit-identical to MaskBitmap across
// zones that straddle word boundaries and the image border, without a
// region and with the frame's exact active region, on a frame with pixels
// in every row and on one whose pixels occupy a band of rows only.
func TestMaskPackedParity(t *testing.T) {
	m := New(
		geometry.NewBox(60, 2, 10, 5),   // inside one word
		geometry.NewBox(50, 8, 100, 4),  // spans multiple words
		geometry.NewBox(-5, -5, 10, 10), // hangs off the image
		geometry.NewBox(230, 170, 40, 40),
	)
	for _, rows := range [][2]int{{0, 180}, {6, 10}} {
		b := imgproc.NewBitmap(240, 180)
		for y := rows[0]; y < rows[1]; y++ {
			for x := y % 3; x < b.W; x += 3 {
				b.Set(x, y)
			}
		}
		p := imgproc.PackBitmap(nil, b)
		exact := imgproc.NewActiveRegion(p.W, p.H)
		for y := 0; y < p.H; y++ {
			for k, w := range p.Row(y) {
				if w != 0 {
					exact.MarkWord(y, k)
				}
			}
		}
		m.MaskBitmap(b)
		for _, ar := range []*imgproc.ActiveRegion{nil, exact} {
			q := p.Clone()
			m.MaskPacked(q, ar)
			if !q.Unpack(nil).Equal(b) {
				t.Fatalf("rows [%d,%d) region=%v: MaskPacked differs from MaskBitmap", rows[0], rows[1], ar != nil)
			}
		}
	}
}
