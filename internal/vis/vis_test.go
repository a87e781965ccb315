package vis

import (
	"strings"
	"testing"

	"ebbiot/internal/geometry"
	"ebbiot/internal/imgproc"
)

func TestASCIIFrame(t *testing.T) {
	b := imgproc.NewBitmap(8, 4)
	b.Set(0, 0)
	b.Set(7, 3)
	s := ASCIIFrame(b, nil, 1)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	// Row 0 (bottom) is the last line.
	if lines[3][0] != '#' {
		t.Errorf("pixel (0,0) missing:\n%s", s)
	}
	if lines[0][7] != '#' {
		t.Errorf("pixel (7,3) missing:\n%s", s)
	}
}

func TestASCIIFrameBoxOverlay(t *testing.T) {
	b := imgproc.NewBitmap(10, 10)
	s := ASCIIFrame(b, []geometry.Box{geometry.NewBox(2, 2, 4, 3)}, 1)
	if !strings.Contains(s, "+") {
		t.Error("box border not rendered")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Bottom edge of the box is row 2 -> line index 10-1-2 = 7.
	if lines[7][2] != '+' || lines[7][5] != '+' {
		t.Errorf("box corners missing:\n%s", s)
	}
}

func TestASCIIFrameScale(t *testing.T) {
	b := imgproc.NewBitmap(240, 180)
	b.Set(100, 90)
	s := ASCIIFrame(b, nil, 4)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 45 {
		t.Fatalf("scaled height = %d lines, want 45", len(lines))
	}
	if len(lines[0]) != 60 {
		t.Fatalf("scaled width = %d chars, want 60", len(lines[0]))
	}
	if !strings.Contains(s, "#") {
		t.Error("set pixel lost in downscale")
	}
}

func TestASCIIHistogram(t *testing.T) {
	s := ASCIIHistogram([]int{0, 5, 10}, 10)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if strings.Count(lines[2], "*") != 10 {
		t.Errorf("peak bar wrong: %q", lines[2])
	}
	if strings.Count(lines[1], "*") != 5 {
		t.Errorf("half bar wrong: %q", lines[1])
	}
	if strings.Count(lines[0], "*") != 0 {
		t.Errorf("zero bar wrong: %q", lines[0])
	}
}

func TestASCIIHistogramEmpty(t *testing.T) {
	// All-zero histogram must not divide by zero.
	s := ASCIIHistogram([]int{0, 0}, 10)
	if !strings.Contains(s, "0") {
		t.Error("histogram output missing values")
	}
}

func TestChartBasic(t *testing.T) {
	s := []Series{
		{Name: "precision", X: []float64{0.3, 0.5, 0.7}, Y: []float64{0.9, 0.8, 0.7}},
		{Name: "recall", X: []float64{0.3, 0.5, 0.7}, Y: []float64{0.85, 0.75, 0.65}},
	}
	out, err := Chart(s, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Errorf("markers missing:\n%s", out)
	}
	if !strings.Contains(out, "A = precision") || !strings.Contains(out, "B = recall") {
		t.Errorf("legend missing:\n%s", out)
	}
}

func TestChartErrors(t *testing.T) {
	ok := []Series{{Name: "x", X: []float64{1}, Y: []float64{1}}}
	if _, err := Chart(ok, 5, 5); err == nil {
		t.Error("tiny chart should error")
	}
	if _, err := Chart(nil, 40, 10); err == nil {
		t.Error("no series should error")
	}
	bad := []Series{{Name: "x", X: []float64{1, 2}, Y: []float64{1}}}
	if _, err := Chart(bad, 40, 10); err == nil {
		t.Error("ragged series should error")
	}
	empty := []Series{{Name: "x"}}
	if _, err := Chart(empty, 40, 10); err == nil {
		t.Error("empty series should error")
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	// Constant series must not divide by zero.
	s := []Series{{Name: "flat", X: []float64{1, 2, 3}, Y: []float64{5, 5, 5}}}
	if _, err := Chart(s, 30, 6); err != nil {
		t.Errorf("flat series should chart: %v", err)
	}
}
