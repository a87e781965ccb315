package imgproc

import (
	"testing"

	"ebbiot/internal/geometry"
)

func TestCCAEmpty(t *testing.T) {
	if got := ConnectedComponents(NewBitmap(10, 10)); len(got) != 0 {
		t.Errorf("empty image has %d components", len(got))
	}
	if got := ConnectedComponents(NewBitmap(0, 0)); got != nil {
		t.Errorf("zero image components = %v", got)
	}
}

func TestCCASingleBlock(t *testing.T) {
	src, err := FromString(`
		......
		.###..
		.###..
		......
	`)
	if err != nil {
		t.Fatal(err)
	}
	comps := ConnectedComponents(src)
	if len(comps) != 1 {
		t.Fatalf("got %d components, want 1", len(comps))
	}
	if comps[0].Size != 6 {
		t.Errorf("size = %d, want 6", comps[0].Size)
	}
	if comps[0].Box != geometry.NewBox(1, 1, 3, 2) {
		t.Errorf("box = %v", comps[0].Box)
	}
}

func TestCCATwoComponents(t *testing.T) {
	src, err := FromString(`
		##....##
		##....##
		........
	`)
	if err != nil {
		t.Fatal(err)
	}
	comps := ConnectedComponents(src)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	for _, c := range comps {
		if c.Size != 4 {
			t.Errorf("component size = %d, want 4", c.Size)
		}
	}
	// Equal sizes: sorted by X.
	if comps[0].Box.X != 0 || comps[1].Box.X != 6 {
		t.Errorf("tie-break order wrong: %v", comps)
	}
}

func TestCCADiagonalConnectivity(t *testing.T) {
	// 8-connectivity joins diagonal pixels into one component.
	src, err := FromString(`
		#..
		.#.
		..#
	`)
	if err != nil {
		t.Fatal(err)
	}
	comps := ConnectedComponents(src)
	if len(comps) != 1 {
		t.Fatalf("diagonal chain should be one 8-connected component, got %d", len(comps))
	}
	if comps[0].Size != 3 {
		t.Errorf("size = %d, want 3", comps[0].Size)
	}
}

func TestCCAUShapeMergesLabels(t *testing.T) {
	// A U shape forces two provisional labels that must union at the bottom.
	src, err := FromString(`
		#.#
		#.#
		###
	`)
	if err != nil {
		t.Fatal(err)
	}
	comps := ConnectedComponents(src)
	if len(comps) != 1 {
		t.Fatalf("U shape should be one component, got %d", len(comps))
	}
	if comps[0].Size != 7 {
		t.Errorf("size = %d, want 7", comps[0].Size)
	}
	if comps[0].Box != geometry.NewBox(0, 0, 3, 3) {
		t.Errorf("box = %v", comps[0].Box)
	}
}

func TestCCASortedBySize(t *testing.T) {
	src, err := FromString(`
		####...#
		####....
		........
	`)
	if err != nil {
		t.Fatal(err)
	}
	comps := ConnectedComponents(src)
	if len(comps) != 2 {
		t.Fatalf("got %d components", len(comps))
	}
	if comps[0].Size < comps[1].Size {
		t.Error("components must be sorted largest first")
	}
}

func TestCCASizesSumProperty(t *testing.T) {
	// Component sizes must sum to the number of set pixels for any image.
	imgs := []string{
		"#.#.#\n.#.#.\n#.#.#",
		"#####\n#####\n#####",
		"#....\n.....\n....#",
		"##..#\n##..#\n....#",
	}
	for _, s := range imgs {
		b, err := FromString(s)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range ConnectedComponents(b) {
			total += c.Size
		}
		if total != b.CountOnes() {
			t.Errorf("sizes sum %d != ones %d for\n%s", total, b.CountOnes(), b)
		}
	}
}

func TestDilateClosesGap(t *testing.T) {
	dot, err := FromString(`
		.....
		..#..
		.....
	`)
	if err != nil {
		t.Fatal(err)
	}
	if d := Dilate(dot, 1); d.CountOnes() != 9 {
		t.Errorf("dilated single pixel should be 3x3=9, got %d", d.CountOnes())
	}
	src, err := FromString(`
		##.##
	`)
	if err != nil {
		t.Fatal(err)
	}
	if comps := ConnectedComponents(src); len(comps) != 2 {
		t.Fatalf("precondition: want 2 components, got %d", len(comps))
	}
	d := Dilate(src, 1)
	if comps := ConnectedComponents(d); len(comps) != 1 {
		t.Errorf("dilation should close the gap, got %d components", len(comps))
	}
}

func BenchmarkMedianFilterDAVIS(b *testing.B) {
	src := NewBitmap(240, 180)
	// ~10% density, like a busy traffic frame.
	for i := 0; i < len(src.Pix); i += 10 {
		src.Pix[i] = 1
	}
	dst := NewBitmap(240, 180)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MedianFilter(dst, src, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDownsampleDAVIS(b *testing.B) {
	src := NewBitmap(240, 180)
	for i := 0; i < len(src.Pix); i += 10 {
		src.Pix[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Downsample(src, 6, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCCADAVIS(b *testing.B) {
	src := NewBitmap(240, 180)
	for i := 0; i < len(src.Pix); i += 10 {
		src.Pix[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ConnectedComponents(src)
	}
}
