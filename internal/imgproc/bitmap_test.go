package imgproc

import (
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(4, 3)
	if b.CountOnes() != 0 {
		t.Error("new bitmap should be empty")
	}
	b.Set(1, 2)
	b.Set(3, 0)
	if b.Get(1, 2) != 1 || b.Get(3, 0) != 1 {
		t.Error("set pixels should read 1")
	}
	if b.Get(0, 0) != 0 {
		t.Error("unset pixel should read 0")
	}
	if b.CountOnes() != 2 {
		t.Errorf("CountOnes = %d, want 2", b.CountOnes())
	}
	b.Unset(1, 2)
	if b.Get(1, 2) != 0 {
		t.Error("Unset should clear pixel")
	}
}

func TestBitmapOutOfRange(t *testing.T) {
	b := NewBitmap(2, 2)
	// Out-of-range operations must be safe no-ops / zero reads.
	b.Set(-1, 0)
	b.Set(0, -1)
	b.Set(2, 0)
	b.Set(0, 2)
	b.Unset(5, 5)
	if b.CountOnes() != 0 {
		t.Error("out-of-range Set should be ignored")
	}
	if b.Get(-1, -1) != 0 || b.Get(2, 2) != 0 {
		t.Error("out-of-range Get should return 0")
	}
}

func TestBitmapNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBitmap with negative size should panic")
		}
	}()
	NewBitmap(-1, 4)
}

func TestCloneIndependence(t *testing.T) {
	b := NewBitmap(3, 3)
	b.Set(1, 1)
	c := b.Clone()
	c.Set(0, 0)
	if b.Get(0, 0) != 0 {
		t.Error("mutating clone affected original")
	}
	if !b.Equal(b.Clone()) {
		t.Error("clone should equal original")
	}
}

func TestClear(t *testing.T) {
	b := NewBitmap(3, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			b.Set(x, y)
		}
	}
	b.Clear()
	if b.CountOnes() != 0 {
		t.Error("Clear should zero all pixels")
	}
}

func TestEqual(t *testing.T) {
	a := NewBitmap(2, 2)
	b := NewBitmap(2, 2)
	if !a.Equal(b) {
		t.Error("empty bitmaps should be equal")
	}
	a.Set(1, 1)
	if a.Equal(b) {
		t.Error("different bitmaps should not be equal")
	}
	if a.Equal(NewBitmap(2, 3)) {
		t.Error("size-mismatched bitmaps should not be equal")
	}
	// Equal compares logical state, not raw bytes.
	c := NewBitmap(1, 1)
	d := NewBitmap(1, 1)
	c.Pix[0] = 1
	d.Pix[0] = 255
	if !c.Equal(d) {
		t.Error("any non-zero byte should count as set")
	}
}

func TestStringRoundTrip(t *testing.T) {
	src := `
		.#..
		####
		..#.
	`
	b, err := FromString(src)
	if err != nil {
		t.Fatal(err)
	}
	if b.W != 4 || b.H != 3 {
		t.Fatalf("parsed size %dx%d", b.W, b.H)
	}
	// Top row of the string is the highest y.
	if b.Get(1, 2) != 1 || b.Get(2, 0) != 1 || b.Get(0, 1) != 1 {
		t.Errorf("parsed bitmap wrong:\n%s", b)
	}
	b2, err := FromString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if !b.Equal(b2) {
		t.Error("String/FromString round trip failed")
	}
}

func TestFromStringErrors(t *testing.T) {
	if _, err := FromString("..\n..."); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := FromString("..\n.x"); err == nil {
		t.Error("bad char should error")
	}
}

func TestMedianRemovesSaltNoise(t *testing.T) {
	// Isolated pixels (salt noise from sensor background activity) must be
	// removed, while a solid object survives.
	src, err := FromString(`
		#.........
		....####..
		....####..
		....####..
		.#........
	`)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewBitmap(src.W, src.H)
	if err := MedianFilter(dst, src, 3); err != nil {
		t.Fatal(err)
	}
	if dst.Get(0, 4) != 0 || dst.Get(1, 0) != 0 {
		t.Errorf("salt noise not removed:\n%s", dst)
	}
	// The interior of the block survives.
	if dst.Get(5, 2) != 1 || dst.Get(6, 2) != 1 {
		t.Errorf("object interior removed:\n%s", dst)
	}
}

func TestMedianFillsPepperHole(t *testing.T) {
	// A single hole inside a solid region is filled by the majority vote.
	src, err := FromString(`
		#####
		##.##
		#####
	`)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewBitmap(src.W, src.H)
	if err := MedianFilter(dst, src, 3); err != nil {
		t.Fatal(err)
	}
	if dst.Get(2, 1) != 1 {
		t.Errorf("pepper hole not filled:\n%s", dst)
	}
}

func TestMedianEmptyAndFull(t *testing.T) {
	empty := NewBitmap(8, 8)
	dst := NewBitmap(8, 8)
	if err := MedianFilter(dst, empty, 3); err != nil {
		t.Fatal(err)
	}
	if dst.CountOnes() != 0 {
		t.Error("median of empty image should be empty")
	}
	full := NewBitmap(8, 8)
	for i := range full.Pix {
		full.Pix[i] = 1
	}
	if err := MedianFilter(dst, full, 3); err != nil {
		t.Fatal(err)
	}
	// Interior must stay set; corners have only 4 of 9 neighbours set so they
	// are eroded by the border-as-zero convention.
	if dst.Get(4, 4) != 1 {
		t.Error("interior of full image should stay set")
	}
	if dst.Get(0, 0) != 0 {
		t.Error("corner of full image should be eroded (4 <= floor(9/2))")
	}
}

func TestMedianErrors(t *testing.T) {
	a, b := NewBitmap(4, 4), NewBitmap(4, 4)
	if err := MedianFilter(a, b, 2); err == nil {
		t.Error("even patch size should error")
	}
	if err := MedianFilter(a, b, 0); err == nil {
		t.Error("zero patch size should error")
	}
	if err := MedianFilter(a, a, 3); err == nil {
		t.Error("in-place median should error")
	}
	if err := MedianFilter(NewBitmap(3, 3), b, 3); err == nil {
		t.Error("size mismatch should error")
	}
}

func TestMedianP1IsIdentity(t *testing.T) {
	src := NewBitmap(5, 5)
	src.Set(2, 2)
	src.Set(0, 4)
	dst := NewBitmap(5, 5)
	if err := MedianFilter(dst, src, 1); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) {
		t.Error("p=1 median should be identity")
	}
}

func TestMedianCounted(t *testing.T) {
	src, err := FromString(`
		....
		.##.
		....
	`)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewBitmap(src.W, src.H)
	ops, err := MedianFilterCounted(dst, src, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 12 pixels => 12 comparisons; each of the 2 set pixels is visited by the
	// patches of its (up to 9) neighbours; count increments = number of
	// (pixel, patch) incidences = sum over set pixels of patches containing
	// them = 2 * 9 = 18 (all neighbour centers are in range for a 4x3 image
	// at (1,1) and (2,1)).
	want := int64(12 + 18)
	if ops != want {
		t.Errorf("counted ops = %d, want %d", ops, want)
	}
}

func TestMedianMonotoneProperty(t *testing.T) {
	// Median filtering is monotone: adding pixels to the input never removes
	// pixels from the output.
	prop := func(seed []byte) bool {
		a := NewBitmap(12, 9)
		for i, v := range seed {
			if i >= len(a.Pix) {
				break
			}
			if v%3 == 0 {
				a.Pix[i] = 1
			}
		}
		b := a.Clone()
		// Superset: set a few more pixels.
		for i, v := range seed {
			if i >= len(b.Pix) {
				break
			}
			if v%5 == 0 {
				b.Pix[i] = 1
			}
		}
		fa, fb := NewBitmap(12, 9), NewBitmap(12, 9)
		if err := MedianFilter(fa, a, 3); err != nil {
			return false
		}
		if err := MedianFilter(fb, b, 3); err != nil {
			return false
		}
		for i := range fa.Pix {
			if fa.Pix[i] == 1 && fb.Pix[i] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
