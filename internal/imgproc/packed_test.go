package imgproc

import (
	"math/rand"
	"testing"
)

// medianNaive is the seed's literal O(p^2)-per-pixel median, kept as the
// trivially-correct oracle for both fast paths.
func medianNaive(dst, src *Bitmap, p int) {
	half := p / 2
	thresh := (p * p) / 2
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			count := 0
			for dy := -half; dy <= half; dy++ {
				for dx := -half; dx <= half; dx++ {
					count += int(src.Get(x+dx, y+dy))
				}
			}
			if count > thresh {
				dst.Pix[y*dst.W+x] = 1
			} else {
				dst.Pix[y*dst.W+x] = 0
			}
		}
	}
}

// randomBitmap fills a w x h bitmap at the given density, plus a fully set
// border column/row pattern on some seeds to stress border handling.
func randomBitmap(rng *rand.Rand, w, h int, density float64) *Bitmap {
	b := NewBitmap(w, h)
	for i := range b.Pix {
		if rng.Float64() < density {
			b.Pix[i] = 1
		}
	}
	if w > 0 && h > 0 && rng.Intn(3) == 0 {
		// Saturate one border so patches straddle the image edge.
		for x := 0; x < w; x++ {
			b.Set(x, 0)
			b.Set(x, h-1)
		}
		for y := 0; y < h; y++ {
			b.Set(0, y)
			b.Set(w-1, y)
		}
	}
	return b
}

// testSizes stresses word-boundary handling: widths below, at and beyond
// multiples of 64, plus degenerate one-pixel dimensions and the paper's
// 240x180 array.
var testSizes = []struct{ w, h int }{
	{1, 1}, {7, 5}, {63, 40}, {64, 64}, {65, 33}, {100, 77},
	{128, 3}, {129, 2}, {240, 180}, {257, 3}, {3, 257},
}

func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sz := range testSizes {
		b := randomBitmap(rng, sz.w, sz.h, 0.3)
		p := PackBitmap(nil, b)
		if p.CountOnes() != b.CountOnes() {
			t.Fatalf("%dx%d: CountOnes packed %d != byte %d", sz.w, sz.h, p.CountOnes(), b.CountOnes())
		}
		for y := 0; y < sz.h; y++ {
			for x := 0; x < sz.w; x++ {
				if p.Get(x, y) != b.Get(x, y) {
					t.Fatalf("%dx%d: pixel (%d,%d) packed %d != byte %d", sz.w, sz.h, x, y, p.Get(x, y), b.Get(x, y))
				}
			}
		}
		back := p.Unpack(nil)
		if !back.Equal(b) {
			t.Fatalf("%dx%d: pack/unpack round trip mismatch", sz.w, sz.h)
		}
		checkTailInvariant(t, p)
	}
}

func TestPackedSetUnset(t *testing.T) {
	p := NewPackedBitmap(70, 4)
	p.Set(63, 1)
	p.Set(64, 1)
	p.Set(69, 3)
	p.Set(-1, 0) // ignored
	p.Set(70, 3) // ignored
	p.Set(0, 4)  // ignored
	if p.CountOnes() != 3 {
		t.Fatalf("CountOnes = %d, want 3", p.CountOnes())
	}
	p.Unset(64, 1)
	if p.Get(64, 1) != 0 || p.Get(63, 1) != 1 {
		t.Fatal("Unset cleared the wrong bit")
	}
	checkTailInvariant(t, p)
}

// checkTailInvariant asserts the padding bits beyond column W-1 are zero.
func checkTailInvariant(t *testing.T, p *PackedBitmap) {
	t.Helper()
	if p.Stride == 0 || p.W&63 == 0 {
		return
	}
	mask := p.tailMask()
	for y := 0; y < p.H; y++ {
		if w := p.Words[y*p.Stride+p.Stride-1]; w&^mask != 0 {
			t.Fatalf("row %d: padding bits set: %064b", y, w)
		}
	}
}

func TestMedianDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sz := range testSizes {
		for _, p := range []int{1, 3, 5, 7, 9} {
			for _, density := range []float64{0.02, 0.3, 0.7} {
				src := randomBitmap(rng, sz.w, sz.h, density)
				want := NewBitmap(sz.w, sz.h)
				medianNaive(want, src, p)

				got := NewBitmap(sz.w, sz.h)
				if err := MedianFilter(got, src, p); err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%dx%d p=%d d=%.2f: byte sliding median != naive\nsrc:\n%sgot:\n%swant:\n%s",
						sz.w, sz.h, p, density, src, got, want)
				}

				psrc := PackBitmap(nil, src)
				pdst := NewPackedBitmap(sz.w, sz.h)
				if err := PackedMedianFilter(pdst, psrc, p, nil); err != nil {
					t.Fatal(err)
				}
				if !pdst.Unpack(nil).Equal(want) {
					t.Fatalf("%dx%d p=%d d=%.2f: packed median != naive\nsrc:\n%sgot:\n%swant:\n%s",
						sz.w, sz.h, p, density, src, pdst, want)
				}
				checkTailInvariant(t, pdst)
			}
		}
	}
}

// TestMedianWidePatchDifferential covers the bit-plane kernel's upper
// range, p = 13 to MaxMedianP, where the vertical counts take up to six
// bit-planes and the patch totals up to twelve: packed output (full frame
// and exact region) against the byte median, which is itself pinned to the
// naive oracle at the cap.
func TestMedianWidePatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const h = 70
	for _, p := range []int{13, 31, 33, 61, MaxMedianP} {
		for _, w := range []int{1, 31, 63, 64, 65, 100, 128, 240} {
			for _, density := range []float64{0.3, 0.5, 0.7} {
				src := randomBitmap(rng, w, h, density)
				want := NewBitmap(w, h)
				if err := MedianFilter(want, src, p); err != nil {
					t.Fatal(err)
				}
				psrc := PackBitmap(nil, src)
				for _, ar := range []*ActiveRegion{nil, regionFor(psrc)} {
					pdst := NewPackedBitmap(w, h)
					garbageFill(pdst)
					if err := PackedMedianFilter(pdst, psrc, p, ar); err != nil {
						t.Fatal(err)
					}
					if !pdst.Unpack(nil).Equal(want) {
						t.Fatalf("%dx%d p=%d d=%.2f region=%v: packed median != byte",
							w, h, p, density, ar != nil)
					}
					checkTailInvariant(t, pdst)
				}
			}
		}
	}
	src := randomBitmap(rng, 65, 33, 0.7)
	want := NewBitmap(65, 33)
	medianNaive(want, src, MaxMedianP)
	got := NewBitmap(65, 33)
	if err := MedianFilter(got, src, MaxMedianP); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("65x33 p=%d: byte median != naive", MaxMedianP)
	}
}

func TestPackedMedianErrors(t *testing.T) {
	a, b := NewPackedBitmap(8, 8), NewPackedBitmap(8, 9)
	if err := PackedMedianFilter(a, a, 3, nil); err == nil {
		t.Fatal("in-place packed median not rejected")
	}
	if err := PackedMedianFilter(a, b, 3, nil); err == nil {
		t.Fatal("size mismatch not rejected")
	}
	if err := PackedMedianFilter(a, NewPackedBitmap(8, 8), 2, nil); err == nil {
		t.Fatal("even p not rejected")
	}
	if err := PackedMedianFilter(a, NewPackedBitmap(8, 8), MaxMedianP+2, nil); err == nil {
		t.Fatalf("p = %d above MaxMedianP not rejected", MaxMedianP+2)
	}
}

func TestDownsampleHistogramsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scales := []struct{ s1, s2 int }{{1, 1}, {6, 3}, {3, 6}, {12, 6}, {64, 2}, {65, 2}, {7, 5}}
	for _, sz := range testSizes {
		for _, sc := range scales {
			src := randomBitmap(rng, sz.w, sz.h, 0.25)
			want, err := Downsample(src, sc.s1, sc.s2)
			if err != nil {
				t.Fatal(err)
			}
			wantHX, wantHY := Histograms(want)

			psrc := PackBitmap(nil, src)
			gotHX, gotHY, err := PackedHistograms(nil, nil, psrc, sc.s1, sc.s2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !intsEqual(gotHX, wantHX) || !intsEqual(gotHY, wantHY) {
				t.Fatalf("%dx%d s=(%d,%d): histograms mismatch\nhx %v want %v\nhy %v want %v",
					sz.w, sz.h, sc.s1, sc.s2, gotHX, wantHX, gotHY, wantHY)
			}
		}
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCountRangeTightBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sz := range testSizes {
		src := randomBitmap(rng, sz.w, sz.h, 0.15)
		p := PackBitmap(nil, src)
		for trial := 0; trial < 50; trial++ {
			// Random rectangles, deliberately allowed to poke outside the
			// image so clamping is exercised.
			x0, y0 := rng.Intn(sz.w+4)-2, rng.Intn(sz.h+4)-2
			x1, y1 := x0+rng.Intn(sz.w+4), y0+rng.Intn(sz.h+4)
			wantN := 0
			wx0, wy0, wx1, wy1 := x1, y1, x0, y0
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					if src.Get(x, y) != 0 {
						wantN++
						if x < wx0 {
							wx0 = x
						}
						if x >= wx1 {
							wx1 = x + 1
						}
						if y < wy0 {
							wy0 = y
						}
						if y >= wy1 {
							wy1 = y + 1
						}
					}
				}
			}
			if got := p.CountRange(x0, y0, x1, y1); got != wantN {
				t.Fatalf("%dx%d rect(%d,%d,%d,%d): CountRange %d != %d", sz.w, sz.h, x0, y0, x1, y1, got, wantN)
			}
			tx0, ty0, tx1, ty1, ok := p.TightBounds(x0, y0, x1, y1)
			if ok != (wantN > 0) {
				t.Fatalf("%dx%d rect(%d,%d,%d,%d): TightBounds ok=%v want %v", sz.w, sz.h, x0, y0, x1, y1, ok, wantN > 0)
			}
			if ok && (tx0 != wx0 || ty0 != wy0 || tx1 != wx1 || ty1 != wy1) {
				t.Fatalf("%dx%d rect(%d,%d,%d,%d): TightBounds (%d,%d,%d,%d) != (%d,%d,%d,%d)",
					sz.w, sz.h, x0, y0, x1, y1, tx0, ty0, tx1, ty1, wx0, wy0, wx1, wy1)
			}
		}
	}
}

func TestPackedResizeReuse(t *testing.T) {
	p := GetPacked(240, 180)
	p.Set(239, 179)
	PutPacked(p)
	q := GetPacked(100, 50)
	if q.CountOnes() != 0 {
		t.Fatal("pooled packed bitmap not cleared")
	}
	if q.W != 100 || q.H != 50 || q.Stride != 2 {
		t.Fatalf("unexpected shape %dx%d stride %d", q.W, q.H, q.Stride)
	}
	PutPacked(q)
}
