package imgproc

import (
	"fmt"
	"math/rand"
	"testing"
)

// regionFor builds the exact active region of a packed bitmap: every word
// holding a set pixel is marked. This mirrors what accumulate-time
// tracking produces when every marked word still holds its pixel.
func regionFor(p *PackedBitmap) *ActiveRegion {
	ar := NewActiveRegion(p.W, p.H)
	for y := 0; y < p.H; y++ {
		for k, w := range p.Row(y) {
			if w != 0 {
				ar.MarkWord(y, k)
			}
		}
	}
	return ar
}

// garbageFill sets every pixel of dst so missing bulk clears in ranged
// kernels show up as stale ones in the output.
func garbageFill(dst *PackedBitmap) {
	for i := range dst.Words {
		dst.Words[i] = ^uint64(0)
	}
	dst.clearTail()
}

// rangedKernelCase checks the region-bounded median and histograms against
// their full-frame (nil region) runs for one bitmap and one (superset)
// region.
func rangedKernelCase(t *testing.T, src *PackedBitmap, ar *ActiveRegion, p, s1, s2 int) {
	t.Helper()
	w, h := src.W, src.H

	want := NewPackedBitmap(w, h)
	if err := PackedMedianFilter(want, src, p, nil); err != nil {
		t.Fatal(err)
	}
	got := NewPackedBitmap(w, h)
	garbageFill(got)
	if err := PackedMedianFilter(got, src, p, ar); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("ranged median != full (w=%d h=%d p=%d)\nfull:\n%s\nranged:\n%s", w, h, p, want, got)
	}

	wantHX, wantHY, err := PackedHistograms(nil, nil, src, s1, s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotHX, gotHY, err := PackedHistograms(nil, nil, src, s1, s2, ar)
	if err != nil {
		t.Fatal(err)
	}
	if !intsEqual(gotHX, wantHX) || !intsEqual(gotHY, wantHY) {
		t.Fatalf("ranged histograms mismatch (w=%d h=%d s1=%d s2=%d)", w, h, s1, s2)
	}
}

// TestRangedKernelsSparsityLevels pins the sparsity levels the issue calls
// out — empty window, single pixel (corners and centre), border-saturated
// and full frame — plus word-boundary straddles, at several patch sizes.
func TestRangedKernelsSparsityLevels(t *testing.T) {
	const w, h = 240, 180
	build := func(name string, set func(p *PackedBitmap)) (string, *PackedBitmap) {
		p := NewPackedBitmap(w, h)
		set(p)
		return name, p
	}
	names := make([]string, 0, 8)
	frames := make(map[string]*PackedBitmap)
	add := func(name string, set func(p *PackedBitmap)) {
		n, p := build(name, set)
		names = append(names, n)
		frames[n] = p
	}
	add("empty", func(p *PackedBitmap) {})
	add("single-centre", func(p *PackedBitmap) { p.Set(127, 90) })
	add("single-origin", func(p *PackedBitmap) { p.Set(0, 0) })
	add("single-far-corner", func(p *PackedBitmap) { p.Set(w-1, h-1) })
	add("word-straddle", func(p *PackedBitmap) {
		for x := 60; x < 70; x++ { // crosses the bit-63/64 boundary
			for y := 88 + 0; y < 93; y++ {
				p.Set(x, y)
			}
		}
	})
	add("two-blobs-same-rows", func(p *PackedBitmap) {
		// Disjoint word masks on the same rows: per-word halo bounding must
		// keep each blob's columns from paying for — or corrupting — the
		// other's words.
		for y := 80; y < 96; y++ {
			for x := 10; x < 30; x++ {
				p.Set(x, y)
			}
			for x := 150; x < 170; x++ {
				p.Set(x, y)
			}
		}
	})
	add("two-blobs-offset-words", func(p *PackedBitmap) {
		// Vertically overlapping blobs in adjacent words with offset row
		// spans: the vertical neighbour-mask OR must widen each row's word
		// set exactly enough for the shared rows.
		for y := 50; y < 61; y++ {
			for x := 70; x < 90; x++ {
				p.Set(x, y)
			}
		}
		for y := 55; y < 66; y++ {
			for x := 130; x < 150; x++ {
				p.Set(x, y)
			}
		}
	})
	add("word-sparse-row", func(p *PackedBitmap) {
		// Isolated pixels in non-adjacent words of one row: the run
		// iteration must seed and flush its rolling planes per word run.
		p.Set(5, 90)
		p.Set(70, 90)
		p.Set(200, 90)
	})
	add("border-saturated", func(p *PackedBitmap) {
		for x := 0; x < w; x++ {
			p.Set(x, 0)
			p.Set(x, h-1)
		}
		for y := 0; y < h; y++ {
			p.Set(0, y)
			p.Set(w-1, y)
		}
	})
	add("full", func(p *PackedBitmap) {
		for i := range p.Words {
			p.Words[i] = ^uint64(0)
		}
		p.clearTail()
	})

	for _, name := range names {
		src := frames[name]
		t.Run(name, func(t *testing.T) {
			// The whole grid runs under both dispatch arms — the active
			// (possibly SIMD) kernels and the forced-generic ones — and the
			// median output of the two arms is compared bit for bit, with
			// garbage-prefilled destinations so a missed clear cannot hide.
			arms := []struct {
				name  string
				force bool
			}{{"active", false}, {"generic", true}}
			for _, arm := range arms {
				t.Run(arm.name, func(t *testing.T) {
					if arm.force {
						defer forceImpl(&genericImpl)()
					}
					for _, p := range []int{1, 3, 5} {
						// Exact region, a loose superset region, and the
						// no-information full region must all agree with the
						// full-frame kernels.
						exact := regionFor(src)
						loose := NewActiveRegion(w, h)
						loose.SetDilated(exact, 70) // smears across a word boundary
						full := NewActiveRegion(w, h)
						full.MarkAll()
						for _, ar := range []*ActiveRegion{exact, loose, full} {
							rangedKernelCase(t, src, ar, p, 6, 3)
						}
					}
				})
			}
			for _, p := range []int{3, 5} {
				for _, ar := range []*ActiveRegion{nil, regionFor(src)} {
					dstA := NewPackedBitmap(w, h)
					dstG := NewPackedBitmap(w, h)
					garbageFill(dstA)
					garbageFill(dstG)
					if err := PackedMedianFilter(dstA, src, p, ar); err != nil {
						t.Fatal(err)
					}
					restore := forceImpl(&genericImpl)
					err := PackedMedianFilter(dstG, src, p, ar)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					if !dstA.Equal(dstG) {
						t.Fatalf("p=%d region=%v: SIMD arm != generic arm", p, ar != nil)
					}
				}
			}
		})
	}
}

// TestRangedKernelsRandom cross-checks random frames, widths (including
// non-multiples of 64) and geometries against the full-frame kernels with
// exact regions.
func TestRangedKernelsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		w := rng.Intn(200) + 1
		h := rng.Intn(120) + 1
		src := NewPackedBitmap(w, h)
		n := rng.Intn(w * h / 4)
		for i := 0; i < n; i++ {
			src.Set(rng.Intn(w), rng.Intn(h))
		}
		p := 2*rng.Intn(4) + 1
		s1, s2 := rng.Intn(8)+1, rng.Intn(8)+1
		rangedKernelCase(t, src, regionFor(src), p, s1, s2)
	}
}

// TestRangedKernelsWideFrames covers frames wider than 4096 pixels, where
// the region keeps only the dirty row span (stride > 64 words): widths at,
// just past and well past the switch, each with blobs in the first and the
// last word of their rows plus scattered pixels.
func TestRangedKernelsWideFrames(t *testing.T) {
	const h = 24
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{4096, 4097, 4160, 5000} {
		src := NewPackedBitmap(w, h)
		for y := 6; y < 12; y++ {
			for x := 0; x < 6; x++ {
				src.Set(x, y)
				src.Set(w-1-x, y+6)
			}
		}
		for i := 0; i < 200; i++ {
			src.Set(rng.Intn(w), rng.Intn(h))
		}
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			for _, p := range []int{3, 5, 7} {
				rangedKernelCase(t, src, regionFor(src), p, 6, 3)
			}
		})
	}
}

// TestActiveRegionBasics pins the summary type itself: marking, span and
// coverage accounting, reset, and dilation growth/clamping.
func TestActiveRegionBasics(t *testing.T) {
	ar := NewActiveRegion(240, 180)
	if !ar.Empty() {
		t.Fatal("fresh region not empty")
	}
	if got := ar.CoverageWords(); got != 0 {
		t.Fatalf("empty coverage = %d", got)
	}
	if ar.FrameWords() != 4*180 {
		t.Fatalf("frame words = %d, want %d", ar.FrameWords(), 4*180)
	}
	ar.MarkWord(10, 1)
	ar.MarkWord(12, 2)
	if y0, y1 := ar.RowSpan(); y0 != 10 || y1 != 13 {
		t.Fatalf("span = [%d,%d)", y0, y1)
	}
	if got := ar.CoverageWords(); got != 2 {
		t.Fatalf("coverage = %d, want 2", got)
	}
	if ar.RowMask(11) != 0 {
		t.Fatalf("unmarked row has mask %x", ar.RowMask(11))
	}
	if ar.RowMask(9) != 0 || ar.RowMask(13) != 0 {
		t.Fatal("rows outside span must have zero masks")
	}

	var dil ActiveRegion
	dil.SetDilated(ar, 1)
	if y0, y1 := dil.RowSpan(); y0 != 9 || y1 != 14 {
		t.Fatalf("dilated span = [%d,%d)", y0, y1)
	}
	// r=1 smears each mask one word to both sides and unions rows.
	if got := dil.RowMask(11); got != 0b1111 {
		t.Fatalf("dilated mask row 11 = %b", got)
	}
	if got := dil.RowMask(9); got != 0b0111 {
		t.Fatalf("dilated mask row 9 = %b", got)
	}

	ar.Reset()
	if !ar.Empty() || ar.CoverageWords() != 0 {
		t.Fatal("reset did not empty the region")
	}
	ar.MarkAll()
	if ar.CoverageWords() != ar.FrameWords() {
		t.Fatalf("MarkAll coverage %d != frame %d", ar.CoverageWords(), ar.FrameWords())
	}
}
