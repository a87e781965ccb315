package imgproc

import (
	"math/bits"
	"math/rand"
	"testing"
)

// The differential suite behind the dispatch layer: every input runs
// through the active (possibly SIMD) implementation and the forced-generic
// one, and the outputs must be bit-identical. On machines without SIMD
// support (or under -tags purego) both arms are generic and the suite
// degenerates to a self-check, which is the intended behaviour.

// simdRandomBitmap fills a w x h packed bitmap at the given density with a
// deterministic PRNG stream.
func simdRandomBitmap(rng *rand.Rand, w, h int, density float64) *PackedBitmap {
	p := NewPackedBitmap(w, h)
	switch {
	case density >= 1:
		for y := 0; y < h; y++ {
			row := p.Row(y)
			for k := range row {
				row[k] = ^uint64(0)
			}
		}
		p.clearTail()
	case density > 0:
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if rng.Float64() < density {
					p.Set(x, y)
				}
			}
		}
	}
	return p
}

// simdRegionFor is regionFor (active_test.go): the exact dirty-word region.
func simdRegionFor(src *PackedBitmap) *ActiveRegion { return regionFor(src) }

func TestSIMDMedianDifferential(t *testing.T) {
	widths := []int{7, 64, 65, 120, 127, 128, 200, 240, 256, 320, 640, 1024}
	densities := []float64{0, 0.01, 0.1, 0.5, 1}
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{3, 5} {
		for _, w := range widths {
			for _, d := range densities {
				h := 48
				src := simdRandomBitmap(rng, w, h, d)
				ar := simdRegionFor(src)
				for _, tc := range []struct {
					name string
					ar   *ActiveRegion
				}{{"full", nil}, {"region", ar}} {
					dstA := NewPackedBitmap(w, h)
					dstB := NewPackedBitmap(w, h)
					garbageFill(dstA)
					garbageFill(dstB)
					if err := PackedMedianFilter(dstA, src, p, tc.ar); err != nil {
						t.Fatal(err)
					}
					restore := forceImpl(&genericImpl)
					err := PackedMedianFilter(dstB, src, p, tc.ar)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					if !dstA.Equal(dstB) {
						t.Fatalf("p=%d w=%d d=%g %s: SIMD median differs from generic",
							p, w, d, tc.name)
					}
				}
			}
		}
	}
}

func TestSIMDHistogramsDifferential(t *testing.T) {
	widths := []int{16, 64, 65, 200, 240, 640, 1024}
	scales := []struct{ s1, s2 int }{
		{1, 1}, {2, 2}, {4, 4}, {5, 3}, {7, 7}, {8, 8}, {13, 5},
		{14, 14}, {15, 15}, {16, 4}, {31, 2}, {63, 63}, {64, 64}, {100, 10},
	}
	rng := rand.New(rand.NewSource(11))
	for _, w := range widths {
		for _, sc := range scales {
			for _, d := range []float64{0, 0.05, 0.5, 1} {
				h := 40
				src := simdRandomBitmap(rng, w, h, d)
				ar := simdRegionFor(src)
				for _, reg := range []*ActiveRegion{nil, ar} {
					hxA, hyA, err := PackedHistograms(nil, nil, src, sc.s1, sc.s2, reg)
					if err != nil {
						t.Fatal(err)
					}
					restore := forceImpl(&genericImpl)
					hxB, hyB, err := PackedHistograms(nil, nil, src, sc.s1, sc.s2, reg)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					if !intsEqual(hxA, hxB) || !intsEqual(hyA, hyB) {
						t.Fatalf("w=%d s1=%d s2=%d d=%g region=%v: histograms differ",
							w, sc.s1, sc.s2, d, reg != nil)
					}
				}
			}
		}
	}
}

func TestSIMDPopcountDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, w := range []int{1, 63, 64, 65, 200, 640, 1024, 2048} {
		for _, d := range []float64{0, 0.3, 1} {
			src := simdRandomBitmap(rng, w, 20, d)
			restore := forceImpl(&genericImpl)
			wantOnes := src.CountOnes()
			restore()
			if got := src.CountOnes(); got != wantOnes {
				t.Fatalf("w=%d d=%g: CountOnes %d != generic %d", w, d, got, wantOnes)
			}
			for trial := 0; trial < 8; trial++ {
				x0 := rng.Intn(w)
				x1 := x0 + 1 + rng.Intn(w-x0)
				y0 := rng.Intn(20)
				y1 := y0 + 1 + rng.Intn(20-y0)
				restore := forceImpl(&genericImpl)
				want := src.CountRange(x0, y0, x1, y1)
				restore()
				if got := src.CountRange(x0, y0, x1, y1); got != want {
					t.Fatalf("w=%d d=%g CountRange(%d,%d,%d,%d) = %d, generic %d",
						w, d, x0, y0, x1, y1, got, want)
				}
			}
		}
	}
}

// TestSIMDMedianRunEdges drives the run kernels at every short length and
// alignment, where the overlapped final vector group and the scalar
// min-run fallback meet.
func TestSIMDMedianRunEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for w := 1; w <= 130; w++ {
		src := simdRandomBitmap(rng, w, 12, 0.4)
		for _, p := range []int{3, 5} {
			dstA := NewPackedBitmap(w, 12)
			dstB := NewPackedBitmap(w, 12)
			if err := PackedMedianFilter(dstA, src, p, nil); err != nil {
				t.Fatal(err)
			}
			restore := forceImpl(&genericImpl)
			err := PackedMedianFilter(dstB, src, p, nil)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if !dstA.Equal(dstB) {
				t.Fatalf("p=%d w=%d: run-edge mismatch", p, w)
			}
		}
	}
}

func TestKernelInfo(t *testing.T) {
	k := KernelInfo()
	if k.CPU == "" || k.Impl != available[0].name {
		t.Fatalf("KernelInfo %+v, want a CPU and impl %q", k, available[0].name)
	}
	t.Logf("active kernels: %s", k)

	restore := forceImpl(&genericImpl)
	g := KernelInfo()
	restore()
	if g.Impl != "generic" {
		t.Fatalf("forced generic not reflected in KernelInfo: %+v", g)
	}
	if got := KernelInfo(); got != k {
		t.Fatalf("restore did not reinstate kernels: %+v != %+v", got, k)
	}
	if s, want := k.String(), "cpu "+k.CPU+", impl "+k.Impl; s != want {
		t.Fatalf("Kernels.String = %q, want %q", s, want)
	}
}

// TestBlockPopGenericOracle pins the dispatched block popcount against a
// naive per-bit count, independent of fetchBits.
func TestBlockPopGenericOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		stride := 1 + rng.Intn(8)
		row := make([]uint64, stride)
		for i := range row {
			row[i] = rng.Uint64()
		}
		s1 := 1 + rng.Intn(blockPopMaxS1)
		maxBlocks := stride * 64 / s1
		if maxBlocks == 0 {
			continue
		}
		n := 1 + rng.Intn(maxBlocks)
		off := rng.Intn(stride*64 - n*s1 + 1)
		want := make([]int, n)
		for i := 0; i < n; i++ {
			for b := 0; b < s1; b++ {
				bit := off + i*s1 + b
				if row[bit>>6]>>(uint(bit)&63)&1 == 1 {
					want[i]++
				}
			}
		}
		wantTotal := 0
		for _, c := range want {
			wantTotal += c
		}
		check := func(name string, fn func(row []uint64, off, s1 int, acc []int) int) {
			acc := make([]int, n)
			for i := range acc {
				acc[i] = 1000 * i // pre-filled: fn must add, not overwrite
			}
			total := fn(row, off, s1, acc)
			if total != wantTotal {
				t.Fatalf("%s trial %d: total %d want %d", name, trial, total, wantTotal)
			}
			for i := range acc {
				if acc[i] != 1000*i+want[i] {
					t.Fatalf("%s trial %d: acc[%d] = %d want %d",
						name, trial, i, acc[i], 1000*i+want[i])
				}
			}
		}
		check("generic", blockPopGeneric)
		if bp := kernels().blockPop; bp != nil {
			check(kernels().name, bp)
		}
	}
}

// TestPopcntWordsImpls runs every available popcount implementation over
// assorted lengths (crossing the vector-group and tail boundaries).
func TestPopcntWordsImpls(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 100, 255, 256} {
		v := make([]uint64, n)
		for i := range v {
			v[i] = rng.Uint64()
		}
		want := 0
		for _, w := range v {
			want += bits.OnesCount64(w)
		}
		for _, im := range available {
			if got := im.popcntWords(v); got != want {
				t.Fatalf("%s popcntWords(len %d) = %d, want %d", im.name, n, got, want)
			}
		}
	}
}

// TestAvailableImpls sanity-checks the dispatch table itself: at most one
// architecture arm, then the generic oracle.
func TestAvailableImpls(t *testing.T) {
	if len(available) == 0 || len(available) > 2 {
		t.Fatalf("%d kernel implementations available, want 1 or 2", len(available))
	}
	last := available[len(available)-1]
	if last != &genericImpl {
		t.Fatalf("generic must be the final fallback, got %q", last.name)
	}
	for _, im := range available {
		if im.name == "" {
			t.Fatal("impl without a name")
		}
		if im.popcntWords == nil {
			t.Fatalf("impl %q missing popcount kernel", im.name)
		}
		// median3/median5/blockPop may be nil (generic: the region loops
		// then use the scalar kernels directly), but an arch impl that
		// provides one must provide both medians.
		if (im.median3 == nil) != (im.median5 == nil) {
			t.Fatalf("impl %q provides only one median kernel", im.name)
		}
	}
	if len(available) == 2 && available[0].name == available[1].name {
		t.Fatalf("duplicate impl name %q", available[0].name)
	}
	t.Logf("available: %s", available[0].name)
}
