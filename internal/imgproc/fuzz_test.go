package imgproc

import "testing"

// FuzzPackedKernels asserts the packed word-parallel kernels stay
// bit-identical to the byte-per-pixel reference on arbitrary frames. The
// fuzzer controls the image width (forcing non-multiple-of-64 rows and
// word-boundary straddles), the pixel contents, the median patch size and
// the downsampling factors; the byte path is itself cross-checked against
// the literal O(p^2) median so a shared bug in both fast paths cannot hide.
// The activity-bounded runs (a non-nil region) are fuzzed against the
// full-frame ones with both the exact dirty region and a randomly
// over-approximated superset (the region contract allows marked words that
// hold no pixels).
func FuzzPackedKernels(f *testing.F) {
	f.Add(uint8(240), uint8(1), uint8(2), uint8(1), []byte("\x01\x00\xff seed"))
	f.Add(uint8(64), uint8(0), uint8(5), uint8(2), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(65), uint8(2), uint8(31), uint8(31), []byte{0x80, 0x01})
	f.Add(uint8(1), uint8(4), uint8(0), uint8(0), []byte{1})
	f.Add(uint8(127), uint8(3), uint8(63), uint8(2), []byte{0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55})
	// Multi-blob seeds: dense clusters separated by long all-zero gaps, so
	// rows carry disjoint dirty-word masks and the per-word-bounded median
	// starts from runs that begin and end mid-row.
	multi := make([]byte, 600)
	for i := 0; i < 8; i++ {
		multi[i] = 0xff
		multi[300+i] = 0xff
	}
	f.Add(uint8(200), uint8(1), uint8(5), uint8(2), multi)
	f.Add(uint8(200), uint8(2), uint8(5), uint8(2), multi)
	three := make([]byte, 900)
	for i := 0; i < 4; i++ {
		three[i] = 0x0f
		three[420+i] = 0xff
		three[880+i] = 0xf0
	}
	f.Add(uint8(130), uint8(2), uint8(6), uint8(3), three)
	f.Fuzz(func(t *testing.T, wRaw, pRaw, s1Raw, s2Raw uint8, pix []byte) {
		w := int(wRaw)%200 + 1
		h := len(pix)/w + 1
		if h > 200 {
			h = 200
		}
		p := 2*(int(pRaw)%6) + 1             // odd, 1..11
		s1, s2 := int(s1Raw)+1, int(s2Raw)+1 // 1..256, may exceed W/H

		src := NewBitmap(w, h)
		for i := range src.Pix {
			if i < len(pix) && pix[i]&1 != 0 {
				src.Pix[i] = 1
			}
		}
		psrc := PackBitmap(nil, src)
		checkTailInvariant(t, psrc)

		// Median: naive oracle vs byte sliding vs packed.
		want := NewBitmap(w, h)
		medianNaive(want, src, p)
		got := NewBitmap(w, h)
		if err := MedianFilter(got, src, p); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("byte median != naive (w=%d h=%d p=%d)", w, h, p)
		}
		pdst := NewPackedBitmap(w, h)
		if err := PackedMedianFilter(pdst, psrc, p, nil); err != nil {
			t.Fatal(err)
		}
		if !pdst.Unpack(nil).Equal(want) {
			t.Fatalf("packed median != naive (w=%d h=%d p=%d)", w, h, p)
		}
		checkTailInvariant(t, pdst)

		// Fused downsample + histograms against the byte Downsample +
		// Histograms.
		wantDS, err := Downsample(src, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		wantHX, wantHY := Histograms(wantDS)
		gotHX, gotHY, err := PackedHistograms(nil, nil, psrc, s1, s2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !intsEqual(gotHX, wantHX) || !intsEqual(gotHY, wantHY) {
			t.Fatalf("histograms mismatch (w=%d h=%d s1=%d s2=%d)", w, h, s1, s2)
		}

		// Whole-image popcount.
		if psrc.CountOnes() != src.CountOnes() {
			t.Fatalf("CountOnes mismatch (w=%d h=%d)", w, h)
		}

		// Region-bounded runs: the exact region of the frame, plus a
		// superset loosened by extra marks derived from the fuzz input. Both
		// must reproduce the full-frame results bit for bit; the median
		// output buffer is pre-filled with garbage so a missing bulk clear
		// cannot hide.
		exact := regionFor(psrc)
		loose := regionFor(psrc)
		for i, b := range pix {
			if b&0x10 != 0 {
				loose.MarkWord(i%h, int(b)%((w+63)/64))
			}
		}
		for _, ar := range []*ActiveRegion{exact, loose} {
			pdstR := NewPackedBitmap(w, h)
			garbageFill(pdstR)
			if err := PackedMedianFilter(pdstR, psrc, p, ar); err != nil {
				t.Fatal(err)
			}
			if !pdstR.Equal(pdst) {
				t.Fatalf("region median != full (w=%d h=%d p=%d)", w, h, p)
			}
			checkTailInvariant(t, pdstR)
			gotHXR, gotHYR, err := PackedHistograms(nil, nil, psrc, s1, s2, ar)
			if err != nil {
				t.Fatal(err)
			}
			if !intsEqual(gotHXR, wantHX) || !intsEqual(gotHYR, wantHY) {
				t.Fatalf("region histograms mismatch (w=%d h=%d s1=%d s2=%d)", w, h, s1, s2)
			}
		}

		// Both dispatch arms: every kernel that routes through the runtime
		// dispatch table re-runs forced-generic and must reproduce the
		// active (possibly SIMD) arm bit for bit. On machines without SIMD
		// both arms are generic and this degenerates to a self-check.
		func() {
			defer ForceGeneric()()
			pdstG := NewPackedBitmap(w, h)
			for _, ar := range []*ActiveRegion{nil, exact, loose} {
				garbageFill(pdstG)
				if err := PackedMedianFilter(pdstG, psrc, p, ar); err != nil {
					t.Fatal(err)
				}
				if !pdstG.Equal(pdst) {
					t.Fatalf("generic median != active arm (w=%d h=%d p=%d region=%v)", w, h, p, ar != nil)
				}
				gotHXG, gotHYG, err := PackedHistograms(nil, nil, psrc, s1, s2, ar)
				if err != nil {
					t.Fatal(err)
				}
				if !intsEqual(gotHXG, wantHX) || !intsEqual(gotHYG, wantHY) {
					t.Fatalf("generic histograms mismatch (w=%d h=%d s1=%d s2=%d region=%v)", w, h, s1, s2, ar != nil)
				}
			}
			if psrc.CountOnes() != src.CountOnes() {
				t.Fatalf("generic CountOnes mismatch (w=%d h=%d)", w, h)
			}
		}()
	})
}
