package imgproc

import (
	"fmt"
	"testing"
)

// Per-arm kernel benchmarks: the same workload through every available
// dispatch implementation, so the SIMD-vs-generic spread is measurable on
// one machine in one run (the cross-tree gate compares totals; these
// attribute them). Names match the gated set (Median / Popcount /
// Histograms) so the bench gate watches them too.

// BenchmarkMedianDense runs the full-frame packed median on an all-ones
// DAVIS frame — every word dirty, so the run kernels see maximal vector
// work — under each available implementation.
func BenchmarkMedianDense(b *testing.B) {
	src := NewPackedBitmap(240, 180)
	for i := range src.Words {
		src.Words[i] = ^uint64(0)
	}
	src.clearTail()
	dst := NewPackedBitmap(240, 180)
	for _, p := range []int{3, 5} {
		for _, im := range available {
			b.Run(fmt.Sprintf("p%d/%s", p, im.name), func(b *testing.B) {
				restore := forceImpl(im)
				defer restore()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := PackedMedianFilter(dst, src, p, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPopcountWords measures the raw word-popcount reduction per
// implementation over a buffer the size of a DAVIS240 frame (675 words).
func BenchmarkPopcountWords(b *testing.B) {
	src := PackBitmap(nil, benchFrame(240, 180))
	for _, im := range available {
		b.Run(im.name, func(b *testing.B) {
			restore := forceImpl(im)
			defer restore()
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n += im.popcntWords(src.Words)
			}
			if n < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkHistogramsArms runs the fused downsample+histogram kernel on the
// standard bench frame under each available implementation (the block
// popcount is the kernel that differs between arms here).
func BenchmarkHistogramsArms(b *testing.B) {
	src := PackBitmap(nil, benchFrame(240, 180))
	var hx, hy []int
	var err error
	for _, im := range available {
		b.Run(im.name, func(b *testing.B) {
			restore := forceImpl(im)
			defer restore()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hx, hy, err = PackedHistograms(hx, hy, src, 6, 3, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
