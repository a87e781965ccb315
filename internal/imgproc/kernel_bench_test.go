package imgproc

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchFrame builds a DAVIS240-sized frame that looks like a filtered EBBI
// from the traffic recordings: a few dense object patches over sparse
// salt-and-pepper background noise (about 2% overall density).
func benchFrame(w, h int) *Bitmap {
	rng := rand.New(rand.NewSource(42))
	b := NewBitmap(w, h)
	type patch struct{ x, y, pw, ph int }
	for _, p := range []patch{{60, 70, 25, 25}, {92, 70, 28, 25}, {150, 110, 40, 20}, {20, 30, 10, 16}} {
		for y := p.y; y < p.y+p.ph && y < h; y++ {
			for x := p.x; x < p.x+p.pw && x < w; x++ {
				if rng.Float64() < 0.6 {
					b.Set(x, y)
				}
			}
		}
	}
	for i := 0; i < w*h/100; i++ {
		b.Set(rng.Intn(w), rng.Intn(h))
	}
	return b
}

func BenchmarkMedianByte(b *testing.B) {
	for _, p := range []int{3, 5} {
		p := p
		b.Run(benchP(p), func(b *testing.B) {
			src := benchFrame(240, 180)
			dst := NewBitmap(240, 180)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MedianFilter(dst, src, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDownsampleByte(b *testing.B) {
	src := benchFrame(240, 180)
	dst := NewCountImage(40, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DownsampleInto(dst, src, 6, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramsByte(b *testing.B) {
	src := benchFrame(240, 180)
	scaled, err := Downsample(src, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	var hx, hy []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hx, hy = HistogramsInto(hx, hy, scaled)
	}
}

func BenchmarkCCAByte(b *testing.B) {
	src := benchFrame(240, 180)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ConnectedComponents(src)) == 0 {
			b.Fatal("no components")
		}
	}
}

func benchP(p int) string {
	if p == 3 {
		return "p=3"
	}
	return "p=5"
}

func BenchmarkMedianPacked(b *testing.B) {
	for _, p := range []int{3, 5} {
		p := p
		b.Run(benchP(p), func(b *testing.B) {
			src := PackBitmap(nil, benchFrame(240, 180))
			dst := NewPackedBitmap(240, 180)
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

// BenchmarkHistogramsPacked covers the fused downsample+histogram kernel,
// so its byte-path comparison point is DownsampleByte + HistogramsByte
// combined.
func BenchmarkHistogramsPacked(b *testing.B) {
	src := PackBitmap(nil, benchFrame(240, 180))
	var hx, hy []int
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hx, hy, err = PackedHistograms(hx, hy, src, 6, 3, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchSceneFrame builds a DAVIS240-sized frame whose activity is confined
// to object patches touching roughly activeRows of the frame's rows, with
// no global noise — the sparsity shape of typical traffic scenes, where
// events touch a small band of the array and the rest stays dark.
func benchSceneFrame(w, h, activeRows int) *PackedBitmap {
	rng := rand.New(rand.NewSource(7))
	p := NewPackedBitmap(w, h)
	if activeRows <= 0 {
		return p
	}
	// Two vehicle-sized patches splitting the active row budget.
	ph := activeRows / 2
	if ph == 0 {
		ph = 1
	}
	type patch struct{ x, y, pw, ph int }
	patches := []patch{
		{60, 70, 34, ph},
		{150, 110, 40, activeRows - ph},
	}
	for _, pt := range patches {
		for y := pt.y; y < pt.y+pt.ph && y < h; y++ {
			for x := pt.x; x < pt.x+pt.pw && x < w; x++ {
				if rng.Float64() < 0.6 {
					p.Set(x, y)
				}
			}
		}
	}
	return p
}

// benchScenes are the sparsity levels the activity-bounded kernels are
// measured at: fully dense (every row busy — the worst case, where the
// ranged path must not regress), ~10% of rows active, and ~1% active.
func benchScenes() []struct {
	name string
	src  *PackedBitmap
} {
	dense := PackBitmap(nil, benchFrame(240, 180))
	return []struct {
		name string
		src  *PackedBitmap
	}{
		{"dense", dense},
		{"active10pct", benchSceneFrame(240, 180, 18)},
		{"active1pct", benchSceneFrame(240, 180, 2)},
	}
}

// BenchmarkMedianPackedSparsity measures the median filter across patch
// sizes and sparsity levels: "full" is the bit-sliced kernel without a
// region, "ranged" consumes the frame's exact dirty region (the state
// accumulate-time tracking maintains).
func BenchmarkMedianPackedSparsity(b *testing.B) {
	for _, sc := range benchScenes() {
		ar := regionFor(sc.src)
		dst := NewPackedBitmap(240, 180)
		for _, p := range []int{3, 5} {
			p := p
			b.Run(sc.name+"/"+benchP(p)+"/full", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := PackedMedianFilter(dst, sc.src, p, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(sc.name+"/"+benchP(p)+"/ranged", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := PackedMedianFilter(dst, sc.src, p, ar); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHistogramsPackedSparsity is the fused downsample+histogram
// kernel across the same sparsity grid.
func BenchmarkHistogramsPackedSparsity(b *testing.B) {
	for _, sc := range benchScenes() {
		ar := regionFor(sc.src)
		var hx, hy []int
		var err error
		b.Run(sc.name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if hx, hy, err = PackedHistograms(hx, hy, sc.src, 6, 3, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sc.name+"/ranged", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if hx, hy, err = PackedHistograms(hx, hy, sc.src, 6, 3, ar); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPackedChainBatch is the kernel-level view of pipeline window
// batching: one op runs the fused median + downsample/histogram chain over
// a batch of contiguous frames back-to-back, so call dispatch and scratch
// reuse amortize exactly as they do when pipeline.Runner hands a System a
// window batch. ns/op scales with the batch size; the reported ns/frame
// metric is the amortized per-frame cost to compare across batch sizes.
func BenchmarkPackedChainBatch(b *testing.B) {
	for _, sc := range benchScenes() {
		ar := regionFor(sc.src)
		dst := NewPackedBitmap(240, 180)
		var hx, hy []int
		var err error
		for _, batch := range []int{1, 4, 16} {
			batch := batch
			b.Run(fmt.Sprintf("%s/batch=%d", sc.name, batch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j := 0; j < batch; j++ {
						if err = PackedMedianFilter(dst, sc.src, 3, ar); err != nil {
							b.Fatal(err)
						}
						// The raw frame's dirty region is a superset of the
						// filtered output's, so it bounds the fused
						// histogram pass too.
						if hx, hy, err = PackedHistograms(hx, hy, dst, 6, 3, ar); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/frame")
			})
		}
	}
}

func BenchmarkPackUnpack(b *testing.B) {
	src := benchFrame(240, 180)
	var p *PackedBitmap
	var back *Bitmap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = PackBitmap(p, src)
		back = p.Unpack(back)
	}
}
