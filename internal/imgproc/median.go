package imgproc

import (
	"fmt"
	"sync"
)

// colCountPool recycles the per-call column-count scratch of the byte
// median, so the tests and benchmarks that run it as the oracle do not
// allocate a column array per call.
var colCountPool = sync.Pool{New: func() any { return new([]int32) }}

func getColCounts(w int) *[]int32 {
	p := colCountPool.Get().(*[]int32)
	s := *p
	if cap(s) < w {
		s = make([]int32, w)
	} else {
		s = s[:w]
		clear(s)
	}
	*p = s
	return p
}

func putColCounts(p *[]int32) { colCountPool.Put(p) }

// MedianFilter applies a p x p binary median filter from src into dst, the
// EBBI noise-removal step of Section II-A: spurious single-pixel events show
// up as salt-and-pepper noise in the binary frame and are removed by
// majority vote over the patch.
//
// For a binary image the median over a p^2 patch is simply a comparison of
// the number of set pixels against floor(p^2/2): the output pixel is 1 when
// the count exceeds it. Pixels outside the image count as 0, so isolated
// events on the border are removed like any others.
//
// The patch count is evaluated in O(1) per pixel with separable sliding
// sums: per-column counts over the vertical window are maintained by adding
// the entering row and subtracting the leaving one, and the horizontal
// window slides over those counts. Total work is O(W*H) independent of p —
// the paper's per-patch accounting lives in MedianFilterCounted, which
// keeps the literal formulation.
//
// dst and src must be distinct bitmaps of the same size; p must be odd and
// >= 1. p = 1 degenerates to a copy.
func MedianFilter(dst, src *Bitmap, p int) error {
	if p < 1 || p%2 == 0 {
		return fmt.Errorf("imgproc: median patch size must be odd and positive, got %d", p)
	}
	if dst == src {
		return fmt.Errorf("imgproc: median filter cannot run in place")
	}
	if dst.W != src.W || dst.H != src.H {
		return fmt.Errorf("imgproc: size mismatch dst %dx%d vs src %dx%d", dst.W, dst.H, src.W, src.H)
	}
	w, h := src.W, src.H
	if w == 0 || h == 0 {
		return nil
	}
	half := p / 2
	thresh := int32((p * p) / 2)
	colp := getColCounts(w)
	defer putColCounts(colp)
	col := *colp

	// Seed the vertical window for output row 0: source rows [0, half].
	top := half
	if top >= h {
		top = h - 1
	}
	for r := 0; r <= top; r++ {
		addByteRow(col, src.Pix[r*w:(r+1)*w])
	}
	for y := 0; y < h; y++ {
		out := dst.Pix[y*w : (y+1)*w]
		var sum int32
		for x := 0; x <= half && x < w; x++ {
			sum += col[x]
		}
		for x := range out {
			if sum > thresh {
				out[x] = 1
			} else {
				out[x] = 0
			}
			if nx := x + half + 1; nx < w {
				sum += col[nx]
			}
			if ox := x - half; ox >= 0 {
				sum -= col[ox]
			}
		}
		// Slide the vertical window to be centred on y+1.
		if ny := y + half + 1; ny < h {
			addByteRow(col, src.Pix[ny*w:(ny+1)*w])
		}
		if oy := y - half; oy >= 0 {
			subByteRow(col, src.Pix[oy*w:(oy+1)*w])
		}
	}
	return nil
}

func addByteRow(col []int32, row []uint8) {
	for x, px := range row {
		if px != 0 {
			col[x]++
		}
	}
}

func subByteRow(col []int32, row []uint8) {
	for x, px := range row {
		if px != 0 {
			col[x]--
		}
	}
}

// MedianFilterCounted is MedianFilter with an operation counter: it returns
// the number of primitive operations performed using the paper's accounting
// (one increment per set pixel visited in each patch plus one comparison per
// pixel), so the analytic cost model of Eq. 1 can be validated against the
// implementation. The counting loop deliberately keeps the literal per-patch
// formulation — it is the accounting path, not the fast path.
func MedianFilterCounted(dst, src *Bitmap, p int) (ops int64, err error) {
	if err := MedianFilter(dst, src, p); err != nil {
		return 0, err
	}
	half := p / 2
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			for dy := -half; dy <= half; dy++ {
				for dx := -half; dx <= half; dx++ {
					if src.Get(x+dx, y+dy) != 0 {
						ops++ // counter increment for a set pixel
					}
				}
			}
			ops++ // comparison against floor(p^2/2)
		}
	}
	return ops, nil
}
