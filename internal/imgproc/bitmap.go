// Package imgproc implements the binary-image operations the EBBIOT pipeline
// runs on event-based binary images (EBBI): median noise filtering, block
// downsampling, X/Y histograms, connected-component analysis and simple
// morphology.
//
// Two representations coexist. Bitmap is a dense one-byte-per-pixel binary
// image: a byte per pixel matches how an embedded implementation would hold
// the working frame in SRAM for constant-time access, and keeps the
// per-pixel compute counts aligned with the paper's cost model (Eq. 1); it
// is also the differential-test oracle. PackedBitmap stores 64 pixels per
// uint64 word and backs the word-parallel fast path: the same kernels
// reformulated as shifts and popcounts (math/bits.OnesCount64), which the
// streaming pipeline runs per window. Differential tests and a fuzz target
// hold the two bit-identical.
package imgproc

import (
	"fmt"
	"strings"
)

// Bitmap is a dense binary image with W columns and H rows. Pixels are
// stored row-major; a non-zero byte means the pixel is set. The zero value
// is an empty 0x0 image; construct with NewBitmap.
type Bitmap struct {
	W, H int
	Pix  []uint8
}

// NewBitmap returns a cleared W x H bitmap. It panics if either dimension is
// negative.
func NewBitmap(w, h int) *Bitmap {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imgproc: negative bitmap size %dx%d", w, h))
	}
	return &Bitmap{W: w, H: h, Pix: make([]uint8, w*h)}
}

// Clone returns a deep copy of the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	nb := &Bitmap{W: b.W, H: b.H, Pix: make([]uint8, len(b.Pix))}
	copy(nb.Pix, b.Pix)
	return nb
}

// Clear zeroes every pixel in place, reusing the backing array so a
// double-buffered pipeline allocates nothing per frame.
func (b *Bitmap) Clear() { clear(b.Pix) }

// In reports whether (x, y) is inside the image.
func (b *Bitmap) In(x, y int) bool { return x >= 0 && x < b.W && y >= 0 && y < b.H }

// Get returns 1 if pixel (x, y) is set, 0 otherwise. Out-of-range reads
// return 0, which gives the border behaviour the median filter needs.
func (b *Bitmap) Get(x, y int) uint8 {
	if !b.In(x, y) {
		return 0
	}
	if b.Pix[y*b.W+x] != 0 {
		return 1
	}
	return 0
}

// Set sets pixel (x, y) to 1. Out-of-range writes are ignored.
func (b *Bitmap) Set(x, y int) {
	if b.In(x, y) {
		b.Pix[y*b.W+x] = 1
	}
}

// Unset clears pixel (x, y). Out-of-range writes are ignored.
func (b *Bitmap) Unset(x, y int) {
	if b.In(x, y) {
		b.Pix[y*b.W+x] = 0
	}
}

// CountOnes returns the number of set pixels.
func (b *Bitmap) CountOnes() int {
	n := 0
	for _, p := range b.Pix {
		if p != 0 {
			n++
		}
	}
	return n
}

// Equal reports whether two bitmaps have identical size and pixels
// (comparing set/unset state, not raw byte values).
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.W != o.W || b.H != o.H {
		return false
	}
	for i := range b.Pix {
		if (b.Pix[i] != 0) != (o.Pix[i] != 0) {
			return false
		}
	}
	return true
}

// String renders the bitmap as rows of '.' and '#' characters with row 0 at
// the bottom, matching the sensor's coordinate convention. Intended for
// debugging and small test fixtures only.
func (b *Bitmap) String() string {
	var sb strings.Builder
	sb.Grow((b.W + 1) * b.H)
	for y := b.H - 1; y >= 0; y-- {
		for x := 0; x < b.W; x++ {
			if b.Get(x, y) != 0 {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FromString parses the format produced by String: rows of '.' and '#', top
// row first. Useful for readable test fixtures.
func FromString(s string) (*Bitmap, error) {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	h := len(lines)
	if h == 0 {
		return NewBitmap(0, 0), nil
	}
	w := len(strings.TrimSpace(lines[0]))
	b := NewBitmap(w, h)
	for i, ln := range lines {
		ln = strings.TrimSpace(ln)
		if len(ln) != w {
			return nil, fmt.Errorf("imgproc: ragged row %d: got %d chars, want %d", i, len(ln), w)
		}
		y := h - 1 - i
		for x := 0; x < w; x++ {
			switch ln[x] {
			case '#', '1':
				b.Set(x, y)
			case '.', '0':
			default:
				return nil, fmt.Errorf("imgproc: bad pixel char %q at row %d col %d", ln[x], i, x)
			}
		}
	}
	return b, nil
}
