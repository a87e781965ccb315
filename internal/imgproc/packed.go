package imgproc

import (
	"fmt"
	"math/bits"
	"strings"
)

// wordBits is the pixel width of one PackedBitmap storage word.
const wordBits = 64

// PackedBitmap is a dense binary image storing 64 pixels per uint64 word,
// the word-parallel counterpart of Bitmap. Rows are padded to a whole number
// of words (Stride words per row) and the padding bits beyond column W-1 are
// always zero — every kernel relies on that invariant, so anything that
// writes raw Words must preserve it (or call clearTail).
//
// The packed layout is the fast per-window path: median filtering,
// downsampling, histograms and connected components all reduce to shifts
// and math/bits.OnesCount64 over whole words. The byte-per-pixel Bitmap
// remains the paper's cost-model accounting surface and the differential
// test oracle.
type PackedBitmap struct {
	W, H   int
	Stride int // words per row: (W + 63) / 64
	Words  []uint64
}

// NewPackedBitmap returns a cleared W x H packed bitmap. It panics if either
// dimension is negative.
func NewPackedBitmap(w, h int) *PackedBitmap {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imgproc: negative bitmap size %dx%d", w, h))
	}
	stride := (w + wordBits - 1) / wordBits
	return &PackedBitmap{W: w, H: h, Stride: stride, Words: make([]uint64, stride*h)}
}

// Resize reshapes the bitmap to w x h in place, reusing the backing array
// when it is large enough, and clears every pixel.
func (p *PackedBitmap) Resize(w, h int) {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imgproc: negative bitmap size %dx%d", w, h))
	}
	stride := (w + wordBits - 1) / wordBits
	p.W, p.H, p.Stride = w, h, stride
	if cap(p.Words) < stride*h {
		p.Words = make([]uint64, stride*h)
		return
	}
	p.Words = p.Words[:stride*h]
	p.Clear()
}

// Clone returns a deep copy of the bitmap.
func (p *PackedBitmap) Clone() *PackedBitmap {
	np := &PackedBitmap{W: p.W, H: p.H, Stride: p.Stride, Words: make([]uint64, len(p.Words))}
	copy(np.Words, p.Words)
	return np
}

// Clear zeroes every pixel in place.
func (p *PackedBitmap) Clear() { clear(p.Words) }

// In reports whether (x, y) is inside the image.
func (p *PackedBitmap) In(x, y int) bool { return x >= 0 && x < p.W && y >= 0 && y < p.H }

// Row returns the words backing row y. The slice aliases the bitmap.
func (p *PackedBitmap) Row(y int) []uint64 { return p.Words[y*p.Stride : (y+1)*p.Stride] }

// tailMask returns the mask of valid bits in the last word of a row, or all
// ones when W is a multiple of 64.
func (p *PackedBitmap) tailMask() uint64 {
	if r := p.W & (wordBits - 1); r != 0 {
		return (uint64(1) << r) - 1
	}
	return ^uint64(0)
}

// clearTail re-zeroes the padding bits of every row, restoring the invariant
// after bulk word writes that may have spilled past column W-1.
func (p *PackedBitmap) clearTail() {
	if p.Stride == 0 || p.W&(wordBits-1) == 0 {
		return
	}
	mask := p.tailMask()
	for y := 0; y < p.H; y++ {
		p.Words[y*p.Stride+p.Stride-1] &= mask
	}
}

// Get returns 1 if pixel (x, y) is set, 0 otherwise. Out-of-range reads
// return 0, matching Bitmap.Get's border behaviour.
func (p *PackedBitmap) Get(x, y int) uint8 {
	if !p.In(x, y) {
		return 0
	}
	return uint8(p.Words[y*p.Stride+x>>6] >> (uint(x) & 63) & 1)
}

// Set sets pixel (x, y) to 1. Out-of-range writes are ignored.
func (p *PackedBitmap) Set(x, y int) {
	if p.In(x, y) {
		p.Words[y*p.Stride+x>>6] |= uint64(1) << (uint(x) & 63)
	}
}

// Unset clears pixel (x, y). Out-of-range writes are ignored.
func (p *PackedBitmap) Unset(x, y int) {
	if p.In(x, y) {
		p.Words[y*p.Stride+x>>6] &^= uint64(1) << (uint(x) & 63)
	}
}

// CountOnes returns the number of set pixels via word popcounts,
// dispatched to the vector popcount kernel when one is active.
func (p *PackedBitmap) CountOnes() int {
	return kernels().popcntWords(p.Words)
}

// Equal reports whether two packed bitmaps have identical size and pixels.
func (p *PackedBitmap) Equal(o *PackedBitmap) bool {
	if p.W != o.W || p.H != o.H {
		return false
	}
	for i := range p.Words {
		if p.Words[i] != o.Words[i] {
			return false
		}
	}
	return true
}

// CountRange returns the number of set pixels in the rectangle
// [x0, x1) x [y0, y1), clamped to the image — the popcount form of the
// RPN's validity-check pixel count.
func (p *PackedBitmap) CountRange(x0, y0, x1, y1 int) int {
	x0, y0, x1, y1 = p.clampRect(x0, y0, x1, y1)
	if x0 >= x1 || y0 >= y1 {
		return 0
	}
	n := 0
	for y := y0; y < y1; y++ {
		n += popcountRange(p.Row(y), x0, x1)
	}
	return n
}

// TightBounds returns the bounding box [tx0, tx1) x [ty0, ty1) of the set
// pixels inside the clamped rectangle [x0, x1) x [y0, y1); ok is false when
// the rectangle contains no set pixels.
func (p *PackedBitmap) TightBounds(x0, y0, x1, y1 int) (tx0, ty0, tx1, ty1 int, ok bool) {
	x0, y0, x1, y1 = p.clampRect(x0, y0, x1, y1)
	if x0 >= x1 || y0 >= y1 {
		return 0, 0, 0, 0, false
	}
	tx0, tx1 = x1, x0
	ty0, ty1 = y1, y0
	for y := y0; y < y1; y++ {
		lo, hi, rowOK := rowBitBounds(p.Row(y), x0, x1)
		if !rowOK {
			continue
		}
		if lo < tx0 {
			tx0 = lo
		}
		if hi > tx1 {
			tx1 = hi
		}
		if y < ty0 {
			ty0 = y
		}
		ty1 = y + 1
		ok = true
	}
	if !ok {
		return 0, 0, 0, 0, false
	}
	return tx0, ty0, tx1, ty1, true
}

// ClearRange zeroes every pixel in the rectangle [x0, x1) x [y0, y1),
// clamped to the image, with word-masked stores — the packed form of the
// region-of-exclusion blanking.
func (p *PackedBitmap) ClearRange(x0, y0, x1, y1 int) {
	x0, y0, x1, y1 = p.clampRect(x0, y0, x1, y1)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	wa, wb := x0>>6, (x1-1)>>6
	loMask := ^uint64(0) << (uint(x0) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(x1-1) & 63))
	for y := y0; y < y1; y++ {
		row := p.Row(y)
		if wa == wb {
			row[wa] &^= loMask & hiMask
			continue
		}
		row[wa] &^= loMask
		for k := wa + 1; k < wb; k++ {
			row[k] = 0
		}
		row[wb] &^= hiMask
	}
}

func (p *PackedBitmap) clampRect(x0, y0, x1, y1 int) (int, int, int, int) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > p.W {
		x1 = p.W
	}
	if y1 > p.H {
		y1 = p.H
	}
	return x0, y0, x1, y1
}

// popcountRange counts the set bits of a packed row in bit positions [a, b).
// The caller guarantees 0 <= a < b <= 64*len(row).
func popcountRange(row []uint64, a, b int) int {
	wa, wb := a>>6, (b-1)>>6
	loMask := ^uint64(0) << (uint(a) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(b-1) & 63))
	if wa == wb {
		return bits.OnesCount64(row[wa] & loMask & hiMask)
	}
	n := bits.OnesCount64(row[wa] & loMask)
	if wb-wa > 16 {
		// Wide interior: hand the unmasked words to the dispatched vector
		// popcount. Narrow ranges (the common RPN validity checks) stay on
		// the scalar loop — below that size the call costs more than it
		// saves.
		n += kernels().popcntWords(row[wa+1 : wb])
	} else {
		for k := wa + 1; k < wb; k++ {
			n += bits.OnesCount64(row[k])
		}
	}
	return n + bits.OnesCount64(row[wb]&hiMask)
}

// rowBitBounds returns the first and one-past-last set bit positions of a
// packed row within [a, b); ok is false when the range has no set bits.
func rowBitBounds(row []uint64, a, b int) (lo, hi int, ok bool) {
	wa, wb := a>>6, (b-1)>>6
	loMask := ^uint64(0) << (uint(a) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(b-1) & 63))
	lo = -1
	for k := wa; k <= wb; k++ {
		w := row[k]
		if k == wa {
			w &= loMask
		}
		if k == wb {
			w &= hiMask
		}
		if w == 0 {
			continue
		}
		if lo < 0 {
			lo = k<<6 + bits.TrailingZeros64(w)
		}
		hi = k<<6 + 64 - bits.LeadingZeros64(w)
	}
	if lo < 0 {
		return 0, 0, false
	}
	return lo, hi, true
}

// PackBitmap packs a byte-per-pixel bitmap into dst, which is resized
// (reusing its backing array when large enough) and returned; pass nil to
// allocate.
func PackBitmap(dst *PackedBitmap, src *Bitmap) *PackedBitmap {
	if dst == nil {
		dst = NewPackedBitmap(src.W, src.H)
	} else {
		dst.Resize(src.W, src.H)
	}
	for y := 0; y < src.H; y++ {
		row := src.Pix[y*src.W : (y+1)*src.W]
		out := dst.Row(y)
		for x, px := range row {
			if px != 0 {
				out[x>>6] |= uint64(1) << (uint(x) & 63)
			}
		}
	}
	return dst
}

// Unpack expands the packed bitmap into dst, which is resized (reusing its
// backing array when large enough) and returned; pass nil to allocate.
func (p *PackedBitmap) Unpack(dst *Bitmap) *Bitmap {
	if dst == nil {
		dst = NewBitmap(p.W, p.H)
	} else {
		dst.W, dst.H = p.W, p.H
		if cap(dst.Pix) < p.W*p.H {
			dst.Pix = make([]uint8, p.W*p.H)
		} else {
			dst.Pix = dst.Pix[:p.W*p.H]
			dst.Clear()
		}
	}
	for y := 0; y < p.H; y++ {
		out := dst.Pix[y*p.W : (y+1)*p.W]
		for k, w := range p.Row(y) {
			base := k << 6
			for w != 0 {
				b := bits.TrailingZeros64(w)
				out[base+b] = 1
				w &= w - 1
			}
		}
	}
	return dst
}

// String renders the bitmap like Bitmap.String: rows of '.' and '#' with row
// 0 at the bottom. Debugging and small test fixtures only.
func (p *PackedBitmap) String() string {
	var sb strings.Builder
	sb.Grow((p.W + 1) * p.H)
	for y := p.H - 1; y >= 0; y-- {
		for x := 0; x < p.W; x++ {
			if p.Get(x, y) != 0 {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
