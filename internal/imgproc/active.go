package imgproc

import "math/bits"

// ActiveRegion summarises where a PackedBitmap may contain set pixels: a
// dirty row span plus, per row, a bitmap of dirty storage words. It is the
// sparsity side-channel of the packed frame chain — event accumulation
// maintains it in O(1) per event (ebbi.PackedBuilder), and the kernels
// that take one (PackedMedianFilter, PackedHistograms, roe.Mask.MaskPacked)
// touch only the region plus their kernel halo and skip the rest of the
// frame.
//
// The contract is conservative in exactly one direction: the region is a
// SUPERSET of the set pixels. Every marked word may still be all-zero
// (clearing pixels — ROE masking, deferred frame clears — never unmarks),
// but a set pixel outside the region is a caller bug and kernels will
// silently miss it. Kernels accept a nil *ActiveRegion to mean "no
// information": the full frame is processed.
//
// Per-word tracking covers strides up to 64 words (4096-pixel-wide
// frames); wider frames degrade gracefully to span-only tracking, where
// every word of a dirty row counts as dirty.
type ActiveRegion struct {
	h, stride int
	y0, y1    int // dirty row span [y0, y1); empty when y0 >= y1
	// rows[y] bit k set means word k of row y may hold set pixels. Rows
	// outside [y0, y1) are all-zero by invariant.
	rows []uint64
	// wordMask is the set of word indexes that exist in a row (all ones
	// when the stride is 64 words or wider).
	wordMask uint64
	// wide disables per-word tracking (stride > 64): RowMask degrades to
	// wordMask for every row inside the span.
	wide bool
}

// NewActiveRegion returns an empty region for a w x h packed bitmap.
func NewActiveRegion(w, h int) *ActiveRegion {
	a := &ActiveRegion{}
	a.Resize(w, h)
	return a
}

// Resize reshapes the region for a w x h bitmap and empties it.
func (a *ActiveRegion) Resize(w, h int) {
	stride := (w + wordBits - 1) / wordBits
	a.h, a.stride = h, stride
	a.wide = stride > 64
	if stride >= 64 {
		a.wordMask = ^uint64(0)
	} else {
		a.wordMask = (uint64(1) << uint(stride)) - 1
	}
	if cap(a.rows) < h {
		a.rows = make([]uint64, h)
	} else {
		a.rows = a.rows[:h]
		clear(a.rows)
	}
	a.y0, a.y1 = h, 0
}

// Reset empties the region in place, touching only the dirty span.
func (a *ActiveRegion) Reset() {
	if a.y1 > a.y0 {
		clear(a.rows[a.y0:a.y1])
	}
	a.y0, a.y1 = a.h, 0
}

// MarkWord records that word w of row y may now hold set pixels. It is the
// O(1) per-event update on the accumulate hot path; y and w must be in
// range (the caller has already bounds-checked the event).
func (a *ActiveRegion) MarkWord(y, w int) {
	a.rows[y] |= uint64(1) << (uint(w) & 63)
	if y < a.y0 {
		a.y0 = y
	}
	if y >= a.y1 {
		a.y1 = y + 1
	}
}

// MarkAll dirties the whole frame, the "no sparsity" fixed point.
func (a *ActiveRegion) MarkAll() {
	a.y0, a.y1 = 0, a.h
	for y := range a.rows {
		a.rows[y] = a.wordMask
	}
}

// Empty reports whether no word is marked.
func (a *ActiveRegion) Empty() bool { return a.y1 <= a.y0 }

// RowSpan returns the dirty row span [y0, y1); y0 >= y1 when empty.
func (a *ActiveRegion) RowSpan() (y0, y1 int) { return a.y0, a.y1 }

// RowMask returns the dirty-word bitmap of row y (zero outside the span;
// all words when per-word tracking is degraded).
func (a *ActiveRegion) RowMask(y int) uint64 {
	if y < a.y0 || y >= a.y1 {
		return 0
	}
	if a.wide {
		return a.wordMask
	}
	return a.rows[y]
}

// SetDilated makes a the morphological dilation of src by a square radius
// r: the row span grows by r in both directions (clamped to the image) and
// each row's word mask becomes the union of the source masks within r rows,
// smeared sideways far enough to cover an r-pixel horizontal reach. This is
// how a frame's region propagates through an r-halo kernel: the median
// filter with patch p can only set pixels within p/2 of a set input pixel,
// so the filtered frame's region is the raw region dilated by p/2.
//
// a adopts src's geometry. a == src dilates in place; because every row
// written is a union that includes its own prior value, the in-place
// result can only be wider than the exact dilation — still a valid
// superset region.
func (a *ActiveRegion) SetDilated(src *ActiveRegion, r int) {
	if r < 0 {
		r = 0
	}
	if a != src {
		a.h, a.stride, a.wide, a.wordMask = src.h, src.stride, src.wide, src.wordMask
		if cap(a.rows) < a.h {
			a.rows = make([]uint64, a.h)
		} else {
			a.rows = a.rows[:a.h]
			clear(a.rows)
		}
		a.y0, a.y1 = a.h, 0
	}
	if src.Empty() {
		a.Reset()
		return
	}
	oy0, oy1 := src.y0-r, src.y1+r
	if oy0 < 0 {
		oy0 = 0
	}
	if oy1 > a.h {
		oy1 = a.h
	}
	// smear is how many words an r-pixel horizontal reach can cross: a bit
	// at the top of a word travels at most (63+r)/64 word boundaries.
	smear := 0
	if r > 0 && !a.wide {
		smear = (r + 63) >> 6
	}
	sy0, sy1 := src.y0, src.y1
	for y := oy0; y < oy1; y++ {
		var m uint64
		lo, hi := y-r, y+r
		if lo < sy0 {
			lo = sy0
		}
		if hi >= sy1 {
			hi = sy1 - 1
		}
		if src.wide {
			m = src.wordMask
		} else {
			for yy := lo; yy <= hi; yy++ {
				m |= src.rows[yy]
			}
		}
		for s := 1; s <= smear; s++ {
			m |= m << 1
			m |= m >> 1
		}
		a.rows[y] |= m & a.wordMask
	}
	a.y0, a.y1 = oy0, oy1
}

// CoverageWords returns how many words the region marks dirty — the
// numerator of the active-pixel fraction the monitoring surface reports.
func (a *ActiveRegion) CoverageWords() int {
	if a.Empty() {
		return 0
	}
	if a.wide {
		return a.stride * (a.y1 - a.y0)
	}
	n := 0
	for _, m := range a.rows[a.y0:a.y1] {
		n += bits.OnesCount64(m)
	}
	return n
}

// FrameWords returns the total word count of the tracked frame — the
// denominator of the active-pixel fraction.
func (a *ActiveRegion) FrameWords() int { return a.stride * a.h }
