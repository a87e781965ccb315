package imgproc

import (
	"fmt"
	"math/bits"
)

// PackedMedianFilter is MedianFilter over the packed representation: the
// same p x p binary median (output = 1 when the patch count exceeds
// floor(p^2/2), pixels outside the image counting 0), computed 64 output
// pixels per word by bit-sliced counter networks. ar bounds the work to the
// frame's active region: only output rows within the region's row span plus
// the p/2 halo are computed (the rest of dst is bulk-cleared), and within a
// row only the words the region's dirty-word masks mark. ar must be a
// superset of src's set pixels (see ActiveRegion); nil means no information
// and processes the full frame. Output is bit-identical at every sparsity
// level.
//
// dst and src must be distinct packed bitmaps of the same size; p must be
// odd with 1 <= p <= MaxMedianP.
func PackedMedianFilter(dst, src *PackedBitmap, p int, ar *ActiveRegion) error {
	if p < 1 || p%2 == 0 || p > MaxMedianP {
		return fmt.Errorf("imgproc: median patch size must be odd and in [1, %d], got %d", MaxMedianP, p)
	}
	if dst == src {
		return fmt.Errorf("imgproc: median filter cannot run in place")
	}
	if dst.W != src.W || dst.H != src.H {
		return fmt.Errorf("imgproc: size mismatch dst %dx%d vs src %dx%d", dst.W, dst.H, src.W, src.H)
	}
	if src.W == 0 || src.H == 0 {
		return nil
	}
	if ar != nil && ar.Empty() {
		// No set pixels anywhere: every patch count is 0, which never
		// clears the > thresh test (thresh >= 0).
		dst.Clear()
		return nil
	}
	switch p {
	case 3:
		// The paper's default patch size gets the hand-unrolled bit-sliced
		// kernel: 64 output pixels per handful of word ops.
		packedMedian3Region(dst, src, ar)
	case 5:
		// p=5 gets its own fully unrolled instance of the counter network:
		// the generic plane kernel is correct for it but spills to memory,
		// and this is the other patch size the paper sweeps.
		packedMedian5Region(dst, src, ar)
	default:
		packedMedianPlanesRegion(dst, src, p, ar)
	}
	return nil
}

// packedMedian3Region is the 3 x 3 median specialised to bit-sliced
// word-parallel form: instead of sliding a per-pixel sum, the per-column
// vertical counts of three rows are held as two bit-planes (a carry-save
// adder over whole words), the horizontal 3-column sum as four bit-planes,
// and the > 4 majority test as a single boolean expression — 64 output
// pixels per ~40 word ops. With an active region the work is bounded per
// word: each output row touches only the maximal runs of its window's
// dirty-word mask widened by the one-word halo, so disjoint blobs on the
// same rows stop paying for each other's columns. ar == nil (or a degraded
// wide region) processes every word of the row span.
func packedMedian3Region(dst, src *PackedBitmap, ar *ActiveRegion) {
	h, stride := src.H, src.Stride
	clear(dst.Words)
	// simd is the assembly run kernel when one is active; scratch is
	// acquired lazily on the first run long enough to use it, so sparse
	// frames whose runs are all short pay no pool or dispatch overhead.
	simd := kernels().median3
	var ms *medianScratch
	ry0, ry1 := 0, h
	var rowsMask []uint64
	var wordMask uint64
	if ar != nil {
		ry0, ry1 = ar.RowSpan()
		if !ar.wide {
			rowsMask = ar.rows
			wordMask = ar.wordMask
		}
	}
	oy0, oy1 := ry0-1, ry1+1
	if oy0 < 0 {
		oy0 = 0
	}
	if oy1 > h {
		oy1 = h
	}
	for y := oy0; y < oy1; y++ {
		// Output words: exactly the window's dirty words. A clean word
		// cannot produce output — its interior columns see only zero
		// words, and its edge columns collect at most 1 neighbouring
		// column x 3 rows = 3 < 5 — so no halo widening is needed, and
		// the words flanking a maximal run are clean, seeding each run's
		// rolling planes from zero.
		var wm uint64
		if rowsMask != nil {
			lo, hi := y-1, y+1
			if lo < ry0 {
				lo = ry0
			}
			if hi >= ry1 {
				hi = ry1 - 1
			}
			for r := lo; r <= hi; r++ {
				wm |= rowsMask[r]
			}
			if wm == 0 {
				continue
			}
		}
		// The three window rows, nil when outside the image or the dirty
		// span (both all-zero).
		var ra, rb, rc []uint64
		if yy := y - 1; yy >= ry0 && yy < ry1 {
			ra = src.Row(yy)
		}
		if y >= ry0 && y < ry1 {
			rb = src.Row(y)
		}
		if yy := y + 1; yy >= ry0 && yy < ry1 {
			rc = src.Row(yy)
		}
		out := dst.Row(y)
		if rowsMask == nil {
			if simd != nil && stride >= simdMinRun {
				if ms == nil {
					ms = getMedianScratch(stride)
				}
				simd(ms, out, ra, rb, rc, 0, stride-1)
			} else {
				median3Run(out, ra, rb, rc, 0, stride-1)
			}
			continue
		}
		om := wm & wordMask
		base := 0
		for om != 0 {
			tz := bits.TrailingZeros64(om)
			om >>= uint(tz)
			n := bits.TrailingZeros64(^om) // run length; 64 when om is all ones
			if simd != nil && n >= simdMinRun {
				if ms == nil {
					ms = getMedianScratch(stride)
				}
				simd(ms, out, ra, rb, rc, base+tz, base+tz+n-1)
			} else {
				median3Run(out, ra, rb, rc, base+tz, base+tz+n-1)
			}
			om >>= uint(n) // shift >= 64 is defined as 0 in Go
			base += tz + n
		}
	}
	if ms != nil {
		putMedianScratch(ms)
	}
}

// median3Run emits output words [ka, kb] of one 3 x 3 median row. The
// window rows may be nil (all-zero); words ka-1 and kb+1 must be clean,
// which both callers guarantee (run boundaries of the smeared dirty mask,
// or the frame edge).
func median3Run(out, ra, rb, rc []uint64, ka, kb int) {
	// Rolling bit-planes of the vertical counts: (p1 p0) for word k-1,
	// (c1 c0) for k, (n1 n0) for k+1. count = a + b + c per column:
	// low plane a^b^c, high plane majority(a, b, c).
	var p0, p1, c0, c1, n0, n1 uint64
	a, b, c := word3(ra, rb, rc, ka)
	ab := a ^ b
	c0, c1 = ab^c, (a&b)|(ab&c)
	for k := ka; k <= kb; k++ {
		n0, n1 = 0, 0
		if k < kb {
			a, b, c = word3(ra, rb, rc, k+1)
			ab = a ^ b
			n0, n1 = ab^c, (a&b)|(ab&c)
		}
		// Neighbour columns aligned onto this word's bit positions:
		// column x-1 arrives by shifting up (carry bit 63 of word k-1),
		// column x+1 by shifting down (carry bit 0 of word k+1).
		l0 := c0<<1 | p0>>63
		l1 := c1<<1 | p1>>63
		r0 := c0>>1 | n0<<63
		r1 := c1>>1 | n1<<63
		// t = left + centre + right, bit-sliced: first a 2-bit + 2-bit
		// add into (x2 x1 x0), then + 2-bit into (t3 t2 t1 t0) <= 9.
		x0 := l0 ^ c0
		g0 := l0 & c0
		xa := l1 ^ c1
		x1 := xa ^ g0
		x2 := (l1 & c1) | (g0 & xa)
		t0 := x0 ^ r0
		h0 := x0 & r0
		tb := x1 ^ r1
		t1 := tb ^ h0
		h1 := (x1 & r1) | (h0 & tb)
		t2 := x2 ^ h1
		t3 := x2 & h1
		// Median: patch count > 4, i.e. t >= 5 = t3 | t2&(t1|t0).
		// Row padding cannot fire: a padding column's own count is 0
		// and at most one real neighbour contributes <= 3.
		out[k] = t3 | t2&(t1|t0)
		p0, p1, c0, c1 = c0, c1, n0, n1
	}
}

// packedMedian5Region is the 5 x 5 median as a fully unrolled bit-sliced
// counter network: the vertical counts of five rows (0..5) are held as
// three bit-planes by a carry-save adder, the five shifted copies of those
// planes are reduced by a Wallace tree into the five planes of the patch
// total (0..25), and the > 12 threshold is a short boolean expression —
// all in registers, 64 output pixels per word. Region bounding is the same
// per-word run scheme as packedMedian3Region, with a two-pixel halo that
// still reaches at most one adjacent word.
func packedMedian5Region(dst, src *PackedBitmap, ar *ActiveRegion) {
	h, stride := src.H, src.Stride
	clear(dst.Words)
	// Lazy SIMD dispatch, as in packedMedian3Region.
	simd := kernels().median5
	var ms *medianScratch
	ry0, ry1 := 0, h
	var rowsMask []uint64
	var wordMask uint64
	if ar != nil {
		ry0, ry1 = ar.RowSpan()
		if !ar.wide {
			rowsMask = ar.rows
			wordMask = ar.wordMask
		}
	}
	oy0, oy1 := ry0-2, ry1+2
	if oy0 < 0 {
		oy0 = 0
	}
	if oy1 > h {
		oy1 = h
	}
	for y := oy0; y < oy1; y++ {
		// Output words: exactly the window's dirty words — a clean word's
		// edge columns collect at most 2 neighbouring columns x 5 rows =
		// 10 < 13, so clean words never produce output and the words
		// flanking a maximal run seed each run's rolling planes from zero.
		var wm uint64
		if rowsMask != nil {
			lo, hi := y-2, y+2
			if lo < ry0 {
				lo = ry0
			}
			if hi >= ry1 {
				hi = ry1 - 1
			}
			for r := lo; r <= hi; r++ {
				wm |= rowsMask[r]
			}
			if wm == 0 {
				continue
			}
		}
		// The five window rows, nil when outside the image or dirty span.
		var r0, r1, r2, r3, r4 []uint64
		if yy := y - 2; yy >= ry0 && yy < ry1 {
			r0 = src.Row(yy)
		}
		if yy := y - 1; yy >= ry0 && yy < ry1 {
			r1 = src.Row(yy)
		}
		if y >= ry0 && y < ry1 {
			r2 = src.Row(y)
		}
		if yy := y + 1; yy >= ry0 && yy < ry1 {
			r3 = src.Row(yy)
		}
		if yy := y + 2; yy >= ry0 && yy < ry1 {
			r4 = src.Row(yy)
		}
		out := dst.Row(y)
		if rowsMask == nil {
			if simd != nil && stride >= simdMinRun {
				if ms == nil {
					ms = getMedianScratch(stride)
				}
				simd(ms, out, r0, r1, r2, r3, r4, 0, stride-1)
			} else {
				median5Run(out, r0, r1, r2, r3, r4, 0, stride-1)
			}
			continue
		}
		om := wm & wordMask
		base := 0
		for om != 0 {
			tz := bits.TrailingZeros64(om)
			om >>= uint(tz)
			n := bits.TrailingZeros64(^om)
			if simd != nil && n >= simdMinRun {
				if ms == nil {
					ms = getMedianScratch(stride)
				}
				simd(ms, out, r0, r1, r2, r3, r4, base+tz, base+tz+n-1)
			} else {
				median5Run(out, r0, r1, r2, r3, r4, base+tz, base+tz+n-1)
			}
			om >>= uint(n)
			base += tz + n
		}
	}
	if ms != nil {
		putMedianScratch(ms)
	}
}

// median5Run emits output words [ka, kb] of one 5 x 5 median row. Words
// ka-1 and kb+1 must be clean (run boundaries of the smeared dirty mask or
// the frame edge), so the rolling previous-word planes seed from zero.
func median5Run(out, r0, r1, r2, r3, r4 []uint64, ka, kb int) {
	// Rolling vertical-count planes: (q2 q1 q0) for word k-1, (m2 m1 m0)
	// for k, (n2 n1 n0) for k+1; plane weight 1, 2, 4.
	var q0, q1, q2, n0, n1, n2 uint64
	m0, m1, m2 := vert5(r0, r1, r2, r3, r4, ka)
	for k := ka; k <= kb; k++ {
		n0, n1, n2 = 0, 0, 0
		if k < kb {
			// vert5 hand-inlined: the compiler's budget rejects it and a
			// call per word costs as much as the adder tree it feeds.
			kk := k + 1
			var a, b, c, d, e uint64
			if r0 != nil {
				a = r0[kk]
			}
			if r1 != nil {
				b = r1[kk]
			}
			if r2 != nil {
				c = r2[kk]
			}
			if r3 != nil {
				d = r3[kk]
			}
			if r4 != nil {
				e = r4[kk]
			}
			ab := a ^ b
			s0 := ab ^ c
			vc0 := a&b | ab&c
			sd := s0 ^ d
			n0 = sd ^ e
			vc1 := s0&d | sd&e
			n1 = vc0 ^ vc1
			n2 = vc0 & vc1
		}
		// The five shifted copies of the count planes: columns x-2, x-1
		// arrive by shifting up (top bits of word k-1), x+1, x+2 by
		// shifting down (bottom bits of word k+1).
		a0 := m0<<2 | q0>>62
		a1 := m1<<2 | q1>>62
		a2 := m2<<2 | q2>>62
		b0 := m0<<1 | q0>>63
		b1 := m1<<1 | q1>>63
		b2 := m2<<1 | q2>>63
		d0 := m0>>1 | n0<<63
		d1 := m1>>1 | n1<<63
		d2 := m2>>1 | n2<<63
		e0 := m0>>2 | n0<<62
		e1 := m1>>2 | n1<<62
		e2 := m2>>2 | n2<<62
		// Wallace-tree reduction by plane weight into the patch total
		// t4..t0 (<= 25). Weight 1: five inputs, two full adders.
		x := a0 ^ b0
		sA := x ^ m0
		cA := a0&b0 | x&m0
		x = sA ^ d0
		t0 := x ^ e0
		cB := sA&d0 | x&e0
		// Weight 2: five inputs plus carries cA, cB — three full adders.
		x = a1 ^ b1
		sC := x ^ m1
		cC := a1&b1 | x&m1
		x = d1 ^ e1
		sD := x ^ cA
		cD := d1&e1 | x&cA
		x = sC ^ sD
		t1 := x ^ cB
		cE := sC&sD | x&cB
		// Weight 4: five inputs plus carries cC, cD, cE.
		x = a2 ^ b2
		sF := x ^ m2
		cF := a2&b2 | x&m2
		x = d2 ^ e2
		sG := x ^ cC
		cG := d2&e2 | x&cC
		x = sF ^ sG
		sH := x ^ cD
		cH := sF&sG | x&cD
		t2 := sH ^ cE
		cI := sH & cE
		// Weight 8: carries cF..cI.
		x = cF ^ cG
		sJ := x ^ cH
		cJ := cF&cG | x&cH
		t3 := sJ ^ cI
		cK := sJ & cI
		// Weight 16: the total is <= 25 < 32, so at most one carry lands.
		t4 := cJ | cK
		// Median: patch count > 12. Padding columns cannot fire — real
		// columns within the halo contribute at most 2*5 = 10 < 13.
		out[k] = t4 | t3&t2&(t1|t0)
		q0, q1, q2, m0, m1, m2 = m0, m1, m2, n0, n1, n2
	}
}

// vert5 returns the three vertical-count planes of word k over five window
// rows (nil rows are all-zero): a carry-save adder tree for counts 0..5.
func vert5(r0, r1, r2, r3, r4 []uint64, k int) (v0, v1, v2 uint64) {
	var a, b, c, d, e uint64
	if r0 != nil {
		a = r0[k]
	}
	if r1 != nil {
		b = r1[k]
	}
	if r2 != nil {
		c = r2[k]
	}
	if r3 != nil {
		d = r3[k]
	}
	if r4 != nil {
		e = r4[k]
	}
	ab := a ^ b
	s0 := ab ^ c
	c0 := a&b | ab&c
	sd := s0 ^ d
	v0 = sd ^ e
	c1 := s0&d | sd&e
	v1 = c0 ^ c1
	v2 = c0 & c1
	return v0, v1, v2
}

// MaxMedianP is the largest median patch size PackedMedianFilter accepts
// (and so ebbi.Config, whose frames it filters). 63 keeps the horizontal
// halo (p/2 <= 31 columns) within one adjacent word, so each output word of
// the bit-plane kernel depends on exactly its two neighbours, and keeps the
// plane arrays at fixed size on the stack. The paper uses p = 3; a 63 x 63
// patch already spans a third of a DAVIS240 frame's height.
const MaxMedianP = 63

// planeCount / totalPlaneCount bound the bit-plane arrays: vertical column
// counts reach p <= 63 (6 planes), patch totals reach p*p <= 3969 (12).
const (
	planeCount      = 6
	totalPlaneCount = 12
)

// packedMedianPlanesRegion generalises the carry-save median to any odd
// patch size p <= MaxMedianP (PackedMedianFilter routes every p but 3 and 5
// here): the vertical column counts of the p
// window rows are accumulated into nv = ceil(log2(p+1)) bit-planes by a
// word-parallel ripple adder, the 2*half+1 shifted copies of those planes
// are summed into nt total planes, and the count > floor(p^2/2) test is a
// bit-sliced constant comparison — 64 output pixels per word, no per-pixel
// slide. Work is bounded exactly like packedMedian3Region: per output row,
// only the maximal runs of the window's dirty-word mask smeared by one word
// are touched (ar == nil or a wide region processes the full row span).
func packedMedianPlanesRegion(dst, src *PackedBitmap, p int, ar *ActiveRegion) {
	h, stride := src.H, src.Stride
	clear(dst.Words)
	half := p / 2
	nv := bits.Len(uint(p))     // vertical counts <= p fit in nv planes
	nt := bits.Len(uint(p * p)) // patch totals <= p*p fit in nt planes
	thresh := uint64(p*p) / 2
	ry0, ry1 := 0, h
	var rowsMask []uint64
	var wordMask uint64
	if ar != nil {
		ry0, ry1 = ar.RowSpan()
		if !ar.wide {
			rowsMask = ar.rows
			wordMask = ar.wordMask
		}
	}
	oy0, oy1 := ry0-half, ry1+half
	if oy0 < 0 {
		oy0 = 0
	}
	if oy1 > h {
		oy1 = h
	}
	// win collects the window's candidate rows for the current output row;
	// rows with an all-clean mask are dropped up front (their words are all
	// zero by the region invariant), so the per-word adder only ever loads
	// rows that can contribute.
	var win [MaxMedianP][]uint64
	for y := oy0; y < oy1; y++ {
		lo, hi := y-half, y+half
		if lo < ry0 {
			lo = ry0
		}
		if hi >= ry1 {
			hi = ry1 - 1
		}
		nw := 0
		var wm uint64
		if rowsMask != nil {
			for r := lo; r <= hi; r++ {
				if m := rowsMask[r]; m != 0 {
					wm |= m
					win[nw] = src.Row(r)
					nw++
				}
			}
			if wm == 0 {
				continue
			}
		} else {
			for r := lo; r <= hi; r++ {
				win[nw] = src.Row(r)
				nw++
			}
		}
		out := dst.Row(y)
		if rowsMask == nil {
			medianPlanesRun(out, win[:nw], 0, stride-1, half, nv, nt, thresh)
			continue
		}
		// Same run bounding as the 3x3 kernel: output words are exactly
		// the dirty words (a clean word's edge columns collect at most
		// half*p < floor(p^2/2)+1), and the words flanking a maximal run
		// are clean, so runs start from zeroed planes.
		om := wm & wordMask
		base := 0
		for om != 0 {
			tz := bits.TrailingZeros64(om)
			om >>= uint(tz)
			n := bits.TrailingZeros64(^om)
			medianPlanesRun(out, win[:nw], base+tz, base+tz+n-1, half, nv, nt, thresh)
			om >>= uint(n)
			base += tz + n
		}
	}
}

// medianPlanesRun emits output words [ka, kb] of one bit-plane median row.
// win holds the window's (possibly empty) rows; words ka-1 and kb+1 must be
// clean, which the caller guarantees, so the rolling previous-word planes
// seed from zero.
func medianPlanesRun(out []uint64, win [][]uint64, ka, kb, half, nv, nt int, thresh uint64) {
	// Rolling vertical-count planes for words k-1, k, k+1 plus a shift
	// scratch, and the total-count planes for the current word.
	var vp, vc, vn, vs [planeCount]uint64
	var t [totalPlaneCount]uint64
	vertPlanes(&vc, win, ka, nv)
	for k := ka; k <= kb; k++ {
		if k < kb {
			vertPlanes(&vn, win, k+1, nv)
		} else {
			for i := 0; i < nv; i++ {
				vn[i] = 0
			}
		}
		for i := 0; i < nt; i++ {
			t[i] = 0
		}
		// Patch total = sum over dx in [-half, half] of the vertical counts
		// shifted by dx. Left neighbours shift up pulling word k-1's top
		// bits in; right neighbours shift down pulling word k+1's bottom
		// bits in.
		addPlanes(&t, &vc, nv, nt)
		for d := 1; d <= half; d++ {
			s := uint(d)
			for i := 0; i < nv; i++ {
				vs[i] = vc[i]<<s | vp[i]>>(64-s)
			}
			addPlanes(&t, &vs, nv, nt)
			for i := 0; i < nv; i++ {
				vs[i] = vc[i]>>s | vn[i]<<(64-s)
			}
			addPlanes(&t, &vs, nv, nt)
		}
		// Bit-sliced count > thresh: walk planes high to low keeping an
		// "equal so far" mask; a 1 where thresh has a 0 decides greater.
		// Padding columns cannot fire: their own count is 0 and the real
		// columns within the halo contribute at most half*p <= floor(p^2/2).
		gt, eq := uint64(0), ^uint64(0)
		for j := nt - 1; j >= 0; j-- {
			if thresh>>uint(j)&1 == 0 {
				gt |= eq & t[j]
			} else {
				eq &= t[j]
			}
		}
		out[k] = gt
		vp, vc = vc, vn
	}
}

// vertPlanes accumulates word k of every window row into nv count planes
// with a word-parallel ripple adder: plane i carries bit i of each column's
// vertical count.
func vertPlanes(v *[planeCount]uint64, win [][]uint64, k, nv int) {
	for i := 0; i < nv; i++ {
		v[i] = 0
	}
	for _, row := range win {
		w := row[k]
		if w == 0 {
			continue
		}
		for i := 0; i < nv; i++ {
			cy := v[i] & w
			v[i] ^= w
			w = cy
			if w == 0 {
				break
			}
		}
	}
}

// addPlanes adds the nv-plane counts a into the nt-plane totals t with a
// word-parallel full adder per plane. Totals never overflow nt planes
// (the patch count is at most p*p).
func addPlanes(t *[totalPlaneCount]uint64, a *[planeCount]uint64, nv, nt int) {
	var carry uint64
	for i := 0; i < nv; i++ {
		ti, ai := t[i], a[i]
		t[i] = ti ^ ai ^ carry
		carry = ti&ai | carry&(ti^ai)
	}
	for i := nv; i < nt && carry != 0; i++ {
		ti := t[i]
		t[i] = ti ^ carry
		carry = ti & carry
	}
}

// word3 loads word k of the three window rows, treating a nil row as
// all-zero.
func word3(ra, rb, rc []uint64, k int) (a, b, c uint64) {
	if ra != nil {
		a = ra[k]
	}
	if rb != nil {
		b = rb[k]
	}
	if rc != nil {
		c = rc[k]
	}
	return a, b, c
}

// blockBounds converts a dirty-word mask into the [i0, i1) range of s1-wide
// blocks that can overlap a dirty word, clamped to the downsampled width w.
func blockBounds(mask uint64, stride, s1, w int) (i0, i1 int) {
	ka := bits.TrailingZeros64(mask)
	kb := 63 - bits.LeadingZeros64(mask)
	if kb >= stride {
		kb = stride - 1
	}
	i0 = (ka << 6) / s1
	i1 = (kb<<6+63)/s1 + 1
	if i1 > w {
		i1 = w
	}
	if i0 > i1 {
		i0 = i1
	}
	return i0, i1
}

// blockPopMask returns the s1-bit block mask for the fast block-popcount
// path, or 0 when s1 is too wide for a single 64-bit fetch.
func blockPopMask(s1 int) uint64 {
	if s1 >= 64 {
		return 0
	}
	return (uint64(1) << uint(s1)) - 1
}

// fetchBits returns 64 row bits starting at bit offset off (short at the row
// end). Hand-inlined two-word fetch: the block kernels call it once per
// downsampled block.
func fetchBits(row []uint64, off int) uint64 {
	k, sh := off>>6, uint(off)&63
	v := row[k] >> sh
	if sh != 0 && k+1 < len(row) {
		v |= row[k+1] << (64 - sh)
	}
	return v
}

// PackedHistograms computes the X/Y projections of Eq. 4 directly from a
// packed bitmap at downsampling factors (s1, s2), fusing Downsample and
// Histograms: block popcounts are accumulated straight into the X
// histogram and each block row's total into the Y histogram, so the scaled
// image of Eq. 3 is never materialized. The results are bit-identical to
// DownsampleInto + HistogramsInto on the unpacked image. The hxBuf and
// hyBuf scratch slices are reused when large enough.
//
// ar bounds the pass to the frame's active region: block rows outside the
// region's row span keep their zero Y bins without touching the frame, and
// within a dirty source row only the blocks its dirty words can cover are
// popcounted. ar must be a superset of src's set pixels; nil processes the
// full frame.
func PackedHistograms(hxBuf, hyBuf []int, src *PackedBitmap, s1, s2 int, ar *ActiveRegion) (hx, hy []int, err error) {
	if s1 <= 0 || s2 <= 0 {
		return nil, nil, fmt.Errorf("imgproc: scale factors must be positive, got s1=%d s2=%d", s1, s2)
	}
	w := src.W / s1
	h := src.H / s2
	hx = resizeInts(hxBuf, w)
	hy = resizeInts(hyBuf, h)
	ry0, ry1 := 0, src.H
	if ar != nil {
		ry0, ry1 = ar.RowSpan()
		if ry0 >= ry1 {
			return hx, hy, nil
		}
	}
	blockMask := blockPopMask(s1)
	bp := kernels().blockPop
	if s1 > blockPopMaxS1 {
		bp = nil
	}
	for j := ry0 / s2; j < h && j*s2 < ry1; j++ {
		total := 0
		for n := 0; n < s2; n++ {
			yy := j*s2 + n
			if yy < ry0 || yy >= ry1 {
				continue
			}
			row := src.Row(yy)
			i0, i1 := 0, w
			if ar != nil && !ar.wide {
				mask := ar.RowMask(yy)
				// Superset region: a marked row may still be all-zero, so
				// the emptiness check stays, bounded to the dirty words.
				if mask == 0 || rowEmptyMasked(row, mask) {
					continue
				}
				i0, i1 = blockBounds(mask, src.Stride, s1, w)
			} else if rowEmpty(row) {
				continue
			}
			if blockMask != 0 {
				if bp != nil {
					total += bp(row, i0*s1, s1, hx[i0:i1])
				} else {
					off := i0 * s1
					for i := i0; i < i1; i++ {
						c := bits.OnesCount64(fetchBits(row, off) & blockMask)
						hx[i] += c
						total += c
						off += s1
					}
				}
			} else {
				for i := i0; i < i1; i++ {
					c := popcountRange(row, i*s1, i*s1+s1)
					hx[i] += c
					total += c
				}
			}
		}
		hy[j] += total
	}
	return hx, hy, nil
}

// rowEmptyMasked reports whether a packed row has no set bits within the
// dirty-word span of mask (words outside it are zero by the region
// invariant).
func rowEmptyMasked(row []uint64, mask uint64) bool {
	ka := bits.TrailingZeros64(mask)
	kb := 63 - bits.LeadingZeros64(mask)
	if kb >= len(row) {
		kb = len(row) - 1
	}
	var or uint64
	for k := ka; k <= kb; k++ {
		or |= row[k]
	}
	return or == 0
}

// rowEmpty reports whether a packed row has no set bits.
func rowEmpty(row []uint64) bool {
	var or uint64
	for _, w := range row {
		or |= w
	}
	return or == 0
}
