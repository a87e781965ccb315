//go:build amd64 && !purego

package imgproc

import (
	"math/bits"

	"ebbiot/internal/cpufeat"
)

// The assembly kernels in simd_amd64.s. All of them require AVX2; none
// touches memory outside the slices whose base pointers it is handed.

// median3AsmAVX2 stages the vertical-count CSA planes of three window rows
// (n words each, nil rows replaced by an all-zero row) into v0/v1 at
// elements [1, n] with zeroed pad words at 0 and n+1, then evaluates the
// horizontal 3-column majority network four words per lane into out.
// Requires n >= 4; out must not alias the row or plane slices.
//
//go:noescape
func median3AsmAVX2(out, v0, v1, ra, rb, rc *uint64, n int)

// median5AsmAVX2 is the 5x5 analogue: three vertical planes at elements
// [1, n] (the ±2-column shifts still borrow only from the adjacent word,
// so one zeroed pad per side suffices), then the five-column Wallace
// tree. Requires n >= 4.
//
//go:noescape
func median5AsmAVX2(out, v0, v1, v2, r0, r1, r2, r3, r4 *uint64, n int)

// popcntWordsAsmAVX2 returns the total popcount of n words via the VPSHUFB
// nibble-LUT + VPSADBW reduction. Requires n >= 8.
//
//go:noescape
func popcntWordsAsmAVX2(p *uint64, n int) int

// blockPopAsmAVX2 adds the popcount of each of n s1-wide bit blocks of row
// (starting at bit offset off) into acc[0..n) and returns their sum. Four
// blocks are extracted per 64-bit fetch with per-lane variable shifts, so
// it requires 1 <= s1 <= blockPopMaxS1, n >= 4, and every block in bounds:
// off + n*s1 <= 64*rowLen.
//
//go:noescape
func blockPopAsmAVX2(row *uint64, rowLen, off, s1 int, acc *int, n int) int

func median3RunAVX2(s *medianScratch, out, ra, rb, rc []uint64, ka, kb int) {
	n := kb - ka + 1
	if n < simdMinRun {
		median3Run(out, ra, rb, rc, ka, kb)
		return
	}
	z := &s.zero[0]
	pa, pb, pc := z, z, z
	if ra != nil {
		pa = &ra[ka]
	}
	if rb != nil {
		pb = &rb[ka]
	}
	if rc != nil {
		pc = &rc[ka]
	}
	median3AsmAVX2(&out[ka], &s.v0[0], &s.v1[0], pa, pb, pc, n)
}

func median5RunAVX2(s *medianScratch, out, r0, r1, r2, r3, r4 []uint64, ka, kb int) {
	n := kb - ka + 1
	if n < simdMinRun {
		median5Run(out, r0, r1, r2, r3, r4, ka, kb)
		return
	}
	z := &s.zero[0]
	p0, p1, p2, p3, p4 := z, z, z, z, z
	if r0 != nil {
		p0 = &r0[ka]
	}
	if r1 != nil {
		p1 = &r1[ka]
	}
	if r2 != nil {
		p2 = &r2[ka]
	}
	if r3 != nil {
		p3 = &r3[ka]
	}
	if r4 != nil {
		p4 = &r4[ka]
	}
	median5AsmAVX2(&out[ka], &s.v0[0], &s.v1[0], &s.v2[0], p0, p1, p2, p3, p4, n)
}

// simdMinPopWords gates the vector popcount: below this the scalar POPCNT
// loop wins on setup cost alone.
const simdMinPopWords = 16

func popcntWordsAVX2(p []uint64) int {
	if len(p) < simdMinPopWords {
		return popcntWordsGeneric(p)
	}
	return popcntWordsAsmAVX2(&p[0], len(p))
}

// simdMinBlocks gates the vector block popcount per row segment.
const simdMinBlocks = 8

func blockPopAVX2(row []uint64, off, s1 int, acc []int) int {
	if len(acc) < simdMinBlocks {
		return blockPopGeneric(row, off, s1, acc)
	}
	return blockPopAsmAVX2(&row[0], len(row), off, s1, &acc[0], len(acc))
}

// avx2Impl is the assembly arm: the AVX2 bit-plane median networks and the
// VPSHUFB nibble-lookup popcount reductions.
var avx2Impl = kernelImpl{
	name:        "avx2",
	median3:     median3RunAVX2,
	median5:     median5RunAVX2,
	popcntWords: popcntWordsAVX2,
	blockPop:    blockPopAVX2,
}

// archImpl returns avx2Impl when the CPU reports AVX2 and the assembly
// passes popcntSelfCheck, and nil otherwise.
func archImpl() *kernelImpl {
	if !cpufeat.Detect().AVX2 || !popcntSelfCheck(&avx2Impl) {
		return nil
	}
	return &avx2Impl
}

// popcntSelfCheck is a cheap init-time sanity probe, run inside archImpl
// (before dispatch.go's init picks an implementation): if the assembly
// popcount disagrees with the scalar one on a fixed vector, dispatch stays
// on the generic kernels rather than corrupt every downstream reduction. It
// guards against an OS/hypervisor that advertises a feature it cannot
// actually execute correctly (the full differential guarantee comes from
// the test suite, not this probe).
func popcntSelfCheck(im *kernelImpl) bool {
	v := make([]uint64, 32)
	for i := range v {
		v[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	want := 0
	for _, w := range v {
		want += bits.OnesCount64(w)
	}
	return im.popcntWords(v) == want
}
