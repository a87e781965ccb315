package imgproc

import (
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"

	"ebbiot/internal/cpufeat"
)

// kernelImpl is one resolved set of packed-kernel entry points. The generic
// implementation is always compiled and is the differential oracle for the
// assembly ones; on amd64, dispatch_amd64.go contributes AVX2/AVX-512
// variants and init picks the best the CPU supports.
type kernelImpl struct {
	name string // "generic", "avx2", "avx512"

	// median3 / median5 emit one run of output words [ka, kb] under the
	// same contract as median3Run / median5Run (clean flanking words, nil
	// rows all-zero), staging through the padded plane scratch s. nil means
	// "no accelerated version": the region loops then call the scalar run
	// kernels directly, so the generic arm pays no scratch or indirect-call
	// overhead, and runs shorter than simdMinRun skip the dispatch the same
	// way (the wrappers also self-check the length as a safety net).
	median3    func(s *medianScratch, out, ra, rb, rc []uint64, ka, kb int)
	median5    func(s *medianScratch, out, r0, r1, r2, r3, r4 []uint64, ka, kb int)
	medianName string

	// popcntWords returns the total popcount of p.
	popcntWords func(p []uint64) int
	popcntName  string

	// blockPop adds the popcount of each of len(acc) s1-wide bit blocks
	// (starting at bit offset off of row) into acc and returns their sum.
	// nil means "no accelerated version": callers keep their inline loops,
	// so the generic arm pays no scratch or call overhead. Callers must
	// check s1 <= blockPopMaxS1 before using it.
	blockPop     func(row []uint64, off, s1 int, acc []int) int
	blockPopName string
}

// blockPopMaxS1 is the widest block the vectorized block popcount handles:
// four s1-wide blocks plus a worst-case 7-bit load misalignment must fit in
// one 64-bit fetch (7 + 4*14 = 63).
const blockPopMaxS1 = 14

// simdMinRun is the run length (in words) below which the region loops keep
// a dirty run on the scalar median kernels even when an assembly
// implementation is active: the vector loops need at least one full 4-word
// group, and at that size the scalar rolling-plane kernel is competitive.
const simdMinRun = 4

var genericImpl = kernelImpl{
	name:         "generic",
	median3:      nil,
	median5:      nil,
	medianName:   "generic",
	popcntWords:  popcntWordsGeneric,
	popcntName:   "generic",
	blockPop:     nil,
	blockPopName: "generic",
}

func popcntWordsGeneric(p []uint64) int {
	n := 0
	for _, w := range p {
		n += bits.OnesCount64(w)
	}
	return n
}

// blockPopGeneric is the portable block popcount behind the dispatched
// signature; the assembly wrappers fall back to it for short block ranges.
func blockPopGeneric(row []uint64, off, s1 int, acc []int) int {
	mask := blockPopMask(s1)
	total := 0
	for i := range acc {
		c := bits.OnesCount64(fetchBits(row, off) & mask)
		acc[i] += c
		total += c
		off += s1
	}
	return total
}

var (
	// available lists the usable implementations, best first; archImpls is
	// supplied by dispatch_amd64.go / dispatch_generic.go.
	available = append(archImpls(), &genericImpl)

	// current is the active implementation, swapped atomically so test
	// overrides are race-free against concurrent kernel calls (both arms
	// produce bit-identical output, so a racing caller may use either).
	current atomic.Pointer[kernelImpl]

	// envForced records a recognised EBBIOT_KERNELS override, for KernelInfo.
	envForced string
)

func init() {
	pick := available[0]
	if want := os.Getenv("EBBIOT_KERNELS"); want != "" {
		for _, im := range available {
			if im.name == want {
				pick = im
				envForced = want
				break
			}
		}
	}
	current.Store(pick)
}

// kernels returns the active implementation. init has always run by the
// time any kernel is callable, so the pointer is never nil.
func kernels() *kernelImpl { return current.Load() }

// ForceGeneric routes every dispatched kernel to the portable pure-Go
// implementations and returns a function restoring the previous choice.
// It is the test hook behind the differential SIMD-vs-generic checks; the
// purego build tag forces the same thing at compile time.
func ForceGeneric() (restore func()) {
	old := current.Swap(&genericImpl)
	return func() { current.Store(old) }
}

// Kernels describes the dispatch decision: the detected CPU feature set and
// the implementation chosen per entry point. It is logged at startup by
// ebbiot-run and surfaced through /stats and /metrics.
type Kernels struct {
	CPU      string `json:"cpu"`
	Median   string `json:"median"`
	Popcount string `json:"popcount"`
	BlockPop string `json:"blockpop"`
	// Forced is the EBBIOT_KERNELS value when it selected the active
	// implementation, empty under automatic dispatch.
	Forced string `json:"forced,omitempty"`
}

// KernelInfo reports the currently active kernel implementations.
func KernelInfo() Kernels {
	im := kernels()
	return Kernels{
		CPU:      cpufeat.Detect().String(),
		Median:   im.medianName,
		Popcount: im.popcntName,
		BlockPop: im.blockPopName,
		Forced:   envForced,
	}
}

func (k Kernels) String() string {
	s := fmt.Sprintf("cpu %s, median %s, popcount %s, blockpop %s",
		k.CPU, k.Median, k.Popcount, k.BlockPop)
	if k.Forced != "" {
		s += " (forced " + k.Forced + ")"
	}
	return s
}

// medianScratch is the per-call staging area of the assembly median kernels:
// padded vertical-count bit-plane rows plus an all-zero stand-in for nil
// window rows. zero is only ever read — handing it out in place of a nil row
// keeps the assembly branchless.
type medianScratch struct {
	v0, v1, v2 []uint64
	zero       []uint64
}

var medianScratchPool = sync.Pool{New: func() any { return new(medianScratch) }}

// getMedianScratch returns scratch able to stage runs up to n words long
// (plane slices hold n+4, covering the 5x5 kernel's two pad words per side).
func getMedianScratch(n int) *medianScratch {
	s := medianScratchPool.Get().(*medianScratch)
	if cap(s.v0) < n+4 {
		s.v0 = make([]uint64, n+4)
		s.v1 = make([]uint64, n+4)
		s.v2 = make([]uint64, n+4)
		s.zero = make([]uint64, n+4)
	} else {
		s.v0 = s.v0[:n+4]
		s.v1 = s.v1[:n+4]
		s.v2 = s.v2[:n+4]
		s.zero = s.zero[:n+4]
	}
	return s
}

func putMedianScratch(s *medianScratch) { medianScratchPool.Put(s) }
