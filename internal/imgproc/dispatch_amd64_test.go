//go:build amd64 && !purego

package imgproc

import (
	"testing"

	"ebbiot/internal/cpufeat"
)

// TestPopcntSelfCheck covers the init-time guard against a host that
// advertises AVX2 but executes it wrongly: an implementation whose word
// popcount is off by one must fail the check, also when it is wrong only
// where the wrapper hands off to the assembly, and the generic and AVX2
// implementations must pass it.
func TestPopcntSelfCheck(t *testing.T) {
	broken := map[string]func(p []uint64) int{
		"minus one": func(p []uint64) int { return popcntWordsGeneric(p) - 1 },
		"plus one":  func(p []uint64) int { return popcntWordsGeneric(p) + 1 },
		"vector path only": func(p []uint64) int {
			if len(p) < simdMinPopWords {
				return popcntWordsGeneric(p)
			}
			return popcntWordsGeneric(p) + 1
		},
	}
	for name, fn := range broken {
		im := avx2Impl
		im.popcntWords = fn
		if popcntSelfCheck(&im) {
			t.Errorf("%s: self-check passed a wrong popcount", name)
		}
	}
	if !popcntSelfCheck(&genericImpl) {
		t.Error("self-check failed the generic implementation")
	}
	if !cpufeat.Detect().AVX2 {
		if archImpl() != nil || available[0] != &genericImpl {
			t.Fatal("a CPU without AVX2 must dispatch to the generic implementation")
		}
		t.Skip("CPU reports no AVX2, so the assembly cannot run here")
	}
	if !popcntSelfCheck(&avx2Impl) {
		t.Fatal("self-check failed the AVX2 implementation")
	}
	if archImpl() != &avx2Impl || available[0] != &avx2Impl {
		t.Fatal("an AVX2 CPU whose assembly passes the self-check must dispatch to avx2Impl")
	}
}
