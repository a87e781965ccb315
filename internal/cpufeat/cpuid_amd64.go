//go:build amd64 && !purego

package cpufeat

// cpuid executes CPUID with EAX=leaf, ECX=sub. Implemented in
// cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended state mask. Only valid when
// CPUID.1:ECX.OSXSAVE is set. Implemented in cpuid_amd64.s.
func xgetbv0() (eax, edx uint32)

// CPUID.1:ECX bits.
const (
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
)

// CPUID.7.0:EBX bits.
const cpuid7AVX2 = 1 << 5

// XCR0 state-component bits: the OS saves XMM and YMM state.
const (
	xcr0SSE      = 1 << 1
	xcr0AVX      = 1 << 2
	xcr0AVXState = xcr0SSE | xcr0AVX
)

func detect() Features {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return Features{}
	}
	_, _, ecx1, _ := cpuid(1, 0)
	// Without OSXSAVE the OS does not save the wide registers across
	// context switches; executing AVX code would fault or corrupt state.
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return Features{}
	}
	xlo, _ := xgetbv0()
	if xlo&xcr0AVXState != xcr0AVXState {
		return Features{}
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return Features{AVX2: ebx7&cpuid7AVX2 != 0}
}
