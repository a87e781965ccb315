// Package cpufeat detects the x86 SIMD feature the hand-written assembly
// kernels in internal/imgproc gate on: AVX2. It is intentionally tiny and
// zero-dependency: a CPUID/XGETBV probe on amd64, a constant "nothing
// detected" answer everywhere else (and under the purego build tag), so the
// pure-Go fallback kernels are what every other platform runs.
//
// Detection follows the Intel rules rather than trusting the feature bit in
// isolation: AVX2 requires OSXSAVE and AVX plus XCR0 XMM+YMM state enabled
// by the OS. A hypervisor that masks CPUID or an OS that doesn't
// context-switch the YMM registers therefore reports false, and the
// dispatcher stays on the generic kernels.
package cpufeat

// Features is the detected x86 SIMD feature set. The zero value means
// "nothing beyond baseline amd64" and is what non-amd64 builds report.
type Features struct {
	// AVX2 covers the 256-bit integer instruction set the packed median
	// and popcount kernels use (VPSHUFB, VPSRLVQ, VPSADBW and friends).
	AVX2 bool
}

// String renders the detected set ("avx2", or "none" when empty), the
// form the startup log and /stats report.
func (f Features) String() string {
	if f.AVX2 {
		return "avx2"
	}
	return "none"
}

// detected is probed once at init; CPUID is not free and the answer cannot
// change while the process runs.
var detected = detect()

// Detect returns the features of the CPU the process is running on.
func Detect() Features { return detected }
