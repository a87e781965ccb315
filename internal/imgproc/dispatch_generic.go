//go:build !amd64 || purego

package imgproc

// archImpl reports no architecture-specific kernel implementation: on
// non-amd64 platforms and under the purego build tag only the portable
// generic kernels exist.
func archImpl() *kernelImpl { return nil }
