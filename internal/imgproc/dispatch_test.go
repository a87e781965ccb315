package imgproc

// forceImpl swaps im in as the active implementation and returns the
// closure restoring the previous one. The differential tests force the
// generic oracle with it; the per-arm benchmarks force each available arm.
func forceImpl(im *kernelImpl) (restore func()) {
	prev := current.Swap(im)
	return func() { current.Store(prev) }
}
