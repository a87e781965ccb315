package imgproc

import "sync"

// packedPool recycles PackedBitmap backing arrays across short-lived
// pipelines. Streaming runners build and discard whole tracking systems per
// sensor stream (and evaluation sweeps build one per recording); pooling
// their EBBI double buffers keeps that churn off the garbage collector.
var packedPool = sync.Pool{New: func() any { return new(PackedBitmap) }}

// GetPacked returns a cleared w x h packed bitmap, reusing a pooled backing
// array when one of sufficient capacity is available. Release it with
// PutPacked once no references to it (or its Words slice) remain.
func GetPacked(w, h int) *PackedBitmap {
	p := packedPool.Get().(*PackedBitmap)
	p.Resize(w, h)
	return p
}

// PutPacked returns a packed bitmap to the pool. The caller must not use p
// (or retain its Words slice) afterwards.
func PutPacked(p *PackedBitmap) {
	if p == nil {
		return
	}
	packedPool.Put(p)
}
