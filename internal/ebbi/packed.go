package ebbi

import (
	"fmt"

	"ebbiot/internal/events"
	"ebbiot/internal/imgproc"
)

// PackedFrame is the output of one readout interrupt on the word-parallel
// fast path: the same event count as Frame, with the raw and filtered EBBIs
// held packed (64 pixels per word) so the downstream RPN kernels consume
// them without ever materializing byte-per-pixel frames.
type PackedFrame struct {
	// Raw is the unfiltered EBBI, kept per Eq. 1 for later classification.
	Raw *imgproc.PackedBitmap
	// Filtered is the median-filtered EBBI consumed by the RPN.
	Filtered *imgproc.PackedBitmap
	// Active is a conservative superset of the set pixels in both Raw and
	// Filtered (the accumulate-time dirty region dilated by the median
	// halo). Downstream kernels use it to skip dead frame area; it aliases
	// builder state with the same lifetime as the bitmaps.
	Active *imgproc.ActiveRegion
	// EventCount is the number of events accumulated.
	EventCount int
}

// PackedBuilder is Builder for the packed fast path: events are latched
// straight into the packed raw frame (one OR per event) and Finish runs the
// word-parallel median, so the whole per-window frame chain stays in the
// packed domain. Semantics — deferred clearing, buffer aliasing, zero
// steady-state allocation — mirror Builder exactly, and differential tests
// hold the two paths bit-identical.
//
// On top of the packed frames the builder maintains an
// imgproc.ActiveRegion — a dirty row span plus per-row dirty word bitmaps,
// updated O(1) per accumulated event — which makes the whole downstream
// frame chain activity-bounded: Finish runs the median only over the dirty
// span plus its halo, the frame's deferred clear touches only dirty rows,
// and the returned PackedFrame carries the (halo-dilated) region for the
// RPN kernels.
type PackedBuilder struct {
	cfg      Config
	raw      *imgproc.PackedBitmap
	filtered *imgproc.PackedBitmap
	// active is the raw frame's dirty region for the accumulating window;
	// outActive is the halo-dilated copy handed out via PackedFrame.
	active    *imgproc.ActiveRegion
	outActive *imgproc.ActiveRegion
	count     int
	// needsClear defers zeroing the raw buffer until the next frame starts,
	// so the PackedFrame returned by Finish stays readable until then.
	needsClear bool
}

// NewPackedBuilder returns a PackedBuilder for the given configuration. The
// double buffer comes from the shared packed pool; call Release when the
// builder is no longer needed.
func NewPackedBuilder(cfg Config) (*PackedBuilder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PackedBuilder{
		cfg:       cfg,
		raw:       imgproc.GetPacked(cfg.Res.A, cfg.Res.B),
		filtered:  imgproc.GetPacked(cfg.Res.A, cfg.Res.B),
		active:    imgproc.NewActiveRegion(cfg.Res.A, cfg.Res.B),
		outActive: imgproc.NewActiveRegion(cfg.Res.A, cfg.Res.B),
	}, nil
}

// Release returns the builder's double buffer to the packed pool. The
// builder — and any PackedFrame it has returned, which aliases those
// buffers — must not be used afterwards.
func (b *PackedBuilder) Release() {
	imgproc.PutPacked(b.raw)
	imgproc.PutPacked(b.filtered)
	b.raw, b.filtered = nil, nil
	b.active, b.outActive = nil, nil
}

// Accumulate latches a batch of events into the current frame: each in-array
// event ORs one bit into the packed raw EBBI and marks its storage word in
// the active region. Events outside the sensor array are ignored; polarity
// is ignored (the EBBI is binary).
func (b *PackedBuilder) Accumulate(evs []events.Event) {
	if b.needsClear {
		b.clearFrame()
	}
	a, bb := b.cfg.Res.A, b.cfg.Res.B
	stride := b.raw.Stride
	words := b.raw.Words
	ar := b.active
	for _, e := range evs {
		x, y := int(e.X), int(e.Y)
		if x >= 0 && x < a && y >= 0 && y < bb {
			w := x >> 6
			words[y*stride+w] |= uint64(1) << (uint(x) & 63)
			ar.MarkWord(y, w)
			b.count++
		}
	}
}

// clearFrame performs the deferred between-frames clear: only the rows the
// previous window dirtied are zeroed (the rest of the buffer is already
// zero by the region invariant), then the region resets.
func (b *PackedBuilder) clearFrame() {
	if y0, y1 := b.active.RowSpan(); y1 > y0 {
		clear(b.raw.Words[y0*b.raw.Stride : y1*b.raw.Stride])
	}
	b.active.Reset()
	b.needsClear = false
}

// Finish runs the word-parallel median filter — bounded to the window's
// active region plus the filter halo — and returns the completed frame,
// then resets the accumulator for the next frame window. The returned
// frame's bitmaps and active region alias the builder's double buffer and
// are valid only until the next Finish call; callers that need to retain a
// frame must Clone.
func (b *PackedBuilder) Finish() (PackedFrame, error) {
	if b.needsClear {
		// No events arrived this frame; the buffer still holds the previous
		// frame's image and must be cleared before filtering.
		b.clearFrame()
	}
	if err := imgproc.PackedMedianFilter(b.filtered, b.raw, b.cfg.MedianP, b.active); err != nil {
		return PackedFrame{}, fmt.Errorf("ebbi: median filter: %w", err)
	}
	// The filtered image can only hold set pixels within p/2 of a raw set
	// pixel; the dilated region therefore covers Filtered (and trivially
	// Raw) for every downstream consumer.
	b.outActive.SetDilated(b.active, b.cfg.MedianP/2)
	f := PackedFrame{Raw: b.raw, Filtered: b.filtered, Active: b.outActive, EventCount: b.count}
	b.count = 0
	b.needsClear = true
	return f, nil
}

// Pending returns the number of in-array events accumulated into the
// current (unfinished) frame — the quantity the near-empty window fast
// path thresholds on before deciding to Finish.
func (b *PackedBuilder) Pending() int { return b.count }

// SkipWindow ends the current frame without filtering: the accumulated
// raw bits are discarded by the usual deferred clear and no frame is
// produced. When the pending event count is at or below floor(MedianP^2/2)
// the median output would be all-zero — no patch can exceed the threshold —
// so skipping is bit-identical to a Finish whose frame produces no
// proposals; callers use this to bypass the whole filter/proposal chain on
// near-empty windows.
func (b *PackedBuilder) SkipWindow() {
	b.count = 0
	b.needsClear = true
}
