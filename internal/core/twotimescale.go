package core

import (
	"fmt"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
)

// TwoTimescale implements the extension sketched in the paper's conclusion:
// "we have not tracked slow and small objects like humans — this can be
// done by a two time scale approach where a second frame is generated with
// longer exposure times to capture activity of humans."
//
// A fast EBBIOT pipeline runs at the base tF for vehicles, and a second
// pipeline accumulates events over SlowFactor consecutive windows before
// producing a frame, so slow walkers — whose per-66 ms event yield is too
// sparse to survive the median filter and RPN threshold — integrate enough
// events to form solid regions. Slow-pipeline tracks that duplicate a fast
// track (by IoU) are suppressed; the remainder are reported alongside the
// fast tracks at every base frame.
type TwoTimescale struct {
	fast *EBBIOT
	slow *EBBIOT
	// factor is the exposure multiple of the slow pipeline.
	factor int
	// pending buffers the events of the current slow exposure.
	pending []events.Event
	// windowCount counts base windows into the current slow exposure.
	windowCount int
	// slowBoxes holds the slow pipeline's last output, reported until the
	// next slow frame completes.
	slowBoxes []geometry.Box
	// dedupIoU suppresses slow tracks overlapping a fast track.
	dedupIoU float64
}

var _ System = (*TwoTimescale)(nil)

// TwoTimescaleConfig parameterises the extension.
type TwoTimescaleConfig struct {
	// Fast is the base pipeline configuration (tF = 66 ms in the paper).
	Fast Config
	// SlowFactor is the exposure multiple for the slow pipeline; 4 gives
	// the 264 ms exposure a walking human needs at DAVIS scale.
	SlowFactor int
	// DedupIoU suppresses slow tracks whose IoU with any fast track
	// exceeds this value.
	DedupIoU float64
}

// DefaultTwoTimescaleConfig returns a 4x slow exposure over the default
// EBBIOT parameters, with the slow RPN kept as-is (its threshold is already
// minimal) and slow-track dedup at IoU 0.3.
func DefaultTwoTimescaleConfig() TwoTimescaleConfig {
	return TwoTimescaleConfig{
		Fast:       DefaultConfig(),
		SlowFactor: 4,
		DedupIoU:   0.3,
	}
}

// NewTwoTimescale builds the two-pipeline system.
func NewTwoTimescale(cfg TwoTimescaleConfig) (*TwoTimescale, error) {
	if cfg.SlowFactor < 2 {
		return nil, fmt.Errorf("core: SlowFactor must be >= 2, got %d", cfg.SlowFactor)
	}
	if cfg.DedupIoU < 0 || cfg.DedupIoU > 1 {
		return nil, fmt.Errorf("core: DedupIoU must be in [0,1], got %v", cfg.DedupIoU)
	}
	fast, err := NewEBBIOT(cfg.Fast)
	if err != nil {
		return nil, err
	}
	slowCfg := cfg.Fast
	// The slow tracker sees frames SlowFactor times less often; scale its
	// miss budget down so stale tracks do not linger for seconds.
	if slowCfg.Tracker.MaxMisses > 1 {
		slowCfg.Tracker.MaxMisses = 2
	}
	slow, err := NewEBBIOT(slowCfg)
	if err != nil {
		return nil, err
	}
	return &TwoTimescale{
		fast:     fast,
		slow:     slow,
		factor:   cfg.SlowFactor,
		dedupIoU: cfg.DedupIoU,
	}, nil
}

// Name implements System.
func (t *TwoTimescale) Name() string { return "EBBIOT-2TS" }

// ProcessWindow implements System: every base window feeds the fast
// pipeline; every SlowFactor windows the buffered events feed the slow
// pipeline. Output is the fast tracks plus non-duplicate slow tracks.
func (t *TwoTimescale) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	fastBoxes, err := t.fast.ProcessWindow(evs)
	if err != nil {
		return nil, err
	}
	t.pending = append(t.pending, evs...)
	t.windowCount++
	if t.windowCount >= t.factor {
		slowBoxes, err := t.slow.ProcessWindow(t.pending)
		if err != nil {
			return nil, err
		}
		t.slowBoxes = slowBoxes
		t.pending = t.pending[:0]
		t.windowCount = 0
	}
	out := append([]geometry.Box(nil), fastBoxes...)
	for _, sb := range t.slowBoxes {
		dup := false
		for _, fb := range fastBoxes {
			if sb.IoU(fb) > t.dedupIoU {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, sb)
		}
	}
	return out, nil
}

// Fast and Slow expose the underlying pipelines for instrumentation.
func (t *TwoTimescale) Fast() *EBBIOT { return t.fast }

// Close releases both sub-pipelines' EBBI buffers back to the bitmap pool;
// the system must not be used afterwards.
func (t *TwoTimescale) Close() {
	t.fast.Close()
	t.slow.Close()
}

// Slow returns the long-exposure pipeline.
func (t *TwoTimescale) Slow() *EBBIOT { return t.slow }
