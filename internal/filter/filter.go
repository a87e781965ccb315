// Package filter implements event-domain noise filters for AER streams.
//
// The paper's baseline pipeline (NN-filt + EBMS) filters noise per event
// with a nearest-neighbour test over a timestamp map; EBBIOT instead
// filters per frame with a binary median (see imgproc.MedianFilter). Both
// are implemented here and in imgproc respectively so the resource
// comparison of Section II-A (Eqs. 1 and 2) can be reproduced on identical
// inputs.
package filter

import (
	"fmt"

	"ebbiot/internal/events"
)

// NNFilter is the nearest-neighbour event filter of Padala et al. (the
// paper's reference [9]): an event is kept only if some pixel in its p x p
// spatial neighbourhood fired within the support window, i.e. the event has
// spatio-temporal support. Background-activity noise is uncorrelated and
// fails the test; object events arrive in spatial bursts and pass.
//
// The filter stores one timestamp per pixel (Bt bits in the paper's memory
// model, Eq. 2); this implementation uses int64 for convenience while the
// resource accounting in internal/resources uses the paper's Bt.
type NNFilter struct {
	res events.Resolution
	// p is the neighbourhood size (side length, odd).
	p int
	// supportUS is the temporal window within which a neighbour timestamp
	// counts as support.
	supportUS int64
	// sae is the surface-of-active-events: last event time per pixel.
	sae []int64
	// ops counts primitive operations using the paper's accounting
	// (comparisons/increments plus one timestamp write per event).
	ops int64
}

// NewNN returns a nearest-neighbour filter. p must be odd and >= 3;
// supportUS must be positive.
func NewNN(res events.Resolution, p int, supportUS int64) (*NNFilter, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	if p < 3 || p%2 == 0 {
		return nil, fmt.Errorf("filter: neighbourhood size must be odd and >= 3, got %d", p)
	}
	if supportUS <= 0 {
		return nil, fmt.Errorf("filter: support window must be positive, got %d", supportUS)
	}
	sae := make([]int64, res.Pixels())
	for i := range sae {
		sae[i] = -1 << 40
	}
	return &NNFilter{res: res, p: p, supportUS: supportUS, sae: sae}, nil
}

// Filter processes a batch of events in arrival order and returns the
// subset that has neighbourhood support. The returned slice is freshly
// allocated; the input is unmodified.
func (f *NNFilter) Filter(evs []events.Event) []events.Event {
	out := make([]events.Event, 0, len(evs))
	half := f.p / 2
	for _, e := range evs {
		x, y := int(e.X), int(e.Y)
		supported := false
		for dy := -half; dy <= half; dy++ {
			for dx := -half; dx <= half; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := x+dx, y+dy
				if nx < 0 || nx >= f.res.A || ny < 0 || ny >= f.res.B {
					continue
				}
				f.ops++ // comparison against the neighbour timestamp
				if e.T-f.sae[ny*f.res.A+nx] <= f.supportUS {
					supported = true
				}
			}
		}
		// Timestamp write happens for every event, kept or not: the SAE must
		// reflect all sensor activity or bursts of noise would self-support.
		f.sae[y*f.res.A+x] = e.T
		f.ops++ // memory write
		if supported {
			out = append(out, e)
		}
	}
	return out
}

// Ops returns the cumulative primitive-operation count.
func (f *NNFilter) Ops() int64 { return f.ops }
