package core

import (
	"fmt"

	"ebbiot/internal/ebbi"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/kalman"
	"ebbiot/internal/roe"
	"ebbiot/internal/rpn"
	"ebbiot/internal/tracker"
)

// oracle is the byte-per-pixel frame chain the packed systems are held
// bit-identical to: ebbi.Builder → roe.Mask.MaskBitmap → rpn.Proposer.Propose,
// then the same tracker step the system under test runs. It shares no frame
// code with the packed chain, only the configuration and the near-empty
// skip rule.
type oracle struct {
	builder   *ebbi.Builder
	proposer  *rpn.Proposer
	mask      *roe.Mask
	skipBelow int
	step      func([]geometry.Box) ([]geometry.Box, error)

	// frame and lastRPN are the most recent filtered frame (valid when
	// framed) and proposal result; skipped counts near-empty windows.
	frame   ebbi.Frame
	framed  bool
	lastRPN rpn.Result
	skipped int64
}

var _ System = (*oracle)(nil)

func newOracle(ecfg ebbi.Config, rcfg rpn.Config, mask *roe.Mask, skipBelow int, step func([]geometry.Box) ([]geometry.Box, error)) (*oracle, error) {
	b, err := ebbi.NewBuilder(ecfg)
	if err != nil {
		return nil, err
	}
	p, err := rpn.New(rcfg)
	if err != nil {
		return nil, err
	}
	return &oracle{builder: b, proposer: p, mask: mask, skipBelow: skipBelow, step: step}, nil
}

// newEBBIOTOracle is the oracle for NewEBBIOT(cfg): overlap tracker.
func newEBBIOTOracle(cfg Config) (*oracle, error) {
	tr, err := tracker.New(cfg.Tracker)
	if err != nil {
		return nil, err
	}
	return newOracle(cfg.EBBI, cfg.RPN, cfg.Tracker.ROE, cfg.SkipEventsBelow, func(boxes []geometry.Box) ([]geometry.Box, error) {
		reports := tr.Step(boxes)
		out := make([]geometry.Box, len(reports))
		for i, r := range reports {
			out[i] = r.Box
		}
		return out, nil
	})
}

// newEBBIKFOracle is the oracle for NewEBBIKF(cfg): ROE box filter, then
// the Kalman tracker.
func newEBBIKFOracle(cfg KFConfig) (*oracle, error) {
	tr, err := kalman.New(cfg.Tracker)
	if err != nil {
		return nil, err
	}
	return newOracle(cfg.EBBI, cfg.RPN, cfg.ROE, cfg.SkipEventsBelow, func(boxes []geometry.Box) ([]geometry.Box, error) {
		if cfg.ROE != nil {
			boxes = cfg.ROE.FilterBoxes(boxes, cfg.ROEMaxCover)
		}
		reports, err := tr.Step(boxes)
		if err != nil {
			return nil, err
		}
		out := make([]geometry.Box, len(reports))
		for i, r := range reports {
			out[i] = r.Box
		}
		return out, nil
	})
}

func (o *oracle) Name() string { return "oracle" }

func (o *oracle) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	o.builder.Accumulate(evs)
	o.lastRPN = rpn.Result{}
	if o.skipBelow > 0 && o.builder.Pending() < o.skipBelow {
		o.builder.SkipWindow()
		o.skipped++
	} else {
		frame, err := o.builder.Finish()
		if err != nil {
			return nil, fmt.Errorf("oracle: ebbi: %w", err)
		}
		if o.mask != nil {
			o.mask.MaskBitmap(frame.Filtered)
		}
		if o.lastRPN, err = o.proposer.Propose(frame.Filtered); err != nil {
			return nil, fmt.Errorf("oracle: rpn: %w", err)
		}
		o.frame, o.framed = frame, true
	}
	return o.step(o.lastRPN.Boxes())
}
