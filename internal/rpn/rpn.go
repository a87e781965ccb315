// Package rpn implements the event-density region-proposal network of
// Section II-B: instead of connected-component analysis on the 2-D frame
// (or a CNN detector), the filtered EBBI is block-downsampled by (s1, s2),
// projected onto X and Y histograms (Eqs. 3-4), and above-threshold runs in
// the two 1-D signals are intersected into 2-D proposal boxes.
//
// When both axes contain multiple runs, the cartesian intersection can
// propose false regions; the paper's remedy — "a check needs to be done in
// the original image to see if there are any valid pixels in that region" —
// is implemented as the validity check, which counts set pixels in the
// candidate box and discards nearly-empty ones.
//
// A connected-component-based proposer (the generalisation the paper leaves
// as future work and our ablation baseline) is provided as CCAProposer.
package rpn

import (
	"fmt"

	"ebbiot/internal/geometry"
	"ebbiot/internal/imgproc"
)

// Config parameterises the histogram RPN.
type Config struct {
	// S1, S2 are the X and Y downsampling factors; the paper uses 6 and 3.
	S1, S2 int
	// Threshold is the histogram run threshold; runs of bins strictly
	// greater than this value become 1-D regions. The paper sets 1.
	Threshold int
	// MergeGap merges 1-D runs separated by at most this many downsampled
	// bins, countering object fragmentation. 0 merges only adjacent runs;
	// negative disables merging.
	MergeGap int
	// MinValidPixels is the validity check: a proposed 2-D box must contain
	// at least this many set pixels in the (full resolution) filtered image
	// or it is discarded as a false intersection.
	MinValidPixels int
	// MinW, MinH discard degenerate proposals smaller than the smallest
	// plausible object (in full-resolution pixels).
	MinW, MinH int
	// Tighten shrinks each validated proposal to the bounding box of the
	// set pixels it actually contains. This extends the paper's validity
	// check (which already scans the candidate box in the original image)
	// to also correct the run-intersection coarseness: when X runs from
	// different lanes merge, the intersection with each lane's Y run is
	// tightened back to that lane's own object.
	Tighten bool
}

// DefaultConfig returns the paper's parameters: s1 = 6, s2 = 3,
// threshold 1, plus conservative validity settings.
func DefaultConfig() Config {
	return Config{S1: 6, S2: 3, Threshold: 1, MergeGap: 1, MinValidPixels: 4, MinW: 3, MinH: 3, Tighten: true}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.S1 <= 0 || c.S2 <= 0 {
		return fmt.Errorf("rpn: scale factors must be positive, got s1=%d s2=%d", c.S1, c.S2)
	}
	if c.Threshold < 0 {
		return fmt.Errorf("rpn: negative threshold %d", c.Threshold)
	}
	if c.MinValidPixels < 0 {
		return fmt.Errorf("rpn: negative MinValidPixels %d", c.MinValidPixels)
	}
	return nil
}

// Proposal is one candidate object region.
type Proposal struct {
	// Box is the full-resolution proposal box.
	Box geometry.Box
	// Pixels is the number of set pixels inside the box in the filtered
	// image (the event-density evidence for the proposal).
	Pixels int
}

// Result carries the proposals plus the intermediate 1-D structures, which
// the visualisation example (Fig. 3) and tests inspect.
type Result struct {
	Proposals []Proposal
	// HX, HY are the downsampled histograms of Eq. 4.
	HX, HY []int
	// XRuns, YRuns are the above-threshold runs in downsampled coordinates,
	// after gap merging.
	XRuns, YRuns []imgproc.Run
}

// Proposer computes region proposals from filtered EBBIs. It owns scratch
// buffers for the downsampled image and histograms that are reused across
// windows, so the steady-state per-window path allocates only the proposal
// list itself. A Proposer is therefore not safe for concurrent use; give
// each sensor stream its own (as each stream owns its whole System).
type Proposer struct {
	cfg    Config
	scaled *imgproc.CountImage
	hx, hy []int
}

// New returns a Proposer.
func New(cfg Config) (*Proposer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Proposer{cfg: cfg}, nil
}

// Config returns the proposer's configuration.
func (p *Proposer) Config() Config { return p.cfg }

// Reconfigure swaps the proposer's configuration in place — the
// live-reconfiguration hook behind core's ApplyParams. The scratch buffers
// are dimensioned lazily per call, so a geometry change (s1/s2) needs no
// explicit rebuild; on error the proposer is left untouched.
func (p *Proposer) Reconfigure(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	p.cfg = cfg
	return nil
}

// Propose runs the full RPN on a filtered EBBI. The returned Result's HX
// and HY histograms alias the proposer's scratch buffers and are valid only
// until the next Propose call; the Proposals themselves are freshly
// allocated and safe to retain.
func (p *Proposer) Propose(img *imgproc.Bitmap) (Result, error) {
	scaled, err := imgproc.DownsampleInto(p.scaled, img, p.cfg.S1, p.cfg.S2)
	if err != nil {
		return Result{}, fmt.Errorf("rpn: %w", err)
	}
	p.scaled = scaled
	hx, hy := imgproc.HistogramsInto(p.hx, p.hy, scaled)
	return p.propose(hx, hy,
		func(b geometry.Box) int { return countPixels(img, b) },
		func(b geometry.Box) geometry.Box { return tightenBox(img, b) },
	), nil
}

// ProposePacked runs the full RPN on a packed filtered EBBI — the
// word-parallel path the tracking systems run. The downsample and both
// histograms collapse into one fused pass of block popcounts (the scaled
// image is never materialized), bounded to the frame's active region: the
// pass visits only the region's dirty rows and words, so the RPN never
// rescans dead frame area. The validity check and box tightening use masked
// popcounts and first/last-set-bit scans, and are already bounded by the
// candidate boxes, which the histogram runs confine to the active area. ar
// must be a superset of img's set pixels; nil processes the full frame.
// The Result is bit-identical to Propose on the unpacked image and carries
// the same aliasing contract: HX and HY alias scratch buffers valid until
// the next call.
func (p *Proposer) ProposePacked(img *imgproc.PackedBitmap, ar *imgproc.ActiveRegion) (Result, error) {
	hx, hy, err := imgproc.PackedHistograms(p.hx, p.hy, img, p.cfg.S1, p.cfg.S2, ar)
	if err != nil {
		return Result{}, fmt.Errorf("rpn: %w", err)
	}
	return p.propose(hx, hy,
		func(b geometry.Box) int {
			return img.CountRange(b.X, b.Y, b.MaxX(), b.MaxY())
		},
		func(b geometry.Box) geometry.Box {
			if x0, y0, x1, y1, ok := img.TightBounds(b.X, b.Y, b.MaxX(), b.MaxY()); ok {
				return geometry.BoxFromCorners(x0, y0, x1, y1)
			}
			return b
		},
	), nil
}

// propose finishes the RPN from the computed histograms: run extraction,
// gap merging, and the run intersection with validity check and optional
// tightening. count and tighten are the representation-specific image
// primitives, so the byte and packed paths share one copy of the proposal
// rules and cannot silently diverge.
func (p *Proposer) propose(hx, hy []int, count func(geometry.Box) int, tighten func(geometry.Box) geometry.Box) Result {
	p.hx, p.hy = hx, hy
	xr := imgproc.FindRuns(hx, p.cfg.Threshold)
	yr := imgproc.FindRuns(hy, p.cfg.Threshold)
	if p.cfg.MergeGap >= 0 {
		xr = imgproc.MergeRuns(xr, p.cfg.MergeGap)
		yr = imgproc.MergeRuns(yr, p.cfg.MergeGap)
	}
	res := Result{HX: hx, HY: hy, XRuns: xr, YRuns: yr}

	// Intersect every X run with every Y run; validate in the original
	// image when more than one run exists on both axes (otherwise the
	// intersection cannot be false). The validity count is also recorded as
	// the proposal's evidence either way.
	for _, rx := range xr {
		for _, ry := range yr {
			box := geometry.NewBox(
				rx.Start*p.cfg.S1, ry.Start*p.cfg.S2,
				rx.Len()*p.cfg.S1, ry.Len()*p.cfg.S2,
			)
			if box.W < p.cfg.MinW || box.H < p.cfg.MinH {
				continue
			}
			px := count(box)
			if px < p.cfg.MinValidPixels {
				continue
			}
			if p.cfg.Tighten {
				box = tighten(box)
				if box.W < p.cfg.MinW || box.H < p.cfg.MinH {
					continue
				}
			}
			res.Proposals = append(res.Proposals, Proposal{Box: box, Pixels: px})
		}
	}
	return res
}

// Boxes is a convenience returning only the proposal boxes.
func (r Result) Boxes() []geometry.Box {
	out := make([]geometry.Box, len(r.Proposals))
	for i, p := range r.Proposals {
		out[i] = p.Box
	}
	return out
}

// tightenBox returns the bounding box of the set pixels within b (b itself
// if it contains none).
func tightenBox(img *imgproc.Bitmap, b geometry.Box) geometry.Box {
	x0, y0 := b.MaxX(), b.MaxY()
	x1, y1 := b.X, b.Y
	xe, ye := min(b.MaxX(), img.W), min(b.MaxY(), img.H)
	for y := max(b.Y, 0); y < ye; y++ {
		row := y * img.W
		for x := max(b.X, 0); x < xe; x++ {
			if img.Pix[row+x] == 0 {
				continue
			}
			if x < x0 {
				x0 = x
			}
			if x >= x1 {
				x1 = x + 1
			}
			if y < y0 {
				y0 = y
			}
			if y >= y1 {
				y1 = y + 1
			}
		}
	}
	if x1 <= x0 || y1 <= y0 {
		return b
	}
	return geometry.BoxFromCorners(x0, y0, x1, y1)
}

func countPixels(img *imgproc.Bitmap, b geometry.Box) int {
	x1, y1 := b.MaxX(), b.MaxY()
	if x1 > img.W {
		x1 = img.W
	}
	if y1 > img.H {
		y1 = img.H
	}
	n := 0
	for y := b.Y; y < y1; y++ {
		if y < 0 {
			continue
		}
		row := y * img.W
		for x := b.X; x < x1; x++ {
			if x >= 0 && img.Pix[row+x] != 0 {
				n++
			}
		}
	}
	return n
}

// CCAProposer is the connected-components baseline: dilate to close gaps,
// label 8-connected components, and propose each component's bounding box.
// It is the "2-D CCA" generalisation discussed at the end of Section II-B.
type CCAProposer struct {
	// DilateRadius closes gaps up to 2*DilateRadius pixels before labelling.
	DilateRadius int
	// MinPixels discards components smaller than this.
	MinPixels int
}

// Propose labels the filtered image and returns component bounding boxes.
func (c CCAProposer) Propose(img *imgproc.Bitmap) []Proposal {
	work := img
	if c.DilateRadius > 0 {
		work = imgproc.Dilate(img, c.DilateRadius)
	}
	var out []Proposal
	for _, comp := range imgproc.ConnectedComponents(work) {
		if comp.Size < c.MinPixels {
			continue
		}
		// Evidence is counted in the undilated image.
		out = append(out, Proposal{Box: comp.Box, Pixels: countPixels(img, comp.Box)})
	}
	return out
}
