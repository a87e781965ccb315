// Package core assembles the paper's three end-to-end tracking systems
// behind a single frame-synchronous interface:
//
//   - EBBIOT (the paper's contribution): EBBI accumulation + binary median
//     filter + histogram region proposal + overlap tracker;
//   - EBBI+KF: the same front end with the Kalman-filter tracker;
//   - EBMS: nearest-neighbour event filter + event-based mean shift.
//
// All three consume raw sensor events one frame window (tF) at a time and
// report integer track boxes at each frame boundary, which is exactly how
// the paper evaluates them (boxes sampled at fixed intervals, Section
// III-B). EBMS processes events within the window event-by-event — its
// per-event nature is preserved; only the reporting is frame-aligned.
//
// The EBBI-based systems run one packed frame chain: events accumulate
// straight into a 64-pixel-per-word EBBI and the median, histograms and
// validity checks are word-parallel popcount kernels (imgproc.PackedBitmap),
// with no byte-per-pixel frame ever materialized. The byte-per-pixel
// kernels, which match the paper's cost-model accounting (Eq. 1), are not
// selectable at runtime: this package's tests run them as the oracle the
// packed chain is held bit-identical to.
package core

import (
	"fmt"
	"time"

	"ebbiot/internal/ebbi"
	"ebbiot/internal/ebms"
	"ebbiot/internal/events"
	"ebbiot/internal/filter"
	"ebbiot/internal/geometry"
	"ebbiot/internal/imgproc"
	"ebbiot/internal/kalman"
	"ebbiot/internal/roe"
	"ebbiot/internal/rpn"
	"ebbiot/internal/tracker"
)

// System is a frame-synchronous tracking pipeline.
//
// Aliasing contract: ProcessWindow must not retain evs after returning —
// callers (the streaming pipeline in particular) recycle the window buffer
// for the next frame. Conversely, the returned box slice is freshly
// allocated each call and safe for the caller to retain, but auxiliary
// accessors (EBBIOT.LastFrame, EBBIOT.LastRPN) alias internal buffers that
// are valid only until the next ProcessWindow; callers that fan results out
// across goroutines must deep-copy into snapshots at the window boundary,
// which pipeline.Runner does.
type System interface {
	// Name identifies the pipeline in reports ("EBBIOT", "EBBI+KF",
	// "EBMS").
	Name() string
	// ProcessWindow consumes one frame window of events (already sliced to
	// [k*tF, (k+1)*tF)) and returns the tracks reported at the window end.
	// Implementations must not retain evs; the returned slice must be fresh
	// (see the System aliasing contract above).
	ProcessWindow(evs []events.Event) ([]geometry.Box, error)
}

// WindowBatcher is declared only because perfbench/trace.go type-asserts
// it to keep its tracing wrappers' method sets. No system in this module
// implements it and nothing calls it: the pipeline Runner processes one
// window per ProcessWindow call. Delete it together with those wrappers.
type WindowBatcher interface {
	ProcessWindowBatch(wins [][]events.Event) ([][]geometry.Box, error)
}

// StageTimings accumulates per-stage wall-clock over the windows a system
// has processed, the breakdown behind the paper's duty-cycle active slice:
// EBBI accumulation, median filtering, region proposal and tracker step.
// Mean per-window times are totals divided by Windows.
type StageTimings struct {
	// Windows is the number of ProcessWindow calls accumulated.
	Windows int64
	// Skipped counts the windows the near-empty fast path bypassed: their
	// event count was below LosslessSkipThreshold(MedianP), so the median /
	// proposal stages never ran and the tracker stepped with no
	// detections. Skipped windows are included in Windows.
	Skipped int64
	// EBBI is time spent latching events into the frame.
	EBBI time.Duration
	// Filter is time spent in the binary median (the Finish call).
	Filter time.Duration
	// RPN is time spent in region proposal (including ROE masking).
	RPN time.Duration
	// Track is time spent stepping the tracker.
	Track time.Duration
	// ActiveWords and FrameWords accumulate, per window, how much of the
	// packed frame the active region marked dirty versus the frame's total
	// word count. Their ratio is the mean active-pixel fraction — the
	// sparsity the activity-bounded kernels exploit.
	ActiveWords int64
	FrameWords  int64
}

// Add returns the element-wise sum, for aggregating across streams.
func (t StageTimings) Add(o StageTimings) StageTimings {
	return StageTimings{
		Windows:     t.Windows + o.Windows,
		Skipped:     t.Skipped + o.Skipped,
		EBBI:        t.EBBI + o.EBBI,
		Filter:      t.Filter + o.Filter,
		RPN:         t.RPN + o.RPN,
		Track:       t.Track + o.Track,
		ActiveWords: t.ActiveWords + o.ActiveWords,
		FrameWords:  t.FrameWords + o.FrameWords,
	}
}

// MeanActiveFraction returns the mean active-pixel fraction over the
// accumulated windows (1 when fully dense, 0 before any window).
func (t StageTimings) MeanActiveFraction() float64 {
	if t.FrameWords == 0 {
		return 0
	}
	return float64(t.ActiveWords) / float64(t.FrameWords)
}

// StageTimer is implemented by systems that record per-stage timings
// (EBBIOT and EBBI+KF); the ebbiot-run CLI uses it for the throughput
// breakdown.
type StageTimer interface {
	StageTimings() StageTimings
}

// Config parameterises the EBBIOT pipeline. EBBI.Res is the sensor array
// for the whole chain: the tracker gets its bounds from it.
type Config struct {
	EBBI    ebbi.Config
	RPN     rpn.Config
	Tracker tracker.Config
}

// LosslessSkipThreshold returns the near-empty window bound for median
// patch size p: with fewer than floor(p^2/2)+1 set pixels in the whole
// array, no p x p patch can exceed the median threshold, so the filtered
// frame — and therefore the proposal set — is empty regardless. The
// EBBI-based systems skip the median / downsample / proposal stages of any
// window with fewer in-array events than this and step the tracker with no
// detections, so tracks age normally and no reported box changes.
func LosslessSkipThreshold(p int) int { return (p*p)/2 + 1 }

// DefaultConfig returns the paper's full parameter set.
func DefaultConfig() Config {
	return Config{
		EBBI:    ebbi.DefaultConfig(),
		RPN:     rpn.DefaultConfig(),
		Tracker: tracker.DefaultConfig(),
	}
}

// arrayBounds is the tracker bounds of a sensor array.
func arrayBounds(res events.Resolution) geometry.Box {
	return geometry.NewBox(0, 0, res.A, res.B)
}

// WithROE returns the config with the exclusion mask installed.
func (c Config) WithROE(mask *roe.Mask) Config {
	c.Tracker.ROE = mask
	return c
}

// frontend is the EBBI + RPN front end shared by the EBBIOT and EBBI+KF
// systems.
type frontend struct {
	builder  *ebbi.PackedBuilder
	proposer *rpn.Proposer
	mask     *roe.Mask
	// skipBelow is LosslessSkipThreshold of the median patch size.
	skipBelow int
	timings   StageTimings

	// lastPacked retains the most recent frame for visualisation; valid
	// when lastValid. lastFrame and rawScratch/filtScratch hold its byte
	// form, unpacked on demand by frame().
	lastPacked              ebbi.PackedFrame
	lastValid               bool
	lastFrame               ebbi.Frame
	rawScratch, filtScratch *imgproc.Bitmap
}

func newFrontend(ecfg ebbi.Config, rcfg rpn.Config, mask *roe.Mask) (*frontend, error) {
	p, err := rpn.New(rcfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	b, err := ebbi.NewPackedBuilder(ecfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &frontend{builder: b, proposer: p, mask: mask, skipBelow: LosslessSkipThreshold(ecfg.MedianP)}, nil
}

// process runs accumulate + filter + mask + propose for one window,
// recording per-stage times. The caller accounts the tracker stage itself
// via trackTime.
func (f *frontend) process(evs []events.Event) (rpn.Result, error) {
	t0 := time.Now()
	f.builder.Accumulate(evs)
	t1 := time.Now()
	if f.builder.Pending() < f.skipBelow {
		// Near-empty window: drop the frame without filtering. The window
		// still counts (and the caller still steps the tracker); the
		// activity accounting only covers processed windows.
		f.builder.SkipWindow()
		f.timings.EBBI += t1.Sub(t0)
		f.timings.Windows++
		f.timings.Skipped++
		return rpn.Result{}, nil
	}
	frame, err := f.builder.Finish()
	if err != nil {
		return rpn.Result{}, fmt.Errorf("core: ebbi: %w", err)
	}
	t2 := time.Now()
	// Exclusion zones are blanked in the image before region proposal: the
	// histograms project over full rows/columns, so distractor pixels
	// anywhere in a column would otherwise contaminate every proposal. The
	// frame's active region bounds the masking and the RPN, so no stage
	// rescans dead frame area.
	if f.mask != nil {
		f.mask.MaskPacked(frame.Filtered, frame.Active)
	}
	res, err := f.proposer.ProposePacked(frame.Filtered, frame.Active)
	if err != nil {
		return rpn.Result{}, fmt.Errorf("core: rpn: %w", err)
	}
	t3 := time.Now()
	f.lastPacked = frame
	f.lastValid = true
	f.timings.EBBI += t1.Sub(t0)
	f.timings.Filter += t2.Sub(t1)
	f.timings.RPN += t3.Sub(t2)
	f.timings.ActiveWords += int64(frame.Active.CoverageWords())
	f.timings.FrameWords += int64(frame.Active.FrameWords())
	f.timings.Windows++
	return res, nil
}

func (f *frontend) trackTime(d time.Duration) { f.timings.Track += d }

// frame returns the most recent EBBI frame in byte form, unpacked into
// scratch bitmaps on demand (visualisation is off the hot path, so the
// conversion cost lands only on callers that ask). Valid until the next
// process call; nil before the first window.
func (f *frontend) frame() *ebbi.Frame {
	if !f.lastValid {
		return nil
	}
	pf := f.lastPacked
	f.rawScratch = pf.Raw.Unpack(f.rawScratch)
	f.filtScratch = pf.Filtered.Unpack(f.filtScratch)
	f.lastFrame = ebbi.Frame{Raw: f.rawScratch, Filtered: f.filtScratch, EventCount: pf.EventCount}
	return &f.lastFrame
}

// close releases the frame double buffer back to its pool.
func (f *frontend) close() {
	if f.builder != nil {
		f.builder.Release()
		f.builder = nil
	}
	f.lastValid = false
}

// EBBIOT is the paper's pipeline.
type EBBIOT struct {
	cfg     Config
	front   *frontend
	tracker *tracker.Tracker
	lastRPN rpn.Result
}

var _ System = (*EBBIOT)(nil)
var _ StageTimer = (*EBBIOT)(nil)

// NewEBBIOT builds the pipeline.
func NewEBBIOT(cfg Config) (*EBBIOT, error) {
	tr, err := tracker.New(cfg.Tracker, arrayBounds(cfg.EBBI.Res))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	front, err := newFrontend(cfg.EBBI, cfg.RPN, cfg.Tracker.ROE)
	if err != nil {
		return nil, err
	}
	return &EBBIOT{cfg: cfg, front: front, tracker: tr}, nil
}

// Name implements System.
func (e *EBBIOT) Name() string { return "EBBIOT" }

// Config returns the pipeline's current configuration.
func (e *EBBIOT) Config() Config { return e.cfg }

// ApplyParams retunes the pipeline live — the hook the control plane calls
// at a window boundary — by replacing it with NewEBBIOT(cfg): the EBBI
// builder, the RPN and the tracker state (tracks, IDs, frame count) start
// afresh, so a live parameter change is a relaunch of the pipeline with the
// new parameters at that boundary, the property the differential tests
// assert. Cumulative stage timings carry over for monitoring continuity,
// and the old EBBI double buffer goes back to its pool. On error the
// system keeps running with its old parameters.
func (e *EBBIOT) ApplyParams(cfg Config) error {
	next, err := NewEBBIOT(cfg)
	if err != nil {
		return err
	}
	next.front.timings = e.front.timings
	e.Close()
	*e = *next
	return nil
}

// ProcessWindow implements System: latch the window's events into the EBBI,
// median-filter, propose regions and step the overlap tracker.
func (e *EBBIOT) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	res, err := e.front.process(evs)
	if err != nil {
		return nil, err
	}
	e.lastRPN = res
	t0 := time.Now()
	reports := e.tracker.Step(res.Boxes())
	e.front.trackTime(time.Since(t0))
	out := make([]geometry.Box, len(reports))
	for i, r := range reports {
		out[i] = r.Box
	}
	return out, nil
}

// Close returns the pipeline's EBBI double buffer to its pool. The system —
// and any frame previously returned by LastFrame, which may alias those
// buffers — must not be used afterwards. Callers that churn through many
// short-lived systems (evaluation grids, benchmarks) should Close each one
// so the pool actually recycles.
func (e *EBBIOT) Close() { e.front.close() }

// Tracker exposes the underlying overlap tracker for instrumentation.
func (e *EBBIOT) Tracker() *tracker.Tracker { return e.tracker }

// LastFrame returns the most recent EBBI frame in byte form (aliases
// internal buffers; valid until the next ProcessWindow). The frame is
// unpacked on demand, so callers only pay for conversion on the frames they
// actually inspect.
func (e *EBBIOT) LastFrame() *ebbi.Frame { return e.front.frame() }

// LastRPN returns the most recent region-proposal result.
func (e *EBBIOT) LastRPN() rpn.Result { return e.lastRPN }

// StageTimings implements StageTimer.
func (e *EBBIOT) StageTimings() StageTimings { return e.front.timings }

// EBBIKF is the EBBI + Kalman-filter comparison pipeline.
type EBBIKF struct {
	cfg      KFConfig
	front    *frontend
	tracker  *kalman.Tracker
	mask     *roe.Mask
	maxCover float64
}

var _ System = (*EBBIKF)(nil)
var _ StageTimer = (*EBBIKF)(nil)

// KFConfig parameterises the EBBI+KF pipeline. EBBI.Res is the sensor
// array for the whole chain, as in Config.
type KFConfig struct {
	EBBI    ebbi.Config
	RPN     rpn.Config
	Tracker kalman.Config
	// ROE applies the same exclusion zones the OT uses, for a fair
	// comparison.
	ROE         *roe.Mask
	ROEMaxCover float64
}

// DefaultKFConfig returns the comparison configuration.
func DefaultKFConfig() KFConfig {
	return KFConfig{
		EBBI:        ebbi.DefaultConfig(),
		RPN:         rpn.DefaultConfig(),
		Tracker:     kalman.DefaultConfig(),
		ROEMaxCover: 0.5,
	}
}

// NewEBBIKF builds the pipeline.
func NewEBBIKF(cfg KFConfig) (*EBBIKF, error) {
	tr, err := kalman.New(cfg.Tracker, arrayBounds(cfg.EBBI.Res))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	front, err := newFrontend(cfg.EBBI, cfg.RPN, cfg.ROE)
	if err != nil {
		return nil, err
	}
	return &EBBIKF{cfg: cfg, front: front, tracker: tr, mask: cfg.ROE, maxCover: cfg.ROEMaxCover}, nil
}

// Name implements System.
func (e *EBBIKF) Name() string { return "EBBI+KF" }

// Config returns the pipeline's current configuration.
func (e *EBBIKF) Config() KFConfig { return e.cfg }

// ApplyParams retunes the pipeline live by replacing it with
// NewEBBIKF(cfg), as EBBIOT.ApplyParams does: stage timings carry over, and
// on error the system keeps running with its old parameters.
func (e *EBBIKF) ApplyParams(cfg KFConfig) error {
	next, err := NewEBBIKF(cfg)
	if err != nil {
		return err
	}
	next.front.timings = e.front.timings
	e.Close()
	*e = *next
	return nil
}

// Close returns the pipeline's EBBI double buffer to its pool; the system
// must not be used afterwards.
func (e *EBBIKF) Close() { e.front.close() }

// StageTimings implements StageTimer.
func (e *EBBIKF) StageTimings() StageTimings { return e.front.timings }

// ProcessWindow implements System.
func (e *EBBIKF) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	res, err := e.front.process(evs)
	if err != nil {
		return nil, err
	}
	boxes := res.Boxes()
	if e.mask != nil {
		boxes = e.mask.FilterBoxes(boxes, e.maxCover)
	}
	t0 := time.Now()
	reports, err := e.tracker.Step(boxes)
	e.front.trackTime(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("core: kalman: %w", err)
	}
	out := make([]geometry.Box, len(reports))
	for i, r := range reports {
		out[i] = r.Box
	}
	return out, nil
}

// EBMSSystem is the fully event-based comparison pipeline: NN-filt + mean
// shift.
type EBMSSystem struct {
	nn   *filter.NNFilter
	ms   *ebms.Tracker
	mask *roe.Mask
	// maxCover mirrors the OT's ROE handling.
	maxCover float64
	// nfSum / frames measure the post-filter event rate (NF of Eq. 8).
	nfSum  int64
	frames int64
}

var _ System = (*EBMSSystem)(nil)

// EBMSConfig parameterises the EBMS pipeline. Res is the sensor array for
// both the NN filter and the mean-shift tracker's bounds.
type EBMSConfig struct {
	Res events.Resolution
	// NNP and NNSupportUS configure the nearest-neighbour filter.
	NNP         int
	NNSupportUS int64
	Tracker     ebms.Config
	ROE         *roe.Mask
	ROEMaxCover float64
}

// DefaultEBMSConfig returns the comparison configuration.
func DefaultEBMSConfig() EBMSConfig {
	return EBMSConfig{
		Res:         events.DAVIS240,
		NNP:         3,
		NNSupportUS: 20_000,
		Tracker:     ebms.DefaultConfig(),
		ROEMaxCover: 0.5,
	}
}

// NewEBMS builds the pipeline.
func NewEBMS(cfg EBMSConfig) (*EBMSSystem, error) {
	nn, err := filter.NewNN(cfg.Res, cfg.NNP, cfg.NNSupportUS)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ms, err := ebms.New(cfg.Tracker, arrayBounds(cfg.Res))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &EBMSSystem{nn: nn, ms: ms, mask: cfg.ROE, maxCover: cfg.ROEMaxCover}, nil
}

// Name implements System.
func (e *EBMSSystem) Name() string { return "EBMS" }

// ProcessWindow implements System: filter the window's events, feed them to
// the mean-shift clusters one by one, then report visible clusters.
func (e *EBMSSystem) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	if e.mask != nil {
		evs = e.mask.FilterEvents(evs)
	}
	kept := e.nn.Filter(evs)
	e.nfSum += int64(len(kept))
	e.frames++
	e.ms.Process(kept)
	reports := e.ms.Reports()
	out := make([]geometry.Box, 0, len(reports))
	for _, r := range reports {
		out = append(out, r.Box)
	}
	if e.mask != nil {
		out = e.mask.FilterBoxes(out, e.maxCover)
	}
	return out, nil
}

// MeanNF returns the measured mean post-filter events per frame (the NF of
// Eq. 8), for cross-checking the resource model.
func (e *EBMSSystem) MeanNF() float64 {
	if e.frames == 0 {
		return 0
	}
	return float64(e.nfSum) / float64(e.frames)
}

// Clusters exposes the underlying mean-shift tracker.
func (e *EBMSSystem) Clusters() *ebms.Tracker { return e.ms }
