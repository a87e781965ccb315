// Package ebbi implements event-based binary image generation, the first
// stage of the EBBIOT pipeline (Section II-A of the paper).
//
// Instead of processing each event as it arrives, the processor sleeps and
// wakes on a timer interrupt every tF (66 ms in the paper). The sensor's
// pixels latch their event bits until read out, so the readout at each
// interrupt is already a binary image of everything that happened during
// the sleep — the sensor doubles as the frame memory. The processor then
// runs a p x p binary median filter to strip background-activity noise.
//
// Frame memory is two A x B binary frames (Eq. 1): the raw EBBI, kept for a
// possible later classification stage, and the filtered frame consumed by
// the region-proposal network.
package ebbi

import (
	"fmt"

	"ebbiot/internal/events"
	"ebbiot/internal/imgproc"
)

// Config parameterises the EBBI stage.
type Config struct {
	Res events.Resolution
	// FrameUS is the frame duration tF in microseconds; the paper uses
	// 66000 (about 15 Hz).
	FrameUS int64
	// MedianP is the median-filter patch size p, odd and at most
	// imgproc.MaxMedianP; the paper uses 3.
	MedianP int
}

// DefaultConfig returns the paper's parameters: DAVIS240, tF = 66 ms, p = 3.
func DefaultConfig() Config {
	return Config{Res: events.DAVIS240, FrameUS: 66_000, MedianP: 3}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Res.Validate(); err != nil {
		return err
	}
	if c.FrameUS <= 0 {
		return fmt.Errorf("ebbi: frame duration must be positive, got %d", c.FrameUS)
	}
	if c.MedianP < 1 || c.MedianP%2 == 0 || c.MedianP > imgproc.MaxMedianP {
		return fmt.Errorf("ebbi: median patch size must be odd and in [1, %d], got %d", imgproc.MaxMedianP, c.MedianP)
	}
	return nil
}

// Frame is the output of one readout interrupt.
type Frame struct {
	// Index is the frame sequence number (Start / FrameUS).
	Index int
	// Start, End bound the accumulation window [Start, End) in microseconds.
	Start, End int64
	// Raw is the unfiltered EBBI, kept per Eq. 1 for later classification.
	Raw *imgproc.Bitmap
	// Filtered is the median-filtered EBBI consumed by the RPN.
	Filtered *imgproc.Bitmap
	// EventCount is the number of events accumulated (n in Eq. 2's terms,
	// before collapsing to binary).
	EventCount int
}

// Builder accumulates events into byte-per-pixel frames. It owns a double
// buffer (raw + filtered) that is reused across frames, so per-frame
// allocation is zero — the embedded discipline the paper's memory model
// assumes. The runtime frame chain uses PackedBuilder; Builder is the
// plain-loop oracle the packed chain is tested against.
type Builder struct {
	cfg      Config
	raw      *imgproc.Bitmap
	filtered *imgproc.Bitmap
	// frameIdx is the index of the frame currently accumulating.
	frameIdx int
	// count is the number of events accumulated into the current frame.
	count int
	// needsClear defers zeroing the raw buffer until the next frame starts,
	// so the Frame returned by Finish stays readable until then.
	needsClear bool
}

// NewBuilder returns a Builder for the given configuration.
func NewBuilder(cfg Config) (*Builder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Builder{
		cfg:      cfg,
		raw:      imgproc.NewBitmap(cfg.Res.A, cfg.Res.B),
		filtered: imgproc.NewBitmap(cfg.Res.A, cfg.Res.B),
	}, nil
}

// Accumulate latches a batch of events into the current frame. Events
// outside the sensor array are ignored; polarity is ignored (the EBBI is
// binary). Events must belong to the current frame window; the caller
// (typically a Window iterator or the streaming AEDAT reader) is
// responsible for slicing.
func (b *Builder) Accumulate(evs []events.Event) {
	if b.needsClear {
		b.raw.Clear()
		b.needsClear = false
	}
	for _, e := range evs {
		x, y := int(e.X), int(e.Y)
		if x >= 0 && x < b.cfg.Res.A && y >= 0 && y < b.cfg.Res.B {
			b.raw.Pix[y*b.cfg.Res.A+x] = 1
			b.count++
		}
	}
}

// Finish runs the median filter and returns the completed frame, then
// resets the accumulator for the next frame window. The returned frame's
// bitmaps alias the builder's double buffer and are valid only until the
// next Finish call; callers that need to retain a frame must Clone.
func (b *Builder) Finish() (Frame, error) {
	if b.needsClear {
		// No events arrived this frame; the buffer still holds the previous
		// frame's image and must be cleared before filtering.
		b.raw.Clear()
		b.needsClear = false
	}
	if err := imgproc.MedianFilter(b.filtered, b.raw, b.cfg.MedianP); err != nil {
		return Frame{}, fmt.Errorf("ebbi: median filter: %w", err)
	}
	f := Frame{
		Index:      b.frameIdx,
		Start:      int64(b.frameIdx) * b.cfg.FrameUS,
		End:        int64(b.frameIdx+1) * b.cfg.FrameUS,
		Raw:        b.raw,
		Filtered:   b.filtered,
		EventCount: b.count,
	}
	b.frameIdx++
	b.count = 0
	b.needsClear = true
	return f, nil
}

// Pending returns the number of in-array events accumulated into the
// current (unfinished) frame. It mirrors PackedBuilder.Pending so the skip
// decision is identical on both representations.
func (b *Builder) Pending() int { return b.count }

// SkipWindow advances the frame clock without filtering, discarding the
// accumulated raw bits via the deferred clear. See
// PackedBuilder.SkipWindow for the losslessness argument.
func (b *Builder) SkipWindow() {
	b.frameIdx++
	b.count = 0
	b.needsClear = true
}

// DutyCycle models the interrupt-driven operation of Fig. 2: the sensor is
// always on, the processor wakes every tF, spends activeUS processing the
// frame, and sleeps the rest. It reports the achievable sleep fraction and
// average power, quantifying the "heavy duty cycling" the EBBI scheme
// enables versus event-interrupt operation.
type DutyCycle struct {
	// FrameUS is the wakeup period tF.
	FrameUS int64
	// ActivePowerMW and SleepPowerMW are the processor's power draws.
	ActivePowerMW, SleepPowerMW float64
}

// Report summarises a duty-cycle analysis.
type Report struct {
	// SleepFraction is the fraction of each period spent asleep.
	SleepFraction float64
	// AvgPowerMW is the duty-cycled average processor power.
	AvgPowerMW float64
	// AlwaysOnPowerMW is the comparison power with no sleeping (the
	// event-interrupt mode where noise keeps the processor awake).
	AlwaysOnPowerMW float64
	// Savings is AlwaysOnPowerMW / AvgPowerMW.
	Savings float64
}

// Analyze computes the report for a given per-frame processing time.
func (d DutyCycle) Analyze(activeUS int64) (Report, error) {
	if d.FrameUS <= 0 {
		return Report{}, fmt.Errorf("ebbi: frame period must be positive, got %d", d.FrameUS)
	}
	if activeUS < 0 {
		return Report{}, fmt.Errorf("ebbi: negative active time %d", activeUS)
	}
	if activeUS > d.FrameUS {
		activeUS = d.FrameUS // processor saturated: no sleep at all
	}
	sleep := float64(d.FrameUS-activeUS) / float64(d.FrameUS)
	avg := d.ActivePowerMW*(1-sleep) + d.SleepPowerMW*sleep
	rep := Report{
		SleepFraction:   sleep,
		AvgPowerMW:      avg,
		AlwaysOnPowerMW: d.ActivePowerMW,
	}
	if avg > 0 {
		rep.Savings = d.ActivePowerMW / avg
	}
	return rep, nil
}
