package main

import (
	"context"
	"slices"

	"ebbiot/internal/geometry"
	"ebbiot/internal/metrics"
	"ebbiot/internal/pipeline"
)

// window is the digest of one TrackSnapshot: everything but ProcUS, which
// is wall-clock, and the stream's index and name, which depend on the
// stream list it ran in.
type window struct {
	Frame          int
	StartUS, EndUS int64
	Events         int
	Boxes          []geometry.Box
}

func digestOf(s pipeline.TrackSnapshot) window {
	return window{Frame: s.Frame, StartUS: s.StartUS, EndUS: s.EndUS, Events: s.Events, Boxes: s.Boxes}
}

func (w window) equal(o window) bool {
	return w.Frame == o.Frame && w.StartUS == o.StartUS && w.EndUS == o.EndUS &&
		w.Events == o.Events && slices.Equal(w.Boxes, o.Boxes)
}

// reference runs the input once through SliceSource → Runner (1 worker)
// with a fresh system and keeps the digest of every window.
func reference(in *input) error {
	src, err := pipeline.NewSliceSource(in.evs)
	if err != nil {
		return err
	}
	sys, err := newSystem(in)
	if err != nil {
		return err
	}
	defer sys.Close()
	r, err := pipeline.NewRunner(pipeline.Config{FrameUS: frameUS, Workers: 1})
	if err != nil {
		return err
	}
	in.ref = in.ref[:0]
	sink := pipeline.SinkFunc(func(s pipeline.TrackSnapshot) error {
		in.ref = append(in.ref, digestOf(s))
		return nil
	})
	_, err = r.Run(context.Background(), []pipeline.Stream{{Name: in.name, Source: src, System: sys}}, sink)
	return err
}

// collector is the benchmark's own sink: it keeps every snapshot of a
// pass, per stream, for checking and scoring once timing has stopped.
// With stamp set it also records when each snapshot reached the sink.
type collector struct {
	snaps [][]pipeline.TrackSnapshot
	at    [][]int64 // arrival, Unix ns, parallel to snaps
	// from holds, per stream and frame, when the source handed the window
	// over (Unix ns), filled by handover wrappers in saturated timed passes.
	from  [][]int64
	stamp bool
}

func newCollector(streams int, stamp bool) *collector {
	return &collector{snaps: make([][]pipeline.TrackSnapshot, streams), at: make([][]int64, streams),
		from: make([][]int64, streams), stamp: stamp}
}

// Consume implements pipeline.Sink.
func (c *collector) Consume(s pipeline.TrackSnapshot) error {
	if c.stamp {
		c.at[s.Sensor] = append(c.at[s.Sensor], nowNS())
	}
	c.snaps[s.Sensor] = append(c.snaps[s.Sensor], s)
	return nil
}

// reset empties the collector, keeping its capacity for the next pass.
func (c *collector) reset() {
	for i := range c.snaps {
		c.snaps[i] = c.snaps[i][:0]
		c.at[i] = c.at[i][:0]
		c.from[i] = c.from[i][:0]
	}
}

// outcome is what checking one stream of one pass found.
type outcome struct {
	attempted, failed int64
	// ok[frame] reports that the frame's snapshot arrived once and matched
	// the reference; arrival[frame] is its index in the collector.
	ok      []bool
	arrival []int
}

// check compares one stream's snapshots against the reference digest.
// Missing, extra, duplicated and differing windows are failed operations.
func check(ref []window, got []pipeline.TrackSnapshot) outcome {
	o := outcome{attempted: int64(len(ref)), ok: make([]bool, len(ref)), arrival: make([]int, len(ref))}
	seen := make([]bool, len(ref))
	for i, s := range got {
		switch {
		case s.Frame < 0 || s.Frame >= len(ref):
			o.attempted++
			o.failed++
		case seen[s.Frame]:
			o.ok[s.Frame] = false
		default:
			seen[s.Frame] = true
			o.ok[s.Frame] = ref[s.Frame].equal(digestOf(s))
			o.arrival[s.Frame] = i
		}
	}
	for _, ok := range o.ok {
		if !ok {
			o.failed++
		}
	}
	return o
}

// score adds one stream's snapshots, matched at IoU 0.5 against the
// scene's ground truth under the evaluation protocol, to c.
func score(c *metrics.Counts, gt [][]geometry.Box, got []pipeline.TrackSnapshot) {
	samples := make([]metrics.FrameSample, 0, len(got))
	for _, s := range got {
		if s.Frame >= 0 && s.Frame < len(gt) && gt[s.Frame] != nil {
			samples = append(samples, metrics.FrameSample{Tracker: s.Boxes, GroundTruth: gt[s.Frame]})
		}
	}
	c.Add(metrics.Evaluate(samples, 0.5))
}
