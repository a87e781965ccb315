package main

import (
	"fmt"
	"os"

	"ebbiot/internal/aedat"
	"ebbiot/internal/core"
	"ebbiot/internal/dataset"
	"ebbiot/internal/eval"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/roe"
)

// input is one synthesised recording as the program sees it: an AEDAT
// file and its decoded events. The scene's ground truth and the reference
// digest are derived from it at set-up and never shown to the program.
type input struct {
	name   string
	preset dataset.Preset
	res    events.Resolution
	path   string
	evs    []events.Event
	// ref is the reference digest: one entry per window of a 1-worker
	// SliceSource run through a fresh system.
	ref []window
	// gt holds the scored ground-truth boxes per frame; nil entries are
	// not scored (warm-up frames and windows ending past the scene).
	gt [][]geometry.Box
}

// segmentFrames is the length of one synthesised segment: 7.5 s of tF
// windows. Generation cost grows faster than recording length (the scene
// is scanned for every object on each 1 ms tick), so inputs are built
// from short segments, and passes repeat over them.
const segmentFrames = 113

// synthesize generates a recording of preset with one segment per scene
// seed, back to back, encodes it to an AEDAT file at path and decodes it
// back, as a recording would reach the program. The ground truth is
// sampled at every window end, and each segment's first frames are left
// unscored as the evaluation protocol does for every recording.
//
// The traffic comes from the scene seeds and the sensor's noise and event
// sampling from noiseSeed. Workloads fix the traffic, as the paper fixes
// its two recordings, and draw the noise from the run's seed: a 30 s ENG
// replica holds only ~15 vehicles, so with the traffic drawn per seed, CPU
// per window ranged 92–117 µs (2-vCPU AVX-512 VM) and recall 0.26–0.80
// over five seeds, which measures the draw instead of the program. Several scenes per input
// keep the tracking scores from hanging on a handful of tracks.
func synthesize(name string, preset dataset.Preset, scenes []uint64, frames int, noiseSeed uint64, path string) (*input, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	opt := eval.DefaultOptions()
	segUS := int64(frames) * opt.FrameUS
	var (
		w  *aedat.Writer
		gt [][]geometry.Box
	)
	for j, scene := range scenes {
		spec, err := dataset.For(preset, 1, scene)
		if err != nil {
			return nil, err
		}
		spec.DurationUS, spec.Traffic.DurationUS = segUS, segUS
		spec.Sensor.Seed = noiseSeed*uint64(len(scenes)) + uint64(j)
		rec, err := dataset.Generate(spec)
		if err != nil {
			return nil, err
		}
		if w == nil {
			if w, err = aedat.NewWriter(f, spec.Sensor.Res); err != nil {
				return nil, err
			}
		}
		for frame := 0; frame < frames; frame++ {
			start := int64(frame) * opt.FrameUS
			evs, err := rec.Sim.Events(start, start+opt.FrameUS)
			if err != nil {
				return nil, err
			}
			for i := range evs {
				evs[i].T += int64(j) * segUS
			}
			if err := w.Append(evs); err != nil {
				return nil, err
			}
			var boxes []geometry.Box
			if frame >= opt.WarmupFrames {
				boxes = []geometry.Box{}
				for _, g := range rec.Scene.GroundTruth(start+opt.FrameUS, opt.MinVisiblePixels) {
					boxes = append(boxes, g.Box)
				}
			}
			gt = append(gt, boxes)
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	in := &input{name: name, preset: preset, path: path, gt: gt}
	if in.res, in.evs, err = decode(path); err != nil {
		return nil, err
	}
	return in, nil
}

func decode(path string) (events.Resolution, []events.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return events.Resolution{}, nil, err
	}
	defer f.Close()
	res, evs, err := aedat.Read(f)
	if err != nil {
		return res, nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return res, evs, nil
}

// newSystem builds a fresh EBBIOT for the input's preset with the paper's
// parameters; ENG carries its tree exclusion mask.
func newSystem(in *input) (*core.EBBIOT, error) {
	cfg := core.DefaultConfig()
	if in.preset == dataset.ENG {
		cfg = cfg.WithROE(roe.New(dataset.TreeROEENG()))
	}
	return core.NewEBBIOT(cfg)
}
