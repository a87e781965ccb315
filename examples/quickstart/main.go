// Quickstart: simulate a single car crossing the DAVIS field of view, run
// the full EBBIOT pipeline on it through the streaming runtime, and render
// the Fig. 3 artefacts — the event-based binary image, its X/Y histograms
// and the resulting region proposal — plus the live track box, as ASCII.
//
// The per-window inspection happens in a pipeline Observer, which runs
// synchronously between windows and may therefore read the system's
// window-scoped internals (LastFrame/LastRPN alias buffers the next window
// overwrites).
//
// The run is also recorded through a StoreSink into a temporary embedded
// snapshot store and replayed from disk afterwards, verifying that the
// persisted sequence is identical to what the live sink saw — the
// record→replay loop that ebbiot-run -store / ebbiot-query expose on the
// command line.
package main

import (
	"context"
	"fmt"
	"os"
	"reflect"

	"ebbiot/internal/core"
	"ebbiot/internal/events"
	"ebbiot/internal/pipeline"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
	"ebbiot/internal/store"
	"ebbiot/internal/vis"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A 4-second scene: one car, left to right at 60 px/s.
	sc := scene.SingleObjectScene(events.DAVIS240, 4_000_000)
	simCfg := sensor.DefaultConfig(42)
	sim, err := sensor.New(simCfg, sc)
	if err != nil {
		return err
	}
	sys, err := core.NewEBBIOT(core.DefaultConfig())
	if err != nil {
		return err
	}

	const frameUS = 66_000
	src, err := pipeline.NewSceneSource(sim, sc.DurationUS)
	if err != nil {
		return err
	}
	runner, err := pipeline.NewRunner(pipeline.Config{FrameUS: frameUS})
	if err != nil {
		return err
	}
	observe := func(snap pipeline.TrackSnapshot, s core.System) error {
		eb := s.(*core.EBBIOT)
		// Render one mid-crossing frame in detail (the Fig. 3 moment).
		if snap.StartUS == 1_980_000 {
			frame := eb.LastFrame()
			res := eb.LastRPN()
			fmt.Printf("=== frame at t=%.2fs: %d events, %d set pixels, %d proposals ===\n",
				float64(snap.StartUS)/1e6, frame.EventCount, frame.Filtered.CountOnes(), len(res.Proposals))
			fmt.Println(vis.ASCIIFrame(frame.Filtered, res.Boxes(), 4))
			fmt.Println("X histogram (downsampled by s1=6):")
			fmt.Println(vis.ASCIIHistogram(res.HX, 40))
		}
		gt := sc.GroundTruth(snap.EndUS, 4)
		if len(snap.Boxes) > 0 && len(gt) > 0 {
			fmt.Printf("t=%.2fs  track=%v  gt=%v  IoU=%.2f\n",
				float64(snap.EndUS)/1e6, snap.Boxes[0], gt[0].Box, snap.Boxes[0].IoU(gt[0].Box))
		}
		return nil
	}
	// Record the run into an embedded snapshot store while the live
	// callback sink collects the same sequence.
	storeDir, err := os.MkdirTemp("", "ebbiot-quickstart-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	sw, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return err
	}
	var live []pipeline.TrackSnapshot
	collect := pipeline.SinkFunc(func(snap pipeline.TrackSnapshot) error {
		live = append(live, snap)
		return nil
	})
	_, err = runner.Run(context.Background(),
		[]pipeline.Stream{{Name: "quickstart", Source: src, System: sys, Observer: observe}},
		pipeline.MultiSink{collect, pipeline.NewStoreSink(sw)})
	if err != nil {
		return err
	}
	if err := sw.Close(); err != nil {
		return err
	}

	// Replay the stored run and check it is bit-identical to the live one.
	r, err := store.OpenReader(storeDir)
	if err != nil {
		return err
	}
	var replayed []pipeline.TrackSnapshot
	if _, err := pipeline.ReplayStoreWith(context.Background(), r,
		pipeline.SinkFunc(func(snap pipeline.TrackSnapshot) error {
			replayed = append(replayed, snap)
			return nil
		}), pipeline.ReplayOptions{}); err != nil {
		return err
	}
	if !reflect.DeepEqual(live, replayed) {
		return fmt.Errorf("store round-trip mismatch: %d live vs %d replayed snapshots", len(live), len(replayed))
	}
	st := r.Stats()
	fmt.Printf("\nstore: recorded %d snapshots (%d bytes on disk), replayed %d, identical\n",
		st.Records, st.DataBytes, len(replayed))
	return nil
}
