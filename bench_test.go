// Package ebbiot_test is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (see docs/EXPERIMENTS.md for the
// recorded numbers).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the figure's headline quantities via
// b.ReportMetric, so the bench output doubles as the experiment log.
// Dataset replicas are seconds-long scaled versions of the Table I
// recordings; all rates and object statistics match the full-scale presets.
package ebbiot_test

import (
	"context"
	"fmt"
	"testing"

	"ebbiot/internal/core"
	"ebbiot/internal/dataset"
	"ebbiot/internal/ebbi"
	"ebbiot/internal/ebms"
	"ebbiot/internal/eval"
	"ebbiot/internal/events"
	"ebbiot/internal/filter"
	"ebbiot/internal/geometry"
	"ebbiot/internal/imgproc"
	"ebbiot/internal/kalman"
	"ebbiot/internal/metrics"
	"ebbiot/internal/pipeline"
	"ebbiot/internal/resources"
	"ebbiot/internal/roe"
	"ebbiot/internal/rpn"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
	"ebbiot/internal/tracker"
)

// ---------------------------------------------------------------------------
// E1 — Table I: dataset details (duration, event count, event rate).
// ---------------------------------------------------------------------------

func benchTableI(b *testing.B, preset dataset.Preset, fullSeconds, paperEvents float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec, err := dataset.For(preset, 8.0/fullSeconds, 42)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := dataset.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		row, err := dataset.MeasureTableRow(rec, 66_000)
		if err != nil {
			b.Fatal(err)
		}
		rate := float64(row.Events) / row.DurationS
		b.ReportMetric(rate, "events/s")
		b.ReportMetric(paperEvents/fullSeconds, "paper-events/s")
		b.ReportMetric(float64(row.Tracks), "tracks")
	}
}

func BenchmarkTableI_ENG(b *testing.B) { benchTableI(b, dataset.ENG, 2998.4, 107_500_000) }
func BenchmarkTableI_LT4(b *testing.B) { benchTableI(b, dataset.LT4, 999.5, 12_500_000) }

// ---------------------------------------------------------------------------
// E2 — Fig. 2: interrupt-driven duty-cycled operation.
// ---------------------------------------------------------------------------

func BenchmarkFig2_DutyCycle(b *testing.B) {
	sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)
	sim, err := sensor.New(sensor.DefaultConfig(3), sc)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-generate the frames so the benchmark isolates pipeline time (the
	// simulated sensor is not part of the processor's duty cycle).
	var windows [][]events.Event
	for cursor := int64(0); cursor+66_000 <= sc.DurationUS; cursor += 66_000 {
		evs, err := sim.Events(cursor, cursor+66_000)
		if err != nil {
			b.Fatal(err)
		}
		windows = append(windows, evs)
	}
	sys, err := core.NewEBBIOT(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ProcessWindow(windows[i%len(windows)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perFrameUS := float64(b.Elapsed().Microseconds()) / float64(b.N)
	dc := ebbi.DutyCycle{FrameUS: 66_000, ActivePowerMW: 100, SleepPowerMW: 0.5}
	rep, err := dc.Analyze(int64(perFrameUS))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.SleepFraction*100, "sleep%")
	b.ReportMetric(rep.Savings, "power-savings-x")
}

// ---------------------------------------------------------------------------
// E3 — Fig. 3: EBBI + histogram region proposal on one frame.
// ---------------------------------------------------------------------------

func BenchmarkFig3_RPNFrame(b *testing.B) {
	// A frame with a fragmented large vehicle (two dense halves), the
	// situation Fig. 3 illustrates.
	img := imgproc.NewBitmap(240, 180)
	for y := 70; y < 95; y++ {
		for x := 60; x < 85; x++ {
			img.Set(x, y)
		}
		for x := 92; x < 120; x++ {
			img.Set(x, y)
		}
	}
	p, err := rpn.New(rpn.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var nProposals int
	for i := 0; i < b.N; i++ {
		res, err := p.Propose(img)
		if err != nil {
			b.Fatal(err)
		}
		nProposals = len(res.Proposals)
	}
	// The fragmented vehicle must merge into a single proposal.
	b.ReportMetric(float64(nProposals), "proposals")
}

// ---------------------------------------------------------------------------
// E4 — Fig. 4: precision/recall vs IoU threshold, three systems, weighted
// across the two recordings.
// ---------------------------------------------------------------------------

func benchFig4(b *testing.B, factory eval.SystemFactory) {
	recs := []eval.RecordingSpec{
		{Name: "ENG", Preset: dataset.ENG, Scale: 12.0 / 2998.4, Seed: 11},
		{Name: "LT4", Preset: dataset.LT4, Scale: 12.0 / 999.5, Seed: 13},
	}
	for i := 0; i < b.N; i++ {
		results, err := eval.CompareSystems(
			map[string]eval.SystemFactory{"sys": factory},
			recs, metrics.DefaultThresholds(), eval.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		pts := results[0].Points
		b.ReportMetric(pts[0].Precision, "P@0.3")
		b.ReportMetric(pts[0].Recall, "R@0.3")
		b.ReportMetric(pts[2].Precision, "P@0.5")
		b.ReportMetric(pts[2].Recall, "R@0.5")
		b.ReportMetric(pts[4].Precision, "P@0.7")
		b.ReportMetric(pts[4].Recall, "R@0.7")
	}
}

func BenchmarkFig4_EBBIOT(b *testing.B) {
	mask := roe.New(dataset.TreeROEENG())
	benchFig4(b, func() (core.System, error) {
		return core.NewEBBIOT(core.DefaultConfig().WithROE(mask))
	})
}

func BenchmarkFig4_EBBIKF(b *testing.B) {
	mask := roe.New(dataset.TreeROEENG())
	benchFig4(b, func() (core.System, error) {
		cfg := core.DefaultKFConfig()
		cfg.ROE = mask
		return core.NewEBBIKF(cfg)
	})
}

func BenchmarkFig4_EBMS(b *testing.B) {
	mask := roe.New(dataset.TreeROEENG())
	benchFig4(b, func() (core.System, error) {
		cfg := core.DefaultEBMSConfig()
		cfg.ROE = mask
		return core.NewEBMS(cfg)
	})
}

// ---------------------------------------------------------------------------
// E5 — Fig. 5: relative computes and memory of the three pipelines.
// ---------------------------------------------------------------------------

func BenchmarkFig5_Resources(b *testing.B) {
	p := resources.PaperDefaults()
	ot := resources.DefaultOTParams()
	var cmp resources.Comparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = p.Compare(ot)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.RelComputes[2], "EBMS-rel-computes")
	b.ReportMetric(cmp.RelMemory[2], "EBMS-rel-memory")
	b.ReportMetric(cmp.RelComputes[1], "KF-rel-computes")
	b.ReportMetric(cmp.RelMemory[1], "KF-rel-memory")
}

// ---------------------------------------------------------------------------
// E6 — Eq. 1 vs Eq. 2: EBBI median filtering vs NN event filtering, analytic
// model cross-checked against instrumented implementations on one identical
// simulated frame stream.
// ---------------------------------------------------------------------------

func BenchmarkEq12_NoiseFilterCost(b *testing.B) {
	p := resources.PaperDefaults()
	// Simulated busy frame stream.
	sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)
	sim, err := sensor.New(sensor.DefaultConfig(5), sc)
	if err != nil {
		b.Fatal(err)
	}
	evs, err := sim.Events(0, 2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	frames, err := events.Windows(evs, 66_000)
	if err != nil {
		b.Fatal(err)
	}
	src := imgproc.NewBitmap(240, 180)
	dst := imgproc.NewBitmap(240, 180)
	var medianOps, frameCount int64
	nn, err := filter.NewNN(events.DAVIS240, 3, 20_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := frames[i%len(frames)]
		src.Clear()
		for _, e := range w.Events {
			src.Set(int(e.X), int(e.Y))
		}
		ops, err := imgproc.MedianFilterCounted(dst, src, 3)
		if err != nil {
			b.Fatal(err)
		}
		medianOps += ops
		frameCount++
		nn.Filter(w.Events)
	}
	b.StopTimer()
	if frameCount > 0 {
		b.ReportMetric(float64(medianOps)/float64(frameCount)/1000, "measured-EBBI-kops/frame")
		b.ReportMetric(float64(nn.Ops())/float64(frameCount)/1000, "measured-NN-kops/frame")
	}
	b.ReportMetric(p.EBBIComputes()/1000, "eq1-EBBI-kops/frame")
	b.ReportMetric(p.NNFiltComputes()/1000, "eq2-NN-kops/frame")
	b.ReportMetric(p.NNFiltMemoryBits()/p.EBBIMemoryBits(), "memory-ratio")
}

// ---------------------------------------------------------------------------
// E7 — Eq. 5: histogram RPN cost.
// ---------------------------------------------------------------------------

func BenchmarkEq5_RPNCost(b *testing.B) {
	p := resources.PaperDefaults()
	img := imgproc.NewBitmap(240, 180)
	for y := 70; y < 90; y++ {
		for x := 60; x < 100; x++ {
			img.Set(x, y)
		}
	}
	prop, err := rpn.New(rpn.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prop.Propose(img); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.RPNComputes()/1000, "eq5-kops/frame")
	b.ReportMetric(p.RPNMemoryBits()/8192, "eq5-kB")
}

// ---------------------------------------------------------------------------
// E8 — Eq. 6: overlap tracker cost at NT ~ 2.
// ---------------------------------------------------------------------------

func BenchmarkEq6_OTCost(b *testing.B) {
	p := resources.PaperDefaults()
	tr, err := tracker.New(tracker.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	props := []geometry.Box{
		geometry.NewBox(50, 60, 30, 16),
		geometry.NewBox(150, 100, 40, 20),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step([]geometry.Box{props[0].Translate(i%40, 0), props[1].Translate(-(i % 40), 0)})
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.Ops())/float64(b.N), "measured-ops/frame")
	b.ReportMetric(p.OTComputes(resources.DefaultOTParams()), "eq6-ops/frame")
}

// ---------------------------------------------------------------------------
// E9 — Eq. 7: Kalman filter cost at n = m = 2 NT.
// ---------------------------------------------------------------------------

func BenchmarkEq7_KFCost(b *testing.B) {
	p := resources.PaperDefaults()
	tr, err := kalman.New(kalman.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	props := []geometry.Box{
		geometry.NewBox(50, 60, 30, 16),
		geometry.NewBox(150, 100, 40, 20),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step([]geometry.Box{props[0].Translate(i%40, 0), props[1].Translate(-(i % 40), 0)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.KFComputesPaper(), "eq7-ops/frame")
	b.ReportMetric(p.KFMemoryBitsPaper()/8192, "eq7-kB")
}

// ---------------------------------------------------------------------------
// E10 — Eq. 8: EBMS cost; analytic vs instrumented, with measured NF.
// ---------------------------------------------------------------------------

func BenchmarkEq8_EBMSCost(b *testing.B) {
	p := resources.PaperDefaults()
	sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)
	sim, err := sensor.New(sensor.DefaultConfig(9), sc)
	if err != nil {
		b.Fatal(err)
	}
	evs, err := sim.Events(0, 2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	frames, err := events.Windows(evs, 66_000)
	if err != nil {
		b.Fatal(err)
	}
	nn, err := filter.NewNN(events.DAVIS240, 3, 20_000)
	if err != nil {
		b.Fatal(err)
	}
	ms, err := ebms.New(ebms.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var nf, frameCount int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := frames[i%len(frames)]
		kept := nn.Filter(w.Events)
		nf += int64(len(kept))
		frameCount++
		ms.Process(kept)
	}
	b.StopTimer()
	if frameCount > 0 {
		b.ReportMetric(float64(nf)/float64(frameCount), "measured-NF")
		b.ReportMetric(float64(ms.Ops())/float64(frameCount)/1000, "measured-kops/frame")
	}
	b.ReportMetric(p.EBMSComputes()/1000, "eq8-kops/frame")
}

// ---------------------------------------------------------------------------
// E11 — headline ratios from the abstract.
// ---------------------------------------------------------------------------

func BenchmarkHeadline_Ratios(b *testing.B) {
	p := resources.PaperDefaults()
	ot := resources.DefaultOTParams()
	var cmp resources.Comparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = p.Compare(ot)
		if err != nil {
			b.Fatal(err)
		}
	}
	cnn := resources.CNNRPNEstimate()
	b.ReportMetric(cmp.RelComputes[2], "vs-EBMS-computes-x") // paper: ~3x
	b.ReportMetric(cmp.RelMemory[2], "vs-EBMS-memory-x")     // paper: ~7x
	b.ReportMetric(cnn.ComputesOps/p.RPNComputes(), "vs-CNN-computes-x")
	b.ReportMetric(cnn.MemoryBits/p.RPNMemoryBits(), "vs-CNN-memory-x")
}

// ---------------------------------------------------------------------------
// A1 — ablation: histogram RPN vs connected-components RPN.
// ---------------------------------------------------------------------------

func BenchmarkAblation_RPNvsCCA(b *testing.B) {
	// The same fragmented-vehicle frame processed by both proposers: the
	// histogram RPN merges the fragments, plain CCA splits them.
	img := imgproc.NewBitmap(240, 180)
	for y := 70; y < 95; y++ {
		for x := 60; x < 85; x++ {
			img.Set(x, y)
		}
		for x := 92; x < 120; x++ {
			img.Set(x, y)
		}
	}
	hist, err := rpn.New(rpn.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cca := rpn.CCAProposer{MinPixels: 8}
	var histN, ccaN int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hist.Propose(img)
		if err != nil {
			b.Fatal(err)
		}
		histN = len(res.Proposals)
		ccaN = len(cca.Propose(img))
	}
	b.ReportMetric(float64(histN), "hist-proposals") // want 1 (merged)
	b.ReportMetric(float64(ccaN), "cca-proposals")   // 2 (fragmented)
}

// ---------------------------------------------------------------------------
// A2 — ablation: occlusion handling on/off over crossing scenes.
// ---------------------------------------------------------------------------

func BenchmarkAblation_Occlusion(b *testing.B) {
	run := func(handling bool) (survived int) {
		sc := scene.CrossingScene(events.DAVIS240, 4_600_000)
		simCfg := sensor.DefaultConfig(7)
		simCfg.NoiseRatePerPixelHz = 0.2
		sim, err := sensor.New(simCfg, sc)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Tracker.OcclusionHandling = handling
		sys, err := core.NewEBBIOT(cfg)
		if err != nil {
			b.Fatal(err)
		}
		before := map[int]bool{}
		after := map[int]bool{}
		for cursor := int64(0); cursor+66_000 <= sc.DurationUS; cursor += 66_000 {
			evs, err := sim.Events(cursor, cursor+66_000)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.ProcessWindow(evs); err != nil {
				b.Fatal(err)
			}
			for _, tr := range sys.Tracker().Tracks() {
				if !tr.Confirmed(cfg.Tracker.MinHits) {
					continue
				}
				if cursor < 1_800_000 {
					before[tr.ID] = true
				} else if cursor > 3_200_000 {
					after[tr.ID] = true
				}
			}
		}
		for id := range before {
			if after[id] {
				survived++
			}
		}
		return survived
	}
	var on, off int
	for i := 0; i < b.N; i++ {
		on = run(true)
		off = run(false)
	}
	b.ReportMetric(float64(on), "identities-with-occlusion")     // want 2
	b.ReportMetric(float64(off), "identities-without-occlusion") // typically 1
}

// ---------------------------------------------------------------------------
// A3 — ablation: frame duration tF in {33, 66, 132} ms.
// ---------------------------------------------------------------------------

func BenchmarkAblation_FrameDuration(b *testing.B) {
	for _, tfMS := range []int64{33, 66, 132} {
		tfMS := tfMS
		b.Run(benchName(tfMS), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := dataset.For(dataset.ENG, 10.0/2998.4, 11)
				if err != nil {
					b.Fatal(err)
				}
				rec, err := dataset.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig().WithROE(roe.New(dataset.TreeROEENG()))
				cfg.EBBI.FrameUS = tfMS * 1000
				sys, err := core.NewEBBIOT(cfg)
				if err != nil {
					b.Fatal(err)
				}
				opt := eval.DefaultOptions()
				opt.FrameUS = tfMS * 1000
				samples, err := eval.Run(sys, rec.Scene, rec.Sim, opt)
				if err != nil {
					b.Fatal(err)
				}
				c := metrics.Evaluate(samples, 0.5)
				b.ReportMetric(c.Precision(), "P@0.5")
				b.ReportMetric(c.Recall(), "R@0.5")
			}
		})
	}
}

func benchName(tfMS int64) string {
	switch tfMS {
	case 33:
		return "tF=33ms"
	case 66:
		return "tF=66ms"
	default:
		return "tF=132ms"
	}
}

// BenchmarkAblation_SkipThreshold sweeps the near-empty window fast path on
// an intermittent-traffic scene — a quiet low-noise sensor (~60 background
// events per window) watching one car cross mid-recording, so most windows
// are near-empty — reporting tracking quality against per-window processor
// time and the fraction of windows skipped. Thresholds at or below the
// lossless bound floor(p^2/2)+1 (5 for the paper's p = 3) cannot change any
// reported box, so P/R must match skip=0 exactly there; higher thresholds
// skip progressively more idle windows, cutting mean µs/window while the
// car's own windows stay untouched (see docs/EXPERIMENTS.md for recorded
// numbers).
func BenchmarkAblation_SkipThreshold(b *testing.B) {
	quiet := func() *scene.Scene {
		return &scene.Scene{
			Res:        events.DAVIS240,
			DurationUS: 10_000_000,
			Objects: []scene.Object{
				{ID: 0, Kind: scene.KindCar, W: 32, H: 18, LaneY: 90,
					X0: -32, VX: 60, EnterUS: 3_000_000, ExitUS: 7_500_000, Z: 1,
					EdgeDensity: 0.9, InteriorDensity: 0.2},
			},
		}
	}
	for _, thr := range []int{0, 5, 100, 400} {
		thr := thr
		b.Run(fmt.Sprintf("skip=%d", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := quiet()
				scfg := sensor.DefaultConfig(11)
				scfg.NoiseRatePerPixelHz = 0.02
				sim, err := sensor.New(scfg, sc)
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.SkipEventsBelow = thr
				sys, err := core.NewEBBIOT(cfg)
				if err != nil {
					b.Fatal(err)
				}
				samples, err := eval.Run(sys, sc, sim, eval.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				c := metrics.Evaluate(samples, 0.5)
				b.ReportMetric(c.Precision(), "P@0.5")
				b.ReportMetric(c.Recall(), "R@0.5")
				st := sys.StageTimings()
				if st.Windows > 0 {
					b.ReportMetric(100*float64(st.Skipped)/float64(st.Windows), "skipped%")
					b.ReportMetric(float64((st.EBBI+st.Filter+st.RPN+st.Track).Microseconds())/float64(st.Windows), "us/window")
				}
				sys.Close()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// X1 — extension: two-timescale tracking of slow pedestrians (the paper's
// future-work proposal, Section IV).
// ---------------------------------------------------------------------------

func BenchmarkExtension_TwoTimescale(b *testing.B) {
	mixed := func() *scene.Scene {
		return &scene.Scene{
			Res:        events.DAVIS240,
			DurationUS: 6_000_000,
			Objects: []scene.Object{
				{ID: 0, Kind: scene.KindHuman, W: 7, H: 15, LaneY: 20,
					X0: 60, VX: 6, EnterUS: 0, ExitUS: 6_000_000, Z: 1,
					EdgeDensity: 0.8, InteriorDensity: 0.25},
				{ID: 1, Kind: scene.KindCar, W: 32, H: 18, LaneY: 90,
					X0: -32, VX: 60, EnterUS: 0, ExitUS: 6_000_000, Z: 2,
					EdgeDensity: 0.9, InteriorDensity: 0.2},
			},
		}
	}
	humanRecall := func(sys core.System) float64 {
		sc := mixed()
		cfg := sensor.DefaultConfig(31)
		cfg.NoiseRatePerPixelHz = 0.3
		sim, err := sensor.New(cfg, sc)
		if err != nil {
			b.Fatal(err)
		}
		var hits, total int
		for cursor := int64(0); cursor+66_000 <= sc.DurationUS; cursor += 66_000 {
			evs, err := sim.Events(cursor, cursor+66_000)
			if err != nil {
				b.Fatal(err)
			}
			boxes, err := sys.ProcessWindow(evs)
			if err != nil {
				b.Fatal(err)
			}
			if cursor < 1_000_000 {
				continue
			}
			for _, g := range sc.GroundTruth(cursor+66_000, 20) {
				if g.Kind != scene.KindHuman {
					continue
				}
				total++
				for _, bx := range boxes {
					if bx.IoU(g.Box) > 0.3 {
						hits++
						break
					}
				}
			}
		}
		if total == 0 {
			return 0
		}
		return float64(hits) / float64(total)
	}
	var base, two float64
	for i := 0; i < b.N; i++ {
		bsys, err := core.NewEBBIOT(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		base = humanRecall(bsys)
		tsys, err := core.NewTwoTimescale(core.DefaultTwoTimescaleConfig())
		if err != nil {
			b.Fatal(err)
		}
		two = humanRecall(tsys)
	}
	b.ReportMetric(base, "human-recall-base")
	b.ReportMetric(two, "human-recall-2ts")
}

// ---------------------------------------------------------------------------
// E12 — extension: streaming pipeline runtime. Multi-sensor sharded Runner
// throughput versus worker count (events/s, windows/s), the production-scale
// deployment mode the cmd/ebbiot-run -sensors/-workers flags expose.
// ---------------------------------------------------------------------------

func BenchmarkPipeline_MultiSensorRunner(b *testing.B) {
	sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)
	sim, err := sensor.New(sensor.DefaultConfig(3), sc)
	if err != nil {
		b.Fatal(err)
	}
	evs, err := sim.Events(0, sc.DurationUS)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		name := "workers=1"
		if workers != 1 {
			name = "workers=4"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				const sensors = 4
				streams := make([]pipeline.Stream, sensors)
				for k := range streams {
					src, err := pipeline.NewSliceSource(evs)
					if err != nil {
						b.Fatal(err)
					}
					sys, err := core.NewEBBIOT(core.DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					streams[k] = pipeline.Stream{Source: src, System: sys}
				}
				runner, err := pipeline.NewRunner(pipeline.Config{FrameUS: 66_000, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				stats, err := runner.Run(context.Background(), streams, nil)
				if err != nil {
					b.Fatal(err)
				}
				for k := range streams {
					streams[k].System.(*core.EBBIOT).Close()
				}
				b.ReportMetric(stats.EventsPerSec()/1e6, "Mevents/s")
				b.ReportMetric(stats.WindowsPerSec(), "windows/s")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// A4 — ablation: RPN downsampling factors (s1, s2).
// ---------------------------------------------------------------------------

func BenchmarkAblation_RPNScales(b *testing.B) {
	configs := []struct {
		name   string
		s1, s2 int
	}{
		{"s1=1_s2=1", 1, 1},   // no downsampling: fragmentation unmitigated
		{"s1=6_s2=3", 6, 3},   // the paper's choice
		{"s1=12_s2=6", 12, 6}, // over-coarse: objects merge across lanes
	}
	for _, cfgCase := range configs {
		cfgCase := cfgCase
		b.Run(cfgCase.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := dataset.For(dataset.ENG, 10.0/2998.4, 11)
				if err != nil {
					b.Fatal(err)
				}
				rec, err := dataset.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig().WithROE(roe.New(dataset.TreeROEENG()))
				cfg.RPN.S1 = cfgCase.s1
				cfg.RPN.S2 = cfgCase.s2
				sys, err := core.NewEBBIOT(cfg)
				if err != nil {
					b.Fatal(err)
				}
				samples, err := eval.Run(sys, rec.Scene, rec.Sim, eval.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				c := metrics.Evaluate(samples, 0.5)
				b.ReportMetric(c.Precision(), "P@0.5")
				b.ReportMetric(c.Recall(), "R@0.5")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// A5 — ablation: proposal tightening (the validity-check extension).
// ---------------------------------------------------------------------------

func BenchmarkAblation_ProposalTighten(b *testing.B) {
	for _, tighten := range []bool{true, false} {
		tighten := tighten
		name := "tighten=off"
		if tighten {
			name = "tighten=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := dataset.For(dataset.ENG, 10.0/2998.4, 11)
				if err != nil {
					b.Fatal(err)
				}
				rec, err := dataset.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig().WithROE(roe.New(dataset.TreeROEENG()))
				cfg.RPN.Tighten = tighten
				sys, err := core.NewEBBIOT(cfg)
				if err != nil {
					b.Fatal(err)
				}
				samples, err := eval.Run(sys, rec.Scene, rec.Sim, eval.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				c := metrics.Evaluate(samples, 0.5)
				b.ReportMetric(c.Precision(), "P@0.5")
				b.ReportMetric(c.Recall(), "R@0.5")
			}
		})
	}
}
