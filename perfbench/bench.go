package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ebbiot/internal/core"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/metrics"
	"ebbiot/internal/pipeline"
	"ebbiot/internal/store"
)

const (
	// passTimeout bounds one pass; a hung pass counts as failed.
	passTimeout = 60 * time.Second
	// rounds is how many times a run cycles through its phases, so that
	// each phase's passes sample the whole run rather than one stretch of
	// it: on a shared VM the vCPU speed drifts within seconds.
	rounds = 3
	// keepRuns is how many recorded capacity runs the read phase cycles
	// over; their snapshots are kept to check the replay against.
	keepRuns = 8
)

// bench is one set-up of a workload and everything measured on it.
type bench struct {
	cfg      config
	w        *workload
	dir      string
	storeDir string
	streams  []*input
	col      *collector
	gen      *generator // ingest only, started by the first pass
	// setup holds the medians of setup_s, setup.inputs_s and
	// setup.system_s.
	setup [3]float64

	attempted, failed int64
	counts            metrics.Counts
	capacity, traced  phaseStats
	// lat and liveLat hold, per timed window (the streams' frames laid end
	// to end), its latency in ms in each measured saturated or live pass; a
	// failed window counts as +Inf, over any limit. The run reports
	// percentiles over windows of each window's median over passes: a host
	// stall delays the windows it hits in one pass, while a window slow in
	// every pass stays slow. On a shared 2-vCPU VM, percentiles pooled over
	// all passes moved with the host: ingest-eng's live p99 read 1.7–6.5 ms
	// over five seeds.
	lat, liveLat [][]float64
	readRate     []float64
	// replayNext and replayDrain are traced read-phase costs per record.
	replayNext, replayDrain []float64
	bytesPerRecord          float64
	layers                  layerTotals
	lastTrace               *tracer
	stages                  core.StageTimings
	src                     pipeline.SourceStats // summed over passes
	queueMax                int64
	sendBatches, sendNS     int64
	lateMS                  []float64
	recorded                []recordedRun
}

// phaseStats holds per-pass values of one saturated phase.
type phaseStats struct {
	eventsPerS, cpuUSPerWin, allocPerWin, mallocsPerWin, gcPer1k []float64
	// wallUSPerWin is wall time × workers per window: the worker time a
	// window costs, comparable to the traced cycle.
	wallUSPerWin []float64
}

// recordedRun is a capacity pass's store run and the snapshots it
// appended.
type recordedRun struct {
	id    uint64
	snaps [][]pipeline.TrackSnapshot
}

func newBench(cfg config, w *workload, i int) (*bench, time.Time, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, time.Time{}, err
	}
	b := &bench{cfg: cfg, w: w, dir: dir, storeDir: filepath.Join(dir, "store")}
	var err error
	if b.streams, err = w.synth(dir, cfg.seed, cfg.segment); err != nil {
		b.close()
		return nil, time.Time{}, err
	}
	inputsDone := time.Now()
	done := map[*input]bool{}
	for _, in := range b.streams {
		if done[in] {
			continue
		}
		done[in] = true
		if err := reference(in); err != nil {
			b.close()
			return nil, time.Time{}, fmt.Errorf("reference run of %s: %w", in.name, err)
		}
	}
	b.col = newCollector(len(b.streams), false)
	// The warm-up pass of the first capacity phase.
	if _, err := b.runPass(false, nil, false, false); err != nil {
		b.close()
		return nil, time.Time{}, err
	}
	return b, inputsDone, nil
}

func (b *bench) close() {
	if b.gen != nil {
		if err := b.gen.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: generator:", err)
		}
		b.gen = nil
	}
	os.RemoveAll(b.dir)
}

// measure runs the phases, rounds times over. An untraced run splits its
// time 80/20 between the capacity and read phases. A traced run first
// repeats a short untraced capacity phase, the base of trace.overhead,
// then a traced one, and on a workload with a live phase gives that the
// largest share: a live pass lasts seconds.
func (b *bench) measure() error {
	total := b.cfg.seconds * float64(time.Second) / rounds
	part := func(f float64) time.Duration { return time.Duration(f * total) }
	// Shares of the run: untraced capacity, traced capacity, live, read.
	share := [4]float64{0.8, 0, 0, 0.2}
	switch {
	case b.cfg.trace && b.w.live:
		share = [4]float64{0.1, 0.2, 0.5, 0.2}
	case b.cfg.trace:
		share = [4]float64{0.25, 0.5, 0, 0.25}
	}
	for r := 0; r < rounds; r++ {
		// A phase's first round starts with a discarded warm-up pass; the
		// set-up's last pass warms the untraced capacity phase.
		warm := r == 0
		if err := b.capacityPhase(&b.capacity, part(share[0]), false, false); err != nil {
			return err
		}
		if share[1] > 0 {
			if err := b.capacityPhase(&b.traced, part(share[1]), true, warm); err != nil {
				return err
			}
		}
		if share[2] > 0 {
			if err := b.livePhase(part(share[2]), b.cfg.trace, warm); err != nil {
				return err
			}
		}
		if err := b.readPhase(part(share[3]), b.cfg.trace, warm); err != nil {
			return err
		}
	}
	if !b.cfg.trace {
		return nil
	}
	if b.lastTrace == nil {
		return fmt.Errorf("no traced pass succeeded")
	}
	path := filepath.Join(b.cfg.work, fmt.Sprintf("trace-%s-seed%d.jsonl", b.w.name, b.cfg.seed))
	if err := b.lastTrace.write(path); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans of the last traced pass written to", path)
	return nil
}

// more reports whether a phase starts another pass: until it has measured
// one pass after its warm-up, then while a pass as long as the last one
// still ends before the deadline.
func more(p int, last time.Duration, deadline time.Time) bool {
	return p < 1 || time.Now().Add(last).Before(deadline)
}

// logPhase notes on standard error how many passes a phase measured.
func logPhase(name string, passes int, start time.Time) {
	fmt.Fprintf(os.Stderr, "perfbench: %s phase: %d measured passes in %.2f s\n", name, passes, time.Since(start).Seconds())
}

func (b *bench) capacityPhase(ps *phaseStats, budget time.Duration, traced, warm bool) error {
	t0 := time.Now()
	deadline := t0.Add(budget)
	start := 0
	if warm {
		start = -1
	}
	n0 := len(ps.eventsPerS)
	defer func() { logPhase("capacity", len(ps.eventsPerS)-n0, t0) }()
	var last time.Duration
	for p := start; more(p, last, deadline); p++ {
		t0 := time.Now()
		var tr *tracer
		if traced {
			tr = newTracer(len(b.streams), b.w.source)
		}
		pr, err := b.runPass(false, tr, false, p >= 0)
		if err != nil {
			return err
		}
		last = time.Since(t0)
		if p < 0 || !pr.ok {
			continue
		}
		win := float64(pr.windows)
		ps.eventsPerS = append(ps.eventsPerS, float64(pr.events)/pr.wall.Seconds())
		ps.cpuUSPerWin = append(ps.cpuUSPerWin, float64(pr.cpu.Microseconds())/win)
		ps.allocPerWin = append(ps.allocPerWin, float64(pr.alloc)/win)
		ps.mallocsPerWin = append(ps.mallocsPerWin, float64(pr.mallocs)/win)
		ps.gcPer1k = append(ps.gcPer1k, float64(pr.gcs)*1000/win)
		ps.wallUSPerWin = append(ps.wallUSPerWin, float64(pr.wall.Microseconds())*float64(pr.workers)/win)
		if traced {
			b.layers.add(tr)
			b.lastTrace = tr
		}
	}
	return nil
}

func (b *bench) livePhase(budget time.Duration, traced, warm bool) error {
	start := time.Now()
	deadline := start.Add(budget)
	var last time.Duration
	p := 0
	if warm {
		p = -1
	}
	defer func() {
		logPhase("live", p, start)
		lat := medians(b.liveLat)
		fmt.Fprintf(os.Stderr, "perfbench: live windows: %d, median over passes p50 %.3f ms, p99 %.3f ms\n", len(lat), quantile(lat, 0.5), quantile(lat, 0.99))
	}()
	for ; more(p, last, deadline); p++ {
		t0 := time.Now()
		if _, err := b.runPass(true, nil, traced, p >= 0); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// passResult is what one pass measured.
type passResult struct {
	ok              bool
	wall, cpu       time.Duration
	alloc, mallocs  uint64
	gcs             uint32
	windows, events int64
	workers         int
}

// runPass runs every stream once through Runner → EBBIOT → StoreSink into
// a new store run, then checks, scores and (unless traced) times the
// snapshots. Errors while the program runs fail the pass's windows; an
// error returned here means the benchmark itself could not continue.
func (b *bench) runPass(live bool, tr *tracer, sample, measured bool) (passResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	srcs, err := b.w.open(b, ctx, live)
	if err != nil {
		return passResult{}, err
	}
	// Latency counts from each window's due time in a live pass and from
	// its hand-over by the source in untraced saturated passes.
	handovers := !live && tr == nil
	if handovers {
		for i, src := range srcs.srcs {
			srcs.srcs[i] = keepSourceInterfaces(handover{src, &b.col.from[i]}, src)
		}
		srcs.due = func(i, frame int) int64 { return b.col.from[i][frame] }
	}
	n := len(b.streams)
	systems := make([]*core.EBBIOT, n)
	defer func() {
		for _, s := range systems {
			if s != nil {
				s.Close()
			}
		}
	}()
	streams := make([]pipeline.Stream, n)
	depth := make([]int64, n)
	for i, in := range b.streams {
		if systems[i], err = newSystem(in); err != nil {
			srcs.close()
			return passResult{}, err
		}
		streams[i] = pipeline.Stream{Name: fmt.Sprintf("%s-%d", in.name, i), Source: srcs.srcs[i], System: systems[i]}
		if tr != nil {
			streams[i].Source = tr.traceSource(i, srcs.srcs[i])
			streams[i].System = tr.traceSystem(i, systems[i])
			streams[i].Observer = tr.observer(i)
		}
		if m, ok := srcs.srcs[i].(pipeline.SourceMeter); ok && sample {
			d := &depth[i]
			streams[i].Observer = func(pipeline.TrackSnapshot, core.System) error {
				*d = max(*d, m.SourceStats().QueuedBatches)
				return nil
			}
		}
	}
	if b.cfg.fault == dropWindow {
		streams[0].Source = &dropper{src: streams[0].Source, frame: 10}
	}
	sw, err := store.Open(b.storeDir, store.Options{})
	if err != nil {
		srcs.close()
		return passResult{}, err
	}
	var first pipeline.Sink = b.col
	if b.cfg.fault == alterBox {
		first = mover{b.col}
	}
	ssink := pipeline.NewStoreSink(sw)
	sink := pipeline.MultiSink{first, ssink}
	if tr != nil {
		sink[1] = tracedSink{ssink, tr}
	}
	workers := b.w.workers
	if live {
		workers = n
	}
	runner, err := pipeline.NewRunner(pipeline.Config{FrameUS: frameUS, Workers: workers})
	if err != nil {
		srcs.close()
		sw.Close()
		return passResult{}, err
	}
	b.col.reset()
	b.col.stamp = live || handovers

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	if err := srcs.start(); err != nil {
		srcs.close()
		sw.Close()
		return passResult{}, err
	}
	t0 := time.Now()
	stats, runErr := runner.Run(ctx, streams, sink)
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)

	var rep genReport
	var genErr error
	if runErr == nil {
		rep, genErr = srcs.finish()
		srcs.close()
	} else {
		srcs.close()
		rep, genErr = srcs.finish()
	}
	closeErr := sw.Close()
	passErr := errors.Join(runErr, genErr, closeErr)
	if passErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s pass failed: %v\n", b.w.name, passErr)
	}

	pr := passResult{
		ok: passErr == nil, wall: wall, cpu: c1 - c0,
		alloc: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs, gcs: m1.NumGC - m0.NumGC,
		windows: stats.Windows, events: stats.Events, workers: stats.Workers,
	}
	b.account(srcs, live, sample, measured, passErr, sw.RunID(), depth)
	for _, s := range systems {
		if measured {
			b.stages = b.stages.Add(s.StageTimings())
		}
	}
	if live && measured {
		b.sendBatches += rep.Batches
		b.sendNS += rep.SendNS
		for _, l := range rep.LateNS {
			b.lateMS = append(b.lateMS, float64(l)/1e6)
		}
	}
	return pr, nil
}

// account checks a finished pass against the reference, counts its
// failures, scores it and, for timed passes, turns arrivals into
// latencies. It runs after the pass's timing has stopped.
func (b *bench) account(srcs *sources, live, sample, measured bool, passErr error, runID uint64, depth []int64) {
	first := 0 // index in b.lat of the stream's first window
	for i, in := range b.streams {
		base := first
		first += len(in.ref)
		o := check(in.ref, b.col.snaps[i])
		if passErr != nil {
			o.attempted, o.failed = int64(len(in.ref)), int64(len(in.ref))
			clear(o.ok)
		}
		b.attempted += o.attempted
		b.failed += o.failed
		if m, ok := srcs.srcs[i].(pipeline.SourceMeter); ok {
			st := m.SourceStats()
			b.failed += st.DroppedBatches + st.DupBatches + st.SeqGaps + st.Faults
			b.src.DroppedEvents += st.DroppedEvents
			b.src.DupBatches += st.DupBatches
			b.src.SeqGaps += st.SeqGaps
			b.src.Faults += st.Faults
			b.src.Resumes += st.Resumes
		}
		if sample {
			b.queueMax = max(b.queueMax, depth[i])
		}
		if !measured {
			continue
		}
		score(&b.counts, in.gt, b.col.snaps[i])
		if b.col.stamp {
			lat := &b.lat
			if live {
				lat = &b.liveLat
			}
			if len(*lat) < first {
				*lat = append(*lat, make([][]float64, first-len(*lat))...)
			}
			for k := range in.ref {
				l := math.Inf(1)
				if o.ok[k] {
					l = float64(b.col.at[i][o.arrival[k]]-srcs.due(i, k)) / 1e6
				}
				(*lat)[base+k] = append((*lat)[base+k], l)
			}
		}
	}
	if measured && !live && passErr == nil {
		rr := recordedRun{id: runID, snaps: make([][]pipeline.TrackSnapshot, len(b.col.snaps))}
		for i, s := range b.col.snaps {
			rr.snaps[i] = slices.Clone(s)
		}
		if len(b.recorded) == keepRuns {
			b.recorded = b.recorded[1:]
		}
		b.recorded = append(b.recorded, rr)
	}
}

// medians returns each timed window's median latency over the measured
// passes.
func medians(lat [][]float64) []float64 {
	m := make([]float64, len(lat))
	for i, l := range lat {
		m[i] = median(l)
	}
	return m
}

// readPhase replays recorded capacity runs by ID through
// pipeline.ReplayStoreWith and checks every record against what was
// appended. A pass replays each kept run once: one run alone lasts ~1 ms
// on replay-eng, and the rates of such passes spread widely (quartiles
// ~1.0M and ~1.5M records/s within one run). Traced, each replay is preceded by one that
// drains store.Reader.Replay directly, so the store's own cost per record
// can be told apart from the pipeline's drain loop.
func (b *bench) readPhase(budget time.Duration, traced, warm bool) error {
	if len(b.recorded) == 0 {
		return fmt.Errorf("no recorded run to replay")
	}
	rd, err := store.OpenReader(b.storeDir)
	if err != nil {
		return err
	}
	if st := rd.Stats(); st.Records > 0 {
		b.bytesPerRecord = float64(st.DataBytes) / float64(st.Records)
	}
	start := time.Now()
	deadline := start.Add(budget)
	var last time.Duration
	p := 0
	if warm {
		p = -1
	}
	defer func() { logPhase("read", p, start) }()
	for ; more(p, last, deadline); p++ {
		t0 := time.Now()
		var recs, nextNS, sinkNS float64
		var wall time.Duration
		ok := true
		for i := range b.recorded {
			rr := &b.recorded[i]
			if traced {
				ns, err := drainDirect(rd, rr.id)
				if err != nil {
					return err
				}
				nextNS += ns
			}
			b.col.reset()
			b.col.stamp = false
			var sink pipeline.Sink = b.col
			var ts *timedSink
			if traced {
				ts = &timedSink{inner: b.col}
				sink = ts
			}
			ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
			t1 := time.Now()
			_, rerr := pipeline.ReplayStoreWith(ctx, rd, sink, pipeline.ReplayOptions{Run: rr.id})
			wall += time.Since(t1)
			cancel()
			att, failed := checkReplay(rr.snaps, b.col.snaps, rerr)
			b.attempted += att
			b.failed += failed
			recs += float64(att)
			ok = ok && rerr == nil
			if traced {
				sinkNS += float64(ts.ns)
			}
		}
		last = time.Since(t0)
		if p < 0 || !ok {
			continue
		}
		b.readRate = append(b.readRate, recs/wall.Seconds())
		if traced {
			b.replayNext = append(b.replayNext, nextNS/recs/1e3)
			b.replayDrain = append(b.replayDrain, (float64(wall.Nanoseconds())-sinkNS-nextNS)/recs/1e3)
		}
	}
	return nil
}

// drainDirect iterates a run's replay with store.Reader.Replay alone and
// returns the time it took in ns.
func drainDirect(rd *store.Reader, run uint64) (float64, error) {
	start := time.Now()
	it, err := rd.Replay(run, nil, 0, math.MaxInt64)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	for {
		if _, err := it.Next(); err == io.EOF {
			break
		} else if err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()), nil
}

// checkReplay compares replayed records with the recorded ones, field by
// field, ProcUS included.
func checkReplay(want, got [][]pipeline.TrackSnapshot, err error) (attempted, failed int64) {
	for i, w := range want {
		attempted += int64(len(w))
		if err != nil {
			failed += int64(len(w))
			continue
		}
		g := got[i]
		if len(g) > len(w) {
			attempted += int64(len(g) - len(w))
		}
		for k := 0; k < max(len(w), len(g)); k++ {
			if k >= len(w) || k >= len(g) || !sameSnapshot(w[k], g[k]) {
				failed++
			}
		}
	}
	return attempted, failed
}

func sameSnapshot(a, b pipeline.TrackSnapshot) bool {
	return a.Sensor == b.Sensor && a.Name == b.Name && a.ProcUS == b.ProcUS &&
		digestOf(a).equal(digestOf(b))
}

// timedSink times the read phase's sink so the drain loop's own cost
// can be isolated.
type timedSink struct {
	inner pipeline.Sink
	ns    int64
}

func (t *timedSink) Consume(s pipeline.TrackSnapshot) error {
	start := time.Now()
	err := t.inner.Consume(s)
	t.ns += int64(time.Since(start))
	return err
}

// dropper loses one window's events: the self-test's injected source
// fault.
type dropper struct {
	src   pipeline.EventSource
	frame int
	calls int
}

func (d *dropper) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	n := len(buf)
	out, err := d.src.NextWindow(buf, start, end)
	if d.calls++; d.calls == d.frame+1 {
		out = out[:n]
	}
	return out, err
}

// mover adds a box to stream 0's frame 20 before the collector sees it:
// the self-test's injected sink fault.
type mover struct{ inner pipeline.Sink }

func (m mover) Consume(s pipeline.TrackSnapshot) error {
	if s.Sensor == 0 && s.Frame == 20 {
		s.Boxes = append([]geometry.Box{geometry.NewBox(1, 1, 5, 5)}, s.Boxes...)
	}
	return m.inner.Consume(s)
}
