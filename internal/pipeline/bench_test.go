package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"ebbiot/internal/aedat"
	"ebbiot/internal/core"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
	"ebbiot/internal/store"
)

// benchRecording lazily generates one 2-second single-car recording shared
// by every benchmark: the raw event slice and its AEDAT encoding.
var benchRecording struct {
	once sync.Once
	evs  []events.Event
	aer  []byte
}

func benchEvents(b *testing.B) ([]events.Event, []byte) {
	benchRecording.once.Do(func() {
		sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)
		sim, err := sensor.New(sensor.DefaultConfig(3), sc)
		if err != nil {
			panic(err)
		}
		evs, err := sim.Events(0, sc.DurationUS)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := aedat.Write(&buf, events.DAVIS240, evs); err != nil {
			panic(err)
		}
		benchRecording.evs = evs
		benchRecording.aer = buf.Bytes()
	})
	return benchRecording.evs, benchRecording.aer
}

// BenchmarkWindowLoop_Naive is the seed's hand-rolled replay loop: a fresh
// window slice is allocated per frame by the AEDAT reader and the reported
// boxes are copied into a retained snapshot, exactly as cmd/ebbiot-run did
// before the pipeline runtime. One op = one full replay (~31 windows).
func BenchmarkWindowLoop_Naive(b *testing.B) {
	_, aer := benchEvents(b)
	b.ReportAllocs()
	b.ResetTimer()
	var windows int
	for i := 0; i < b.N; i++ {
		r, err := aedat.NewReader(bytes.NewReader(aer))
		if err != nil {
			b.Fatal(err)
		}
		sys, err := core.NewEBBIOT(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		windows = 0
		for frame := 0; ; frame++ {
			end := int64(frame+1) * 66_000
			evs, werr := r.NextWindowInto(nil, end)
			boxes, perr := sys.ProcessWindow(evs)
			if perr != nil {
				b.Fatal(perr)
			}
			_ = append([]geometry.Box(nil), boxes...)
			windows++
			if werr == io.EOF {
				break
			}
			if werr != nil {
				b.Fatal(werr)
			}
		}
	}
	b.ReportMetric(float64(windows), "windows/replay")
}

// BenchmarkWindowLoop_Runner replays the identical recording through the
// streaming runtime: pooled window buffers, windower validation, snapshot
// deep copy and the hand-off to the sink included.
func BenchmarkWindowLoop_Runner(b *testing.B) {
	_, aer := benchEvents(b)
	b.ReportAllocs()
	b.ResetTimer()
	var windows int64
	for i := 0; i < b.N; i++ {
		r, err := aedat.NewReader(bytes.NewReader(aer))
		if err != nil {
			b.Fatal(err)
		}
		sys, err := core.NewEBBIOT(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		runner, err := NewRunner(Config{FrameUS: 66_000, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		stats, err := runner.Run(context.Background(),
			[]Stream{{Source: NewAEDATSource(r), System: sys}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		sys.Close()
		windows = stats.Windows
	}
	b.ReportMetric(float64(windows), "windows/replay")
}

// BenchmarkRunnerMultiSensor measures how aggregate throughput scales when
// the same 8-sensor fleet is sharded across 1, 2, 4 and 8 workers. Per-op
// work is constant (8 sensors x ~31 windows), so ns/op falling with worker
// count is the scaling headline.
func BenchmarkRunnerMultiSensor(b *testing.B) {
	evs, _ := benchEvents(b)
	const sensors = 8
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		name := map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4", 8: "workers=8"}[workers]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				streams := make([]Stream, sensors)
				for k := range streams {
					src, err := NewSliceSource(evs)
					if err != nil {
						b.Fatal(err)
					}
					sys, err := core.NewEBBIOT(core.DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					streams[k] = Stream{Source: src, System: sys}
				}
				runner, err := NewRunner(Config{FrameUS: 66_000, Workers: workers})
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
				b.ReportMetric(stats.WindowsPerSec(), "windows/s")
				b.ReportMetric(stats.EventsPerSec()/1e6, "Mevents/s")
			}
		})
	}
}

// BenchmarkStoreSinkConsume is a fleet run's store append path: one op is
// one window of a 16-stream fleet, sixteen two-box snapshots through
// StoreSink.Consume into a store.Writer, as fleet-lt4's sink receives
// them.
func BenchmarkStoreSinkConsume(b *testing.B) {
	const streams = 16
	w, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sink := NewStoreSink(w)
	snaps := make([]TrackSnapshot, streams)
	for k := range snaps {
		snaps[k] = TrackSnapshot{
			Sensor: k,
			Name:   fmt.Sprint("sensor", k),
			Events: 700,
			ProcUS: 40,
			Boxes:  []geometry.Box{{X: 10 + k, Y: 20, W: 30, H: 15}, {X: 120, Y: 60 + k, W: 24, H: 12}},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range snaps {
			s := &snaps[k]
			s.Frame = i
			s.StartUS = int64(i) * 66_000
			s.EndUS = s.StartUS + 66_000
			if err := sink.Consume(*s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReplayStoreWith is perfbench's replay-eng read phase in
// miniature: one recorded run of one sensor, "eng-0", holding 1,130
// one-box records, replayed whole by ReplayStoreWith into a counting sink.
// "unmonitored" passes no RunStatus, as perfbench and a plain
// ebbiot-query replay do; "monitored" passes a fresh one per replay, as
// ebbiot-query -http does. One op is one whole replay.
func BenchmarkReplayStoreWith(b *testing.B) {
	const records = 1130
	dir := b.TempDir()
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		start := int64(i) * 66_000
		if err := w.Append(TrackSnapshot{
			Name: "eng-0", Frame: i, StartUS: start, EndUS: start + 66_000,
			Events: 3_000, ProcUS: 120,
			Boxes: []geometry.Box{{X: 40 + i%150, Y: 60, W: 30, H: 15}},
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	rd, err := store.OpenReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, monitored := range []bool{false, true} {
		name := "unmonitored"
		if monitored {
			name = "monitored"
		}
		b.Run(name, func(b *testing.B) {
			n := 0
			sink := SinkFunc(func(TrackSnapshot) error { n++; return nil })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var opts ReplayOptions
				if monitored {
					opts.Status = NewRunStatus(1)
				}
				if _, err := ReplayStoreWith(context.Background(), rd, sink, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if n != records*b.N {
				b.Fatalf("replayed %d records, want %d", n, records*b.N)
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
