package ingest

import (
	"context"
	"reflect"
	"testing"

	"ebbiot/internal/core"
	"ebbiot/internal/dataset"
	"ebbiot/internal/events"
	"ebbiot/internal/pipeline"
	"ebbiot/internal/store"
)

const diffFrameUS = 66_000

// diffRecording generates a short deterministic LT4-style recording.
func diffRecording(t *testing.T) (dataset.Spec, []events.Event) {
	t.Helper()
	spec, err := dataset.For(dataset.LT4, 3.0/999.5, 77)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var all []events.Event
	for cursor := int64(0); cursor < spec.DurationUS; {
		end := cursor + diffFrameUS
		if end > spec.DurationUS {
			end = spec.DurationUS
		}
		evs, err := rec.Sim.Events(cursor, end)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, evs...)
		cursor = end
	}
	return spec, all
}

// runCollect drives one stream through a Runner with a real EBBIOT system
// and returns the snapshot sequence.
func runCollect(t *testing.T, src pipeline.EventSource, extra pipeline.Sink) []pipeline.TrackSnapshot {
	t.Helper()
	sys, err := core.NewEBBIOT(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := pipeline.NewRunner(pipeline.Config{FrameUS: diffFrameUS})
	if err != nil {
		t.Fatal(err)
	}
	var got []pipeline.TrackSnapshot
	collect := pipeline.SinkFunc(func(snap pipeline.TrackSnapshot) error {
		got = append(got, snap)
		return nil
	})
	var sink pipeline.Sink = collect
	if extra != nil {
		sink = pipeline.MultiSink{collect, extra}
	}
	streams := []pipeline.Stream{{Name: "cam0", Source: src, System: sys}}
	if _, err := r.Run(context.Background(), streams, sink); err != nil {
		t.Fatal(err)
	}
	return got
}

// normalizeProc zeroes the wall-clock field: processing time legitimately
// differs between runs; everything else must be bit-identical.
func normalizeProc(snaps []pipeline.TrackSnapshot) []pipeline.TrackSnapshot {
	out := make([]pipeline.TrackSnapshot, len(snaps))
	for i, s := range snaps {
		s.ProcUS = 0
		out[i] = s
	}
	return out
}

// TestWireReplayBitIdentical is the acceptance property for the ingest
// path: streaming a recorded run over the loopback wire — with batch
// boundaries deliberately misaligned against the frame clock — produces
// bit-identical TrackSnapshots to replaying the same events in process,
// and to replaying the in-process run back out of the store it was
// recorded into.
func TestWireReplayBitIdentical(t *testing.T) {
	spec, all := diffRecording(t)
	if len(all) == 0 {
		t.Fatal("empty recording")
	}

	// Path A: in-process replay, recorded through a StoreSink on the side.
	dir := t.TempDir()
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sliceSrc, err := pipeline.NewSliceSource(all)
	if err != nil {
		t.Fatal(err)
	}
	inproc := runCollect(t, sliceSrc, pipeline.NewStoreSink(w))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(inproc) == 0 {
		t.Fatal("in-process run produced no snapshots")
	}

	// Path B: the same events over the wire, chunked at 17 ms so batch
	// boundaries land nowhere near the 66 ms frame boundaries.
	srv := startServer(t, ServerConfig{Streams: []string{"cam0"}, Res: spec.Sensor.Res})
	sendErr := make(chan error, 1)
	go func() {
		ds, err := Dial(srv.Addr().String(), DialConfig{StreamID: "cam0", Res: spec.Sensor.Res})
		if err != nil {
			sendErr <- err
			return
		}
		const chunkUS = 17_000
		for lo := 0; lo < len(all); {
			hi := lo
			cutoff := all[lo].T + chunkUS
			for hi < len(all) && all[hi].T < cutoff {
				hi++
			}
			if err := ds.Send(all[lo:hi]); err != nil {
				sendErr <- err
				return
			}
			lo = hi
		}
		sendErr <- ds.Close()
	}()
	wire := runCollect(t, srv.Source("cam0"), nil)
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(normalizeProc(inproc), normalizeProc(wire)) {
		t.Fatalf("wire replay diverged from in-process replay:\nin-process: %d snaps\nwire: %d snaps",
			len(inproc), len(wire))
	}
	if st := srv.Source("cam0").SourceStats(); st.DroppedEvents != 0 || st.Faults != 0 {
		t.Fatalf("lossless wire replay expected: %+v", st)
	}

	// Path C: the stored record of path A replays to the same snapshots.
	r, err := store.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []pipeline.TrackSnapshot
	_, err = pipeline.ReplayStoreWith(context.Background(), r,
		pipeline.SinkFunc(func(snap pipeline.TrackSnapshot) error {
			replayed = append(replayed, snap)
			return nil
		}), pipeline.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeProc(inproc), normalizeProc(replayed)) {
		t.Fatalf("store replay diverged: %d vs %d snaps", len(inproc), len(replayed))
	}
}
