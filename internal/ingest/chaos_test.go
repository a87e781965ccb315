package ingest

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"ebbiot/internal/pipeline"
)

// chaosSeed reads CHAOS_SEED so `make chaos-ingest` can sweep a drill
// matrix; the default keeps `go test` deterministic.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", s, err)
	}
	return seed
}

// TestChaosKillResumeBitIdentical is the acceptance drill for resumable
// sessions: stream a deterministic recording over the wire while randomly
// pulling the plug mid-stream, let the sink reconnect + replay each time,
// and require the tracked output to be bit-identical to an uninterrupted
// in-process run — exactly-once delivery, no gaps, no faults. Run it under
// -race (the Makefile's chaos-ingest target does) to also shake the
// reconnect/ack/replay machinery for data races.
func TestChaosKillResumeBitIdentical(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	t.Logf("chaos seed %d", seed)

	spec, all := diffRecording(t)
	if len(all) == 0 {
		t.Fatal("empty recording")
	}

	// Reference: the same events replayed in process, never interrupted.
	sliceSrc, err := pipeline.NewSliceSource(all)
	if err != nil {
		t.Fatal(err)
	}
	inproc := runCollect(t, sliceSrc, nil)
	if len(inproc) == 0 {
		t.Fatal("in-process run produced no snapshots")
	}

	// Chaos run: 17 ms chunks (misaligned with the 66 ms frames), with the
	// connection killed before roughly a quarter of the sends. A small ack
	// cadence and replay window keep the replayed tails short but nonzero.
	srv := startServer(t, ServerConfig{
		Streams:     []string{"cam0"},
		Res:         spec.Sensor.Res,
		AckEvery:    2,
		ResumeGrace: 10 * time.Second,
	})
	sendErr := make(chan error, 1)
	kills := 0
	var ds *DialSink
	go func() {
		var err error
		ds, err = Dial(srv.Addr().String(), DialConfig{
			StreamID:      "cam0",
			Res:           spec.Sensor.Res,
			ResumeRetries: 10,
			ResumeBackoff: 5 * time.Millisecond,
			ReplayWindow:  16,
		})
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
			if rng.Intn(4) == 0 {
				ds.breakConn()
				kills++
			}
			if err := ds.Send(all[lo:hi]); err != nil {
				sendErr <- err
				return
			}
			lo = hi
		}
		if rng.Intn(2) == 0 {
			ds.breakConn() // sometimes the EOF itself needs the resume path
			kills++
		}
		sendErr <- ds.Close()
	}()
	wire := runCollect(t, srv.Source("cam0"), nil)
	if err := <-sendErr; err != nil {
		t.Fatalf("chaos sender (seed %d, %d kills): %v", seed, kills, err)
	}
	if kills == 0 {
		t.Fatalf("seed %d produced no kills; the drill exercised nothing", seed)
	}
	t.Logf("killed the connection %d times; client stats: %+v", kills, ds.Stats())

	if !reflect.DeepEqual(normalizeProc(inproc), normalizeProc(wire)) {
		t.Fatalf("seed %d: interrupted wire replay diverged from uninterrupted run: %d vs %d snaps",
			seed, len(inproc), len(wire))
	}
	st := srv.Source("cam0").SourceStats()
	if st.Faults != 0 || st.DroppedEvents != 0 || st.DupBatches != 0 || st.SeqGaps != 0 {
		t.Fatalf("seed %d: chaos run must end lossless and fault-free: %+v", seed, st)
	}
	if st.Resumes == 0 || st.Epoch != int64(st.Resumes)+1 {
		t.Fatalf("seed %d: resume accounting off: resumes=%d epoch=%d", seed, st.Resumes, st.Epoch)
	}
}
