package ingest

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/pipeline"
)

// countSystem is a trivial core.System for exercising the transport: each
// window reports one box whose X is the window's event count, so snapshots
// encode exactly what arrived.
type countSystem struct{ windows int }

func (c *countSystem) Name() string { return "count" }

func (c *countSystem) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	c.windows++
	if len(evs) == 0 {
		return nil, nil
	}
	return []geometry.Box{geometry.NewBox(len(evs), c.windows, 1, 1)}, nil
}

// startServer spins up an ingest server for the given stream IDs and
// guarantees teardown.
func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// waitStats polls a source until cond approves its stats or the deadline
// passes — connection goroutines record faults asynchronously.
func waitStats(t *testing.T, src *NetSource, what string, cond func(pipeline.SourceStats) bool) pipeline.SourceStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := src.SourceStats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats: %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rawSender dials and completes the handshake by hand, for injecting
// arbitrary bytes after it. The server's ACK frames are left unread;
// tests that need a fault committed at once run the server with
// ResumeGrace -1.
func rawSender(t *testing.T, addr, stream string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hs, err := appendHandshake(nil, Hello{StreamID: stream, Res: events.DAVIS240})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hs); err != nil {
		t.Fatal(err)
	}
	if _, err := readHelloReply(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

// runStreams drives every listed stream through a Runner with tolerant
// sources and returns per-stream delivered event totals (from the box
// encoding) and the run error.
func runStreams(t *testing.T, srv *Server, ids []string) (map[string]int, error) {
	t.Helper()
	streams := make([]pipeline.Stream, len(ids))
	for i, id := range ids {
		streams[i] = pipeline.Stream{Name: id, Source: srv.Source(id), System: &countSystem{}}
	}
	r, err := pipeline.NewRunner(pipeline.Config{FrameUS: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	total := make(map[string]int)
	_, runErr := r.Run(context.Background(), streams, pipeline.SinkFunc(func(snap pipeline.TrackSnapshot) error {
		for _, b := range snap.Boxes {
			total[snap.Name] += b.X
		}
		return nil
	}))
	return total, runErr
}

// TestFaultTornFrame cuts a connection mid-frame and asserts the fault is
// counted, the pre-fault batch still tracks, and a healthy concurrent
// stream is completely unaffected.
func TestFaultTornFrame(t *testing.T) {
	srv := startServer(t, ServerConfig{Streams: []string{"bad", "good"}, Res: events.DAVIS240, ResumeGrace: -1})

	// Healthy stream: full send with a clean EOF frame.
	good, err := Dial(srv.Addr().String(), DialConfig{StreamID: "good", Res: events.DAVIS240})
	if err != nil {
		t.Fatal(err)
	}
	const goodEvents = 500
	if err := good.Send(testEvents(goodEvents, 0)); err != nil {
		t.Fatal(err)
	}
	if err := good.Close(); err != nil {
		t.Fatal(err)
	}

	// Faulty stream: one complete batch, then half a frame, then the plug is
	// pulled.
	conn := rawSender(t, srv.Addr().String(), "bad")
	full, err := appendBatchFrame(nil, 1, testEvents(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	torn, err := appendBatchFrame(nil, 2, testEvents(100, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(full, torn[:len(torn)/2]...)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	st := waitStats(t, srv.Source("bad"), "torn-frame fault", func(st pipeline.SourceStats) bool {
		return st.Faults == 1
	})
	if !strings.Contains(st.LastError, "torn frame") {
		t.Fatalf("LastError = %q, want a torn-frame description", st.LastError)
	}
	if st.Batches != 1 || st.Events != 100 {
		t.Fatalf("pre-fault batch not accepted: %+v", st)
	}

	total, runErr := runStreams(t, srv, []string{"bad", "good"})
	if runErr != nil {
		t.Fatalf("tolerant run must not fail on a stream fault: %v", runErr)
	}
	if total["good"] != goodEvents {
		t.Fatalf("surviving stream delivered %d events, want %d", total["good"], goodEvents)
	}
	if total["bad"] != 100 {
		t.Fatalf("faulty stream delivered %d events, want the 100 accepted before the tear", total["bad"])
	}
}

// TestFaultDisconnectWithoutEOF aborts a connection on a frame boundary
// (no EOF frame) and asserts it is recorded as a fault, not a clean end.
func TestFaultDisconnectWithoutEOF(t *testing.T) {
	srv := startServer(t, ServerConfig{Streams: []string{"cam0"}, ResumeGrace: -1})
	ds, err := Dial(srv.Addr().String(), DialConfig{StreamID: "cam0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Send(testEvents(50, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	// Let the server accept the batch before the plug is pulled, so the
	// assertion below can distinguish data loss from the fault itself.
	waitStats(t, srv.Source("cam0"), "batch accepted", func(st pipeline.SourceStats) bool {
		return st.Batches == 1
	})
	ds.Abort()
	st := waitStats(t, srv.Source("cam0"), "disconnect fault", func(st pipeline.SourceStats) bool {
		return st.Faults == 1
	})
	if !strings.Contains(st.LastError, "disconnect without EOF frame") {
		t.Fatalf("LastError = %q, want a disconnect description", st.LastError)
	}
	if st.Events != 50 {
		t.Fatalf("accepted events before disconnect: %d, want 50", st.Events)
	}
}

// TestFaultStalledWriter holds a connection open without sending frames
// past the idle timeout and asserts the stall is recorded as a fault.
func TestFaultStalledWriter(t *testing.T) {
	srv := startServer(t, ServerConfig{Streams: []string{"cam0"}, IdleTimeout: 50 * time.Millisecond, ResumeGrace: -1})
	conn := rawSender(t, srv.Addr().String(), "cam0")
	defer conn.Close()
	st := waitStats(t, srv.Source("cam0"), "stall fault", func(st pipeline.SourceStats) bool {
		return st.Faults == 1
	})
	if !strings.Contains(st.LastError, "stalled writer") {
		t.Fatalf("LastError = %q, want a stalled-writer description", st.LastError)
	}
}

// TestFaultDuplicateAndReorderedSeq sends duplicate and out-of-order
// sequence numbers plus a gap; the stream must survive to a clean EOF with
// the anomalies counted and the duplicates dropped.
func TestFaultDuplicateAndReorderedSeq(t *testing.T) {
	srv := startServer(t, ServerConfig{Streams: []string{"cam0"}})
	conn := rawSender(t, srv.Addr().String(), "cam0")

	var wire []byte
	mustAppend := func(seq uint64, evs []events.Event) {
		b, err := appendBatchFrame(wire, seq, evs)
		if err != nil {
			t.Fatal(err)
		}
		wire = b
	}
	mustAppend(1, testEvents(10, 0))
	mustAppend(1, testEvents(10, 0))    // duplicate
	mustAppend(4, testEvents(10, 1000)) // gap: 2 and 3 skipped
	mustAppend(2, testEvents(10, 500))  // reordered: stale seq after a newer one
	wire = appendEOFFrame(wire, 5)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}

	st := waitStats(t, srv.Source("cam0"), "clean EOF", func(st pipeline.SourceStats) bool {
		return !st.Connected && st.Batches == 2
	})
	if st.Faults != 0 {
		t.Fatalf("seq anomalies must not fault the stream: %+v", st)
	}
	if st.DupBatches != 2 {
		t.Fatalf("DupBatches = %d, want 2 (one duplicate, one reordered)", st.DupBatches)
	}
	if st.SeqGaps != 2 {
		t.Fatalf("SeqGaps = %d, want 2", st.SeqGaps)
	}
	if st.Events != 20 || st.DupEvents != 20 || st.DroppedEvents != 0 {
		t.Fatalf("accepted/dup/dropped events: %+v", st)
	}

	total, runErr := runStreams(t, srv, []string{"cam0"})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if total["cam0"] != 20 {
		t.Fatalf("delivered %d events, want the 20 accepted ones", total["cam0"])
	}
}

// TestFaultFailFastFailsRun opts a deployment into FailFast and asserts a
// torn connection surfaces as a run error with the source_errors counter
// incremented — the strict-mode counterpart of TestFaultTornFrame.
func TestFaultFailFastFailsRun(t *testing.T) {
	srv := startServer(t, ServerConfig{Streams: []string{"cam0"}, FailFast: true, ResumeGrace: -1})
	ds, err := Dial(srv.Addr().String(), DialConfig{StreamID: "cam0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Send(testEvents(50, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv.Source("cam0"), "batch accepted", func(st pipeline.SourceStats) bool {
		return st.Batches == 1
	})
	ds.Abort()
	waitStats(t, srv.Source("cam0"), "fault", func(st pipeline.SourceStats) bool {
		return st.Faults == 1
	})

	streams := []pipeline.Stream{{Name: "cam0", Source: srv.Source("cam0"), System: &countSystem{}}}
	r, err := pipeline.NewRunner(pipeline.Config{FrameUS: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := r.Run(context.Background(), streams, nil)
	if runErr == nil || !strings.Contains(runErr.Error(), "stream fault") {
		t.Fatalf("FailFast run error = %v, want a stream-fault error", runErr)
	}
	snap := r.Status().Snapshot()
	if snap.SourceErrors != 1 {
		t.Fatalf("run source_errors = %d, want 1", snap.SourceErrors)
	}
	var ss *pipeline.StreamSnapshot
	for i := range snap.PerStream {
		if snap.PerStream[i].Name == "cam0" {
			ss = &snap.PerStream[i]
		}
	}
	if ss == nil || ss.Source == nil {
		t.Fatalf("stream snapshot missing source stats: %+v", snap.PerStream)
	}
	if ss.Source.Faults != 1 || ss.SourceErrors != 1 {
		t.Fatalf("per-stream counters: source=%+v source_errors=%d", ss.Source, ss.SourceErrors)
	}
}

// TestConcurrentSendersSlowConsumer is the race-detector workout: N senders
// stream concurrently under the Block policy with a tiny queue while a
// deliberately slow consumer drains them. Nothing may be lost.
func TestConcurrentSendersSlowConsumer(t *testing.T) {
	const (
		senders       = 4
		batchesPer    = 30
		eventsPer     = 40
		eventsStreamT = batchesPer * eventsPer
	)
	ids := make([]string, senders)
	for i := range ids {
		ids[i] = fmt.Sprintf("cam%d", i)
	}
	srv := startServer(t, ServerConfig{Streams: ids, QueueBatches: 2, Policy: Block})

	errc := make(chan error, senders)
	for _, id := range ids {
		go func(id string) {
			ds, err := Dial(srv.Addr().String(), DialConfig{StreamID: id})
			if err != nil {
				errc <- err
				return
			}
			for b := 0; b < batchesPer; b++ {
				if err := ds.Send(testEvents(eventsPer, int64(b*1000))); err != nil {
					errc <- err
					return
				}
				if err := ds.Flush(); err != nil {
					errc <- err
					return
				}
			}
			errc <- ds.Close()
		}(id)
	}

	streams := make([]pipeline.Stream, senders)
	for i, id := range ids {
		streams[i] = pipeline.Stream{Name: id, Source: srv.Source(id), System: &countSystem{}}
	}
	r, err := pipeline.NewRunner(pipeline.Config{FrameUS: 1000, Workers: senders})
	if err != nil {
		t.Fatal(err)
	}
	total := make(map[string]int)
	_, runErr := r.Run(context.Background(), streams, pipeline.SinkFunc(func(snap pipeline.TrackSnapshot) error {
		time.Sleep(100 * time.Microsecond) // the slow consumer
		for _, b := range snap.Boxes {
			total[snap.Name] += b.X
		}
		return nil
	}))
	if runErr != nil {
		t.Fatal(runErr)
	}
	for i := 0; i < senders; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if total[id] != eventsStreamT {
			t.Errorf("stream %s delivered %d events, want %d (Block policy loses nothing)", id, total[id], eventsStreamT)
		}
	}
	for _, id := range ids {
		st := srv.Source(id).SourceStats()
		if st.DroppedBatches != 0 || st.Faults != 0 {
			t.Errorf("stream %s: %+v", id, st)
		}
	}
}
