package ingest

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"ebbiot/internal/events"
	"ebbiot/internal/pipeline"
)

// TestResumeSurvivesConnectionKill is the basic self-healing path: the
// connection dies mid-stream, the sink reconnects with the RESUME handshake
// and replays its unacknowledged tail, and the server delivers every event
// exactly once with the session epoch bumped — no fault recorded.
func TestResumeSurvivesConnectionKill(t *testing.T) {
	srv := startServer(t, ServerConfig{Streams: []string{"cam0"}, AckEvery: 2})
	ds, err := Dial(srv.Addr().String(), DialConfig{
		StreamID:      "cam0",
		ResumeRetries: 5,
		ResumeBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const batches, per = 10, 20
	for b := 0; b < batches; b++ {
		if b == 4 {
			ds.breakConn() // the next Send hits a dead socket and must self-heal
		}
		if err := ds.Send(testEvents(per, int64(b*1000))); err != nil {
			t.Fatalf("Send after kill: %v", err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st := waitStats(t, srv.Source("cam0"), "clean EOF after resume", func(st pipeline.SourceStats) bool {
		return !st.Connected && !st.Resumable && st.Events == batches*per
	})
	if st.Faults != 0 {
		t.Fatalf("resumed stream must not fault: %+v", st)
	}
	if st.Resumes != 1 || st.Epoch != 2 {
		t.Fatalf("resumes=%d epoch=%d, want 1 and 2", st.Resumes, st.Epoch)
	}
	if st.SeqGaps != 0 {
		t.Fatalf("replay must keep the sequence contiguous: %+v", st)
	}
	cs := ds.Stats()
	if cs.Resumes != 1 || cs.Replayed == 0 {
		t.Fatalf("client stats: %+v, want Resumes=1 and a replayed tail", cs)
	}

	total, runErr := runStreams(t, srv, []string{"cam0"})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if total["cam0"] != batches*per {
		t.Fatalf("delivered %d events, want %d exactly once", total["cam0"], batches*per)
	}
}

// TestResumeGraceExpiry: a disconnected stream parks as resumable for the
// grace window, then faults for real with the original disconnect cause
// preserved in the error.
func TestResumeGraceExpiry(t *testing.T) {
	srv := startServer(t, ServerConfig{Streams: []string{"cam0"}, ResumeGrace: 150 * time.Millisecond})
	ds, err := Dial(srv.Addr().String(), DialConfig{StreamID: "cam0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Send(testEvents(10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv.Source("cam0"), "batch accepted", func(st pipeline.SourceStats) bool {
		return st.Batches == 1
	})
	ds.Abort()

	// First the session parks: disconnected but alive, no fault yet.
	st := waitStats(t, srv.Source("cam0"), "grace window", func(st pipeline.SourceStats) bool {
		return st.Resumable
	})
	if st.Faults != 0 {
		t.Fatalf("fault recorded during grace window: %+v", st)
	}
	// Then the grace expires and the stream faults with both causes.
	st = waitStats(t, srv.Source("cam0"), "grace expiry fault", func(st pipeline.SourceStats) bool {
		return st.Faults == 1
	})
	if st.Resumable {
		t.Fatalf("faulted stream still marked resumable: %+v", st)
	}
	if !strings.Contains(st.LastError, "resume grace expired") ||
		!strings.Contains(st.LastError, "disconnect without EOF frame") {
		t.Fatalf("LastError = %q, want grace expiry wrapping the disconnect cause", st.LastError)
	}
}

// TestResumeTakeover covers the half-open case: the old connection is still
// nominally open when the sensor reconnects with RESUME. The server must
// accept the newcomer, sever the stale connection, and report the negotiated
// replay point in the v2 reply.
func TestResumeTakeover(t *testing.T) {
	srv := startServer(t, ServerConfig{Streams: []string{"cam0"}, AckEvery: 1})
	ds, err := Dial(srv.Addr().String(), DialConfig{StreamID: "cam0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Abort()
	for b := 0; b < 3; b++ {
		if err := ds.Send(testEvents(10, int64(b*1000))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv.Source("cam0"), "batches accepted", func(st pipeline.SourceStats) bool {
		return st.Batches == 3
	})

	// Reconnect by hand while the first connection is still open.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hs, err := appendHandshake(nil, Hello{StreamID: "cam0", Res: events.DAVIS240, Resume: true, LastAck: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hs); err != nil {
		t.Fatal(err)
	}
	rep, err := readHelloReply(conn)
	if err != nil {
		t.Fatalf("takeover handshake rejected: %v", err)
	}
	if rep.ResumeFrom != 3 {
		t.Fatalf("negotiated resume point = %d, want 3 (server's last accepted seq)", rep.ResumeFrom)
	}
	if rep.Epoch != 2 {
		t.Fatalf("epoch after takeover = %d, want 2", rep.Epoch)
	}

	// The new connection continues the stream from the negotiated point.
	wire, err := appendBatchFrame(nil, 4, testEvents(10, 4000))
	if err != nil {
		t.Fatal(err)
	}
	wire = appendEOFFrame(wire, 5)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	st := waitStats(t, srv.Source("cam0"), "clean EOF after takeover", func(st pipeline.SourceStats) bool {
		return !st.Connected && st.Events == 40
	})
	if st.Faults != 0 || st.Resumes != 1 || st.Epoch != 2 {
		t.Fatalf("takeover stats: %+v", st)
	}
}

// TestSecondClaimStillRejected: resume does not weaken the single-writer
// rule — a plain (non-resume) second connection to an active stream is
// still turned away as busy.
func TestSecondClaimStillRejected(t *testing.T) {
	srv := startServer(t, ServerConfig{Streams: []string{"cam0"}})
	ds, err := Dial(srv.Addr().String(), DialConfig{StreamID: "cam0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Abort()
	if err := ds.Send(testEvents(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = Dial(srv.Addr().String(), DialConfig{StreamID: "cam0"})
	if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), "already connected") {
		t.Fatalf("second claim error = %v, want busy rejection", err)
	}
}

// TestHeartbeatKeepsQuietStreamAlive is the slow-generator scenario: the
// sensor produces events far slower than the server's idle timeout. The
// sink's heartbeats must keep the connection warm so the stream survives to
// a clean EOF instead of faulting as a stalled writer.
func TestHeartbeatKeepsQuietStreamAlive(t *testing.T) {
	srv := startServer(t, ServerConfig{Streams: []string{"cam0"}, IdleTimeout: 120 * time.Millisecond})
	ds, err := Dial(srv.Addr().String(), DialConfig{
		StreamID:  "cam0",
		Heartbeat: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A generator that emits a tiny batch every ~400 ms — more than three
	// idle timeouts apart.
	for b := 0; b < 2; b++ {
		if err := ds.Send(testEvents(5, int64(b*1_000_000))); err != nil {
			t.Fatal(err)
		}
		if err := ds.Flush(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(400 * time.Millisecond)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close after quiet stretches: %v", err)
	}

	st := waitStats(t, srv.Source("cam0"), "clean EOF", func(st pipeline.SourceStats) bool {
		return !st.Connected && st.Events == 10
	})
	if st.Faults != 0 {
		t.Fatalf("quiet stream faulted despite heartbeats: %+v (last: %s)", st, st.LastError)
	}
	if hb := ds.Stats().Heartbeats; hb < 10 {
		t.Fatalf("heartbeats sent = %d, want a steady pulse through the quiet stretches", hb)
	}
}
