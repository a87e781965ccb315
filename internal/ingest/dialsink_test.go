package ingest

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"ebbiot/internal/events"
)

// fakeServer listens on loopback and answers one handshake per reply, in
// order, handing each accepted connection to the test. It decodes nothing
// after the handshake: the test reads the client's raw frames itself.
func fakeServer(t *testing.T, replies ...helloReply) (string, <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, len(replies))
	t.Cleanup(func() {
		ln.Close()
		for {
			select {
			case c := <-conns:
				c.Close()
			default:
				return
			}
		}
	})
	go func() {
		for _, rep := range replies {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := readHandshake(c); err != nil {
				t.Errorf("fake server handshake: %v", err)
				c.Close()
				return
			}
			if _, err := c.Write(appendHelloReply(nil, rep)); err != nil {
				t.Errorf("fake server reply: %v", err)
			}
			// A test reading a frame that never comes fails, not hangs.
			c.SetReadDeadline(time.Now().Add(10 * time.Second))
			conns <- c
		}
	}()
	return ln.Addr().String(), conns
}

// readRawFrame reads one whole frame, header included, into buf.
func readRawFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], frameHeaderLen)[:frameHeaderLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := int(le.Uint32(buf))
	buf = slices.Grow(buf, n)[:frameHeaderLen+n]
	_, err := io.ReadFull(r, buf[frameHeaderLen:])
	return buf, err
}

// waitAcked waits until the sink has seen seq acknowledged.
func waitAcked(t *testing.T, ds *DialSink, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ds.Stats().AckedSeq < seq {
		if time.Now().After(deadline) {
			t.Fatalf("ACK of seq %d not seen; stats %+v", seq, ds.Stats())
		}
		// Sleep rather than yield: under testing.AllocsPerRun's
		// GOMAXPROCS(1) a yielding loop leaves the network poller to
		// sysmon, which checks it every 10 ms.
		time.Sleep(20 * time.Microsecond)
	}
}

// TestResumeReplaysSentBytes: a resumed DialSink rewrites, byte for byte,
// the frames it first sent. The ring keeps encoded frames, and frames
// sent after an ACK reuse the buffers the ACK freed; the ACK covers only
// part of the ring, so a buffer recycled while still in the ring would
// show here as a changed replay.
func TestResumeReplaysSentBytes(t *testing.T) {
	addr, conns := fakeServer(t, helloReply{Epoch: 1}, helloReply{ResumeFrom: 4, Epoch: 2})
	ds, err := Dial(addr, DialConfig{StreamID: "cam0", Res: events.DAVIS240, ResumeBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Abort()
	c1 := <-conns
	defer c1.Close()
	// Batches shrink, so each reused buffer is big enough as it is.
	batch := func(k int) []events.Event { return testEvents(40-3*k, int64(k*1000)) }
	sendFlush := func(from, to int) {
		t.Helper()
		for k := from; k < to; k++ {
			if err := ds.Send(batch(k)); err != nil {
				t.Fatalf("Send %d: %v", k, err)
			}
		}
		if err := ds.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	var sent [][]byte // the frames as c1 received them, by seq-1
	readFrames := func(c net.Conn, n int) [][]byte {
		t.Helper()
		var out [][]byte
		for ; n > 0; n-- {
			f, err := readRawFrame(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
		return out
	}

	sendFlush(0, 6)
	sent = append(sent, readFrames(c1, 6)...)
	if _, err := c1.Write(appendAckFrame(nil, 4)); err != nil {
		t.Fatal(err)
	}
	waitAcked(t, ds, 4)
	sendFlush(6, 8) // into buffers the ACK freed
	sent = append(sent, readFrames(c1, 2)...)
	for k, f := range sent {
		if want := mustBatch(t, uint64(k+1), batch(k)); !bytes.Equal(f, want) {
			t.Fatalf("frame %d as first sent differs from a fresh encoding", k+1)
		}
	}

	ds.breakConn()
	sendFlush(8, 9) // the dead connection shows, and the sink resumes
	c2 := <-conns
	defer c2.Close()
	replayed := readFrames(c2, 5)
	for k := 4; k < 8; k++ {
		if !bytes.Equal(replayed[k-4], sent[k]) {
			t.Fatalf("replayed frame %d differs from the frame first sent", k+1)
		}
	}
	if want := mustBatch(t, 9, batch(8)); !bytes.Equal(replayed[4], want) {
		t.Fatal("frame 9, first sent on the resumed connection, differs from a fresh encoding")
	}
	if st := ds.Stats(); st.Resumes != 1 || st.Replayed != 5 {
		t.Fatalf("stats %+v, want 1 resume and 5 replayed frames", st)
	}
}

// TestDialSinkSendAllocFree guards the sender's half of allocation-free
// ingest: once warm, a resumable Send whose ring the ACKs prune encodes
// into a freed frame buffer and allocates nothing.
func TestDialSinkSendAllocFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates on its own account")
	}
	addr, conns := fakeServer(t, helloReply{Epoch: 1})
	ds, err := Dial(addr, DialConfig{StreamID: "cam0", Res: events.DAVIS240})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Abort()
	c := <-conns
	defer c.Close()
	go func() { // acknowledge each frame as it arrives
		var buf, ack []byte
		for {
			var err error
			if buf, err = readRawFrame(c, buf); err != nil {
				return
			}
			ack = appendAckFrame(ack[:0], le.Uint64(buf[frameHeaderLen+1:]))
			if _, err := c.Write(ack); err != nil {
				return
			}
		}
	}()
	evs := testEvents(engBatchEvents, 0)
	var seq uint64
	cycle := func() {
		for j := range evs {
			evs[j].T = int64(seq)*engBatchEvents + int64(j)
		}
		if err := ds.Send(evs); err != nil {
			t.Fatal(err)
		}
		if err := ds.Flush(); err != nil {
			t.Fatal(err)
		}
		seq++
		waitAcked(t, ds, seq)
	}
	cycle() // the first frame buffer
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("Send allocates %v times per batch, want 0", allocs)
	}
}

// TestDialRetriesUntilServerUp covers the fleet-boot race: the sensor dials
// before its server listens, and the bounded backoff carries it across the
// gap instead of failing the first connect.
func TestDialRetriesUntilServerUp(t *testing.T) {
	// Reserve a port, then free it so the first dial attempts land on a
	// closed socket.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srvCh := make(chan *Server, 1)
	go func() {
		time.Sleep(120 * time.Millisecond)
		srv, err := Listen(addr, ServerConfig{Streams: []string{"cam0"}, Res: events.DAVIS240})
		if err != nil {
			srvCh <- nil
			return
		}
		srvCh <- srv
	}()

	sink, err := Dial(addr, DialConfig{
		StreamID:       "cam0",
		Res:            events.DAVIS240,
		ConnectRetries: 20,
		ConnectBackoff: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial with retries did not survive a late server: %v", err)
	}
	if err := sink.Send([]events.Event{{X: 1, Y: 1, T: 1, P: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	srv := <-srvCh
	if srv == nil {
		t.Fatal("late server failed to listen")
	}
	srv.Close()
}

// TestDialRetriesAreBounded asserts a dead endpoint fails after the
// configured attempt count, with backoff actually spent between attempts.
func TestDialRetriesAreBounded(t *testing.T) {
	// A listener opened and closed again: nothing will ever accept here.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = Dial(addr, DialConfig{
		StreamID:       "cam0",
		Res:            events.DAVIS240,
		ConnectRetries: 2,
		ConnectBackoff: 20 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Dial succeeded against a closed port")
	}
	// Two retries with 20 ms base: sleeps in [10,20] + [20,40] ms.
	if elapsed < 30*time.Millisecond {
		t.Fatalf("Dial returned after %v; backoff between attempts not taken", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("bounded retry took %v", elapsed)
	}
}

// TestDialDoesNotRetryRejection: a server that answers and says no is
// authoritative — retrying a bad token would just hammer it.
func TestDialDoesNotRetryRejection(t *testing.T) {
	srv := startServer(t, ServerConfig{
		Streams: []string{"cam0"},
		Token:   "sesame",
		Res:     events.DAVIS240,
	})

	start := time.Now()
	_, err := Dial(srv.Addr().String(), DialConfig{
		StreamID:       "cam0",
		Token:          "wrong",
		Res:            events.DAVIS240,
		ConnectRetries: 5,
		ConnectBackoff: 500 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("Dial error = %v, want ErrRejected", err)
	}
	// With retries the first sleep alone would be >=250 ms.
	if elapsed > 200*time.Millisecond {
		t.Fatalf("rejection took %v; handshake rejection must not be retried", elapsed)
	}
}

// TestJitteredBackoffBounds pins the backoff envelope: doubling from the
// base, capped at 5 s, and jittered into [d/2, d]; a zero base means the
// 200 ms default.
func TestJitteredBackoffBounds(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{200 * ms, 0, 200 * ms},
		{200 * ms, 1, 400 * ms},
		{200 * ms, 2, 800 * ms},
		{200 * ms, 3, 1600 * ms},
		{200 * ms, 4, 3200 * ms},
		{200 * ms, 5, 5 * time.Second},
		{200 * ms, 6, 5 * time.Second}, // stays capped
		{0, 0, 200 * ms},
	} {
		for trial := 0; trial < 50; trial++ {
			got := jitteredBackoff(tc.base, tc.attempt)
			if got < tc.want/2 || got > tc.want {
				t.Fatalf("base %v attempt %d: backoff %v outside [%v, %v]",
					tc.base, tc.attempt, got, tc.want/2, tc.want)
			}
		}
	}
}

// TestHeartbeatNeverSplitsABatch drives a sink whose heartbeat fires while
// Send waits for ring space and while Close waits for the EOF
// acknowledgement. A heartbeat sent during the first wait must not take
// the pending batch's sequence number or overwrite its staged bytes, and
// none may follow the EOF frame: every event arrives once, in order, with
// no duplicate, gap or resume.
func TestHeartbeatNeverSplitsABatch(t *testing.T) {
	srv := startServer(t, ServerConfig{
		Streams:     []string{"cam0"},
		Res:         events.DAVIS240,
		AckEvery:    1,
		IdleTimeout: time.Second,
	})
	src := srv.Source("cam0")
	ds, err := Dial(srv.Addr().String(), DialConfig{
		StreamID:     "cam0",
		Res:          events.DAVIS240,
		ReplayWindow: 1,
		Heartbeat:    20 * time.Microsecond,
		Timeout:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const batches, per = 2000, 5
	type result struct {
		evs []events.Event
		err error
	}
	done := make(chan result, 1)
	go func() {
		evs, err := drain(src, 1000)
		done <- result{evs, err}
	}()
	for b := 0; b < batches; b++ {
		if err := ds.Send(testEvents(per, int64(b*per))); err != nil {
			t.Fatalf("Send %d: %v", b, err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res := <-done
	if res.err != io.EOF {
		t.Fatalf("drain ended with %v, want io.EOF", res.err)
	}
	if len(res.evs) != batches*per {
		t.Fatalf("delivered %d events, want %d", len(res.evs), batches*per)
	}
	for i, e := range res.evs {
		if e.T != int64(i) {
			t.Fatalf("event %d at t=%d, want t=%d", i, e.T, i)
		}
	}
	if st := src.SourceStats(); st.DupBatches != 0 || st.SeqGaps != 0 || st.Resumes != 0 {
		t.Fatalf("dup batches %d, seq gaps %d, resumes %d; want all 0", st.DupBatches, st.SeqGaps, st.Resumes)
	}
}
