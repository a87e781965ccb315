package ingest

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ebbiot/internal/events"
)

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
