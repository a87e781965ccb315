package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"ebbiot/internal/events"
)

// DialConfig parameterises a DialSink.
type DialConfig struct {
	// StreamID names this sensor stream on the server. Required.
	StreamID string
	// Token is the shared secret the server may require.
	Token string
	// Res is the sensor resolution advertised in the handshake; the server
	// rejects a mismatch against its deployment resolution.
	Res events.Resolution
	// Timeout bounds the dial, the handshake round trip, each batch write
	// and Close's wait for the final acknowledgement; 0 means 10 seconds.
	Timeout time.Duration
	// ConnectRetries bounds additional dial attempts after the first
	// fails (0 = fail on the first error). Only the TCP connect is
	// retried — a sensor fleet brought up before its server converges
	// instead of dying — while a server that answers and rejects the
	// handshake (ErrRejected) is authoritative and never retried.
	ConnectRetries int
	// ConnectBackoff is the delay before the first retry, doubled each
	// attempt (capped at 5 s) with uniform jitter in [d/2, d] so a fleet
	// restarting together does not reconnect in lockstep. 0 means 200 ms.
	ConnectBackoff time.Duration
	// ResumeRetries bounds the reconnect attempts made per connection
	// loss once the stream is live. 0 means 8; negative disables resume
	// entirely, restoring fail-on-first-write-error semantics.
	ResumeRetries int
	// ResumeBackoff is the base delay between reconnect attempts, doubled
	// per attempt (capped at 5 s) with the same jitter as ConnectBackoff.
	// 0 means 200 ms.
	ResumeBackoff time.Duration
	// ReplayWindow bounds the ring of sent-but-unacknowledged batches
	// kept for replay after a resume; Send blocks when the ring is full
	// until the server acknowledges progress. 0 means 256.
	ReplayWindow int
	// Heartbeat, when positive, sends an empty batch whenever the sink
	// has been quiet for about that long, so a healthy-but-idle sensor
	// outlives the server's idle timeout. Set it to at most half the
	// server's IdleTimeout.
	Heartbeat time.Duration
}

// DialStats counts one DialSink's delivery and recovery activity, printed
// by ebbiot-gen -send so operators see resume behaviour without scraping
// server metrics.
type DialStats struct {
	// Sent counts batch frames written first-hand (heartbeats included,
	// resume replays excluded).
	Sent int64 `json:"sent"`
	// Heartbeats counts the empty keep-alive batches among Sent.
	Heartbeats int64 `json:"heartbeats"`
	// Resumes counts successful RESUME handshakes after a connection
	// loss.
	Resumes int64 `json:"resumes"`
	// Replayed counts batches rewritten from the ring during resumes.
	Replayed int64 `json:"replayed"`
	// AckedSeq is the highest cumulative acknowledgement received.
	AckedSeq uint64 `json:"acked_seq"`
	// LastSeq is the highest sequence number assigned.
	LastSeq uint64 `json:"last_seq"`
	// Epoch is the current ingest session epoch (1 = first connection,
	// bumped per accepted resume).
	Epoch uint64 `json:"epoch"`
}

// jitteredBackoff returns the delay before retry number attempt (0-based):
// base << attempt capped at 5 s, jittered uniformly into [d/2, d] so that
// a fleet retrying together does not retry in lockstep. A base of 0 or
// less means 200 ms. Dial's connect loop and the resume loop share it.
func jitteredBackoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	const cap = 5 * time.Second
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// ringEntry is one un-ACKed frame retained for replay: the encoded bytes
// of a batch, or of the stream's EOF marker.
type ringEntry struct {
	seq   uint64
	frame []byte
}

// DialSink is the sensor-side client: it connects to an ingest server,
// performs the handshake and then streams event batches over the framed
// wire — the counterpart of NetSource, turning any local event producer
// (a recorded run, a generator, a real camera driver) into a network
// stream.
//
// The sink is self-healing: it retains every batch the server has not
// yet acknowledged in a bounded ring, and a connection loss — noticed by
// a failed write or by the ACK-reader goroutine — triggers a RESUME
// reconnect that replays the ring past the server's reply point.
// The server's NetSource dedups by sequence number, so delivery stays
// exactly-once end to end. With Heartbeat set, the sink also keeps a
// quiet connection alive with empty batches.
//
// Send, Flush and Close are intended for one producing goroutine; the
// heartbeat and ACK readers are internal and synchronised.
type DialSink struct {
	cfg  DialConfig
	addr string
	// resumeRetries is the normalised per-loss retry budget; -1 means
	// resume is switched off.
	resumeRetries int

	mu   sync.Mutex
	cond *sync.Cond
	conn net.Conn
	bw   *bufio.Writer
	// gen counts installed connections; ACK-reader callbacks from an
	// already-replaced connection carry a stale gen and are ignored.
	gen int
	// connErr is the pending connection failure; the next write-path call
	// resumes (or fails, when resume is off).
	connErr error
	seq     uint64
	ring    []ringEntry
	// free holds the frame buffers of pruned ring entries; a resumable
	// sink encodes each frame into one of them.
	free     [][]byte
	closed   bool
	lastSend time.Time
	stats    DialStats
	// buf is the frame buffer of a sink without resume.
	buf []byte

	hbStop chan struct{}
	hbDone chan struct{}
}

// Dial connects, handshakes and returns a ready sink. The TCP connect is
// retried up to cfg.ConnectRetries times with jittered exponential
// backoff; the handshake is attempted once on the connection that
// succeeds. A server rejection is returned as an error wrapping
// ErrRejected with the decoded reason.
func Dial(addr string, cfg DialConfig) (*DialSink, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.ReplayWindow <= 0 {
		cfg.ReplayWindow = 256
	}
	d := &DialSink{cfg: cfg, addr: addr, resumeRetries: cfg.ResumeRetries}
	if cfg.ResumeRetries == 0 {
		d.resumeRetries = 8
	}
	if cfg.ResumeRetries < 0 {
		d.resumeRetries = -1
	}
	d.cond = sync.NewCond(&d.mu)
	var conn net.Conn
	var err error
	for attempt := 0; ; attempt++ {
		conn, err = net.DialTimeout("tcp", addr, cfg.Timeout)
		if err == nil {
			break
		}
		if attempt >= cfg.ConnectRetries {
			return nil, fmt.Errorf("ingest: dial %s (attempt %d of %d): %w",
				addr, attempt+1, cfg.ConnectRetries+1, err)
		}
		time.Sleep(jitteredBackoff(cfg.ConnectBackoff, attempt))
	}
	rep, err := d.handshake(conn, false, 0)
	if err != nil {
		conn.Close()
		return nil, err
	}
	d.mu.Lock()
	d.install(conn, rep)
	d.mu.Unlock()
	if cfg.Heartbeat > 0 {
		d.hbStop = make(chan struct{})
		d.hbDone = make(chan struct{})
		go d.heartbeatLoop()
	}
	return d, nil
}

// resumable reports whether this sink recovers from connection loss.
func (d *DialSink) resumable() bool { return d.resumeRetries >= 0 }

// handshake performs the wire handshake on a fresh connection.
func (d *DialSink) handshake(conn net.Conn, resume bool, lastAck uint64) (helloReply, error) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	hs, err := appendHandshake(nil, Hello{
		StreamID: d.cfg.StreamID,
		Token:    d.cfg.Token,
		Res:      d.cfg.Res,
		Resume:   resume,
		LastAck:  lastAck,
	})
	if err != nil {
		return helloReply{}, err
	}
	_ = conn.SetDeadline(time.Now().Add(d.cfg.Timeout))
	if _, err := conn.Write(hs); err != nil {
		return helloReply{}, fmt.Errorf("ingest: handshake write: %w", err)
	}
	rep, err := readHelloReply(conn)
	if err != nil {
		return helloReply{}, err
	}
	_ = conn.SetDeadline(time.Time{})
	return rep, nil
}

// install adopts a freshly-handshaken connection under d.mu: new writer,
// new generation, cleared failure, ACK reader started.
func (d *DialSink) install(conn net.Conn, rep helloReply) {
	d.conn = conn
	d.bw = bufio.NewWriterSize(conn, 64<<10)
	d.connErr = nil
	d.gen++
	d.lastSend = time.Now()
	d.stats.Epoch = rep.Epoch
	if rep.ResumeFrom > d.stats.AckedSeq {
		d.stats.AckedSeq = rep.ResumeFrom
	}
	d.pruneRingLocked(d.stats.AckedSeq)
	go d.ackLoop(conn, d.gen)
}

// ackLoop reads the server's cumulative ACK frames off one connection,
// pruning the replay ring as sequences are confirmed. It exits on any
// read error, recording the failure so the write path resumes.
func (d *DialSink) ackLoop(conn net.Conn, gen int) {
	dec := newDecoder(bufio.NewReaderSize(conn, 4<<10), events.Resolution{})
	for {
		f, err := dec.next(nil)
		if err != nil {
			d.noteConnErr(gen, fmt.Errorf("ingest: ack read: %w", err))
			return
		}
		if f.typ != frameAck {
			d.noteConnErr(gen, fmt.Errorf("%w: frame type %d from server", ErrBadFrame, f.typ))
			conn.Close()
			return
		}
		d.mu.Lock()
		if gen == d.gen && f.seq > d.stats.AckedSeq {
			d.stats.AckedSeq = f.seq
			d.pruneRingLocked(f.seq)
			d.cond.Broadcast()
		}
		d.mu.Unlock()
	}
}

// noteConnErr records a connection failure observed off the write path
// (ACK reader), waking anyone blocked on ring space or the final ACK.
func (d *DialSink) noteConnErr(gen int, err error) {
	d.mu.Lock()
	if gen == d.gen && !d.closed && d.connErr == nil {
		d.connErr = err
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// pruneRingLocked drops ring entries at or below the acknowledged seq,
// moving their frame buffers to the free list.
func (d *DialSink) pruneRingLocked(acked uint64) {
	keep := 0
	for keep < len(d.ring) && d.ring[keep].seq <= acked {
		d.free = append(d.free, d.ring[keep].frame[:0])
		keep++
	}
	if keep > 0 {
		n := copy(d.ring, d.ring[keep:])
		clear(d.ring[n:])
		d.ring = d.ring[:n]
	}
}

// frameBufLocked returns an empty buffer to encode the next frame into:
// a pruned entry's buffer on a resumable sink, d.buf otherwise.
func (d *DialSink) frameBufLocked() []byte {
	if !d.resumable() {
		return d.buf[:0]
	}
	if n := len(d.free); n > 0 {
		b := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return b
	}
	return nil
}

// stageLocked keeps a freshly encoded frame: in the replay ring on a
// resumable sink, in d.buf otherwise.
func (d *DialSink) stageLocked(seq uint64, frame []byte) {
	if d.resumable() {
		d.ring = append(d.ring, ringEntry{seq: seq, frame: frame})
	} else {
		d.buf = frame
	}
}

// Send frames evs as the next batch. Events must be time-sorted and
// non-decreasing across Send calls — the same contract every local
// EventSource obeys. An empty batch is legal and serves as a heartbeat
// against the server's idle timeout. Batches are buffered; Flush or Close
// pushes them to the wire (a full buffer flushes on its own). On a
// resumable sink, Send blocks while the replay ring is full and recovers
// from connection loss transparently; an error is terminal.
func (d *DialSink) Send(evs []events.Event) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sendLocked(evs, false)
}

func (d *DialSink) sendLocked(evs []events.Event, heartbeat bool) error {
	if d.closed {
		return fmt.Errorf("ingest: send on closed sink")
	}
	// Check the size before committing, so a bad batch neither burns a
	// sequence number nor enters the replay ring.
	if len(evs) > maxBatchEvents {
		return fmt.Errorf("%w: %d events", ErrFrameTooBig, len(evs))
	}
	if d.resumable() {
		if len(d.ring) >= d.cfg.ReplayWindow {
			// The ring only drains when the server ACKs, and the server can
			// only ACK what it has seen: push any batches still sitting in
			// the write buffer before blocking on ring space.
			if err := d.flushLocked(); err != nil {
				return err
			}
		}
		for len(d.ring) >= d.cfg.ReplayWindow {
			if d.connErr != nil {
				if err := d.reconnectLocked(); err != nil {
					return err
				}
				continue
			}
			d.cond.Wait()
			if d.closed {
				return fmt.Errorf("ingest: send on closed sink")
			}
		}
	}
	d.seq++
	d.stats.LastSeq = d.seq
	d.stats.Sent++
	if heartbeat {
		d.stats.Heartbeats++
	}
	// Encode only now: the wait above releases d.mu, and a heartbeat sent
	// meanwhile takes a sequence number and a frame buffer.
	frame, _ := appendBatchFrame(d.frameBufLocked(), d.seq, evs)
	d.stageLocked(d.seq, frame)
	return d.writeFrameLocked(d.seq, frame)
}

// writeFrameLocked pushes frame (sequence seq, already in the ring when
// resumable) to the connection, resuming on failure.
func (d *DialSink) writeFrameLocked(seq uint64, frame []byte) error {
	for {
		if d.connErr != nil {
			if !d.resumable() {
				return fmt.Errorf("ingest: send batch %d: %w", seq, d.connErr)
			}
			// The reconnect replays the ring, this frame included.
			return d.reconnectLocked()
		}
		_ = d.conn.SetWriteDeadline(time.Now().Add(d.cfg.Timeout))
		if _, err := d.bw.Write(frame); err != nil {
			d.connErr = err
			if !d.resumable() {
				return fmt.Errorf("ingest: send batch %d: %w", seq, err)
			}
			continue
		}
		d.lastSend = time.Now()
		return nil
	}
}

// Flush pushes buffered batches to the wire.
func (d *DialSink) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	return d.flushLocked()
}

func (d *DialSink) flushLocked() error {
	for {
		if d.connErr != nil {
			if !d.resumable() {
				return fmt.Errorf("ingest: flush: %w", d.connErr)
			}
			// The reconnect replays and flushes everything un-ACKed,
			// which covers whatever sat in the dead writer's buffer.
			return d.reconnectLocked()
		}
		_ = d.conn.SetWriteDeadline(time.Now().Add(d.cfg.Timeout))
		if err := d.bw.Flush(); err != nil {
			d.connErr = err
			if !d.resumable() {
				return fmt.Errorf("ingest: flush: %w", err)
			}
			continue
		}
		return nil
	}
}

// reconnectLocked re-establishes the session after a connection failure:
// dial, RESUME handshake, replay of every retained frame past the
// server's reply point. Called with d.mu held — the single-producer
// discipline makes holding it through the dial acceptable (Abort may
// block for the duration of the backoff). A server rejection is terminal;
// transport errors burn the per-loss retry budget.
func (d *DialSink) reconnectLocked() error {
	cause := d.connErr
	if d.conn != nil {
		d.conn.Close()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if d.closed {
			return fmt.Errorf("ingest: sink closed during resume")
		}
		conn, err := net.DialTimeout("tcp", d.addr, d.cfg.Timeout)
		if err != nil {
			lastErr = err
		} else if rep, herr := d.handshake(conn, true, d.stats.AckedSeq); herr != nil {
			conn.Close()
			if errors.Is(herr, ErrRejected) {
				return fmt.Errorf("ingest: resume stream %q: %w (after: %v)", d.cfg.StreamID, herr, cause)
			}
			lastErr = herr
		} else {
			d.install(conn, rep)
			if rerr := d.replayLocked(); rerr == nil {
				d.stats.Resumes++
				return nil
			} else {
				lastErr = rerr // replay write failed: connection died again
			}
		}
		if attempt >= d.resumeRetries {
			return fmt.Errorf("ingest: resume stream %q (attempt %d of %d): %v (after: %w)",
				d.cfg.StreamID, attempt+1, d.resumeRetries+1, lastErr, cause)
		}
		time.Sleep(jitteredBackoff(d.cfg.ResumeBackoff, attempt))
	}
}

// replayLocked rewrites the (already pruned) ring's frames onto the
// current connection and flushes. A failure records connErr and returns
// it.
func (d *DialSink) replayLocked() error {
	for _, e := range d.ring {
		_ = d.conn.SetWriteDeadline(time.Now().Add(d.cfg.Timeout))
		if _, err := d.bw.Write(e.frame); err != nil {
			d.connErr = fmt.Errorf("ingest: replay batch %d: %w", e.seq, err)
			return d.connErr
		}
		d.stats.Replayed++
	}
	_ = d.conn.SetWriteDeadline(time.Now().Add(d.cfg.Timeout))
	if err := d.bw.Flush(); err != nil {
		d.connErr = fmt.Errorf("ingest: replay flush: %w", err)
		return d.connErr
	}
	return nil
}

// heartbeatLoop keeps a quiet connection alive: whenever nothing has been
// written for about half the heartbeat interval, it sends and flushes an
// empty batch. Failures set connErr and trigger a resume on the spot, so
// an idle sensor recovers inside the server's grace window instead of
// discovering the dead connection at its next real batch.
func (d *DialSink) heartbeatLoop() {
	defer close(d.hbDone)
	tick := time.NewTicker(d.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-d.hbStop:
			return
		case <-tick.C:
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return
		}
		quiet := time.Since(d.lastSend) >= d.cfg.Heartbeat/2
		ringFull := d.resumable() && len(d.ring) >= d.cfg.ReplayWindow && d.connErr == nil
		if quiet && !ringFull {
			if err := d.sendLocked(nil, true); err == nil {
				_ = d.flushLocked()
			}
			// A failed heartbeat left connErr set (or exhausted the resume
			// budget); the producer's next Send surfaces it.
		}
		d.mu.Unlock()
	}
}

// Close sends the clean end-of-stream frame, flushes and — unless resume
// is switched off — waits for the server to acknowledge it, so a nil
// return means the whole stream was accepted. After Close the stream is
// finished on the server.
func (d *DialSink) Close() error {
	// Stop the heartbeat first: awaitAckLocked releases d.mu, and a
	// heartbeat sent then would follow the EOF frame.
	d.stopHeartbeat()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.seq++
	eofSeq := d.seq
	d.stats.LastSeq = eofSeq
	frame := appendEOFFrame(d.frameBufLocked(), eofSeq)
	d.stageLocked(eofSeq, frame)
	err := d.writeFrameLocked(eofSeq, frame)
	if err == nil {
		err = d.flushLocked()
	}
	if err == nil && d.resumable() {
		err = d.awaitAckLocked(eofSeq)
	}
	d.closed = true
	conn := d.conn
	d.cond.Broadcast()
	d.mu.Unlock()
	cerr := conn.Close()
	if err != nil {
		return fmt.Errorf("ingest: close: %w", err)
	}
	return cerr
}

// awaitAckLocked blocks until the server has acknowledged seq (the EOF),
// riding out connection losses via resume. Bounded by cfg.Timeout.
func (d *DialSink) awaitAckLocked(seq uint64) error {
	deadline := time.Now().Add(d.cfg.Timeout)
	wake := time.AfterFunc(d.cfg.Timeout, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer wake.Stop()
	for d.stats.AckedSeq < seq {
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest: EOF unacknowledged after %v", d.cfg.Timeout)
		}
		if d.connErr != nil {
			if err := d.reconnectLocked(); err != nil {
				return err
			}
			continue
		}
		d.cond.Wait()
	}
	return nil
}

// Abort closes the connection without the EOF frame — from the server's
// point of view a mid-stream disconnect (which opens the stream's resume
// grace window). Intended for fault injection and for senders bailing out
// on an error of their own.
func (d *DialSink) Abort() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	conn := d.conn
	d.cond.Broadcast()
	d.mu.Unlock()
	d.stopHeartbeat()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

func (d *DialSink) stopHeartbeat() {
	if d.hbStop != nil {
		close(d.hbStop)
		<-d.hbDone
		d.hbStop = nil
	}
}

// Stats returns a snapshot of the sink's delivery and recovery counters.
func (d *DialSink) Stats() DialStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// breakConn severs the live connection without closing the sink — fault
// injection for tests: the next write or ACK read notices the loss and
// the sink resumes.
func (d *DialSink) breakConn() {
	d.mu.Lock()
	c := d.conn
	d.mu.Unlock()
	if c != nil {
		c.Close()
	}
}
