package ingest

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"ebbiot/internal/events"
	"ebbiot/internal/pipeline"
)

// DropPolicy selects what a full per-stream queue does with the next
// incoming batch.
type DropPolicy int

const (
	// Block stops reading from the connection until the consumer drains a
	// batch — backpressure propagates to the sender through TCP flow
	// control. No events are lost; a persistently slow consumer slows the
	// camera down.
	Block DropPolicy = iota
	// DropOldest evicts the oldest queued batch to admit the new one: the
	// stream stays current at the cost of a gap in the past. Best for live
	// tracking, where stale windows are worthless.
	DropOldest
	// DropNewest discards the incoming batch and keeps the queue as is:
	// the already-buffered prefix is preserved contiguously. Best when a
	// complete prefix matters more than freshness.
	DropNewest
)

// String implements fmt.Stringer.
func (p DropPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	default:
		return fmt.Sprintf("DropPolicy(%d)", int(p))
	}
}

// ParseDropPolicy parses the CLI spelling of a policy.
func ParseDropPolicy(s string) (DropPolicy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop-oldest":
		return DropOldest, nil
	case "drop-newest":
		return DropNewest, nil
	default:
		return 0, fmt.Errorf("ingest: unknown drop policy %q (want block, drop-oldest or drop-newest)", s)
	}
}

// NetSourceConfig parameterises a NetSource.
type NetSourceConfig struct {
	// QueueBatches bounds the decoded-batch queue; 0 means 64.
	QueueBatches int
	// Policy is the full-queue behaviour; the zero value is Block.
	Policy DropPolicy
	// FailFast makes a mid-stream fault (torn frame, stalled or dropped
	// connection, protocol violation) surface as an error from NextWindow
	// — failing the stream, and with it the run — once the already-queued
	// batches are drained. The default (false) is fault-tolerant: the
	// fault is counted, recorded in SourceStats.LastError and the stream
	// ends as if the sensor had cleanly finished, so one bad camera never
	// takes down a fleet's run.
	FailFast bool
}

// batchPool recycles batch buffers across every connection and stream in
// the process: Server.serveConn decodes each batch into one, offer takes
// ownership, and the NetSource returns it once the batch is delivered or
// shed. It holds *[]events.Event so that Put does not allocate; hdrPool
// recycles those pointers between a getBatch and the next putBatch.
var batchPool, hdrPool sync.Pool

// getBatch returns an empty pooled batch buffer, or nil when the pool is
// empty (the decoder then allocates one).
func getBatch() []events.Event {
	p, _ := batchPool.Get().(*[]events.Event)
	if p == nil {
		return nil
	}
	evs := *p
	*p = nil
	hdrPool.Put(p)
	return evs
}

// putBatch returns a buffer to batchPool. The caller must hold no other
// reference to it.
func putBatch(evs []events.Event) {
	if cap(evs) == 0 {
		return
	}
	p, _ := hdrPool.Get().(*[]events.Event)
	if p == nil {
		p = new([]events.Event)
	}
	*p = evs[:0]
	batchPool.Put(p)
}

// NetSource adapts one sensor connection to pipeline.EventSource. The
// producing side (Server's per-connection read loop, or tests) pushes
// decoded batches through offer/finish/fail; the consuming side is the
// pipeline worker calling NextWindow, which blocks until enough of the
// stream has arrived to close out the requested window.
//
// NetSource implements pipeline.SourceMeter, so its counters flow into
// StreamStatus, /streams/{id} and /metrics automatically.
type NetSource struct {
	cfg NetSourceConfig

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds accepted batches awaiting the consumer. The NetSource
	// owns their buffers.
	queue [][]events.Event
	// pending is the head batch, popped from the queue; its first
	// delivered events have been copied to the consumer already.
	pending   []events.Event
	delivered int
	// closed: no more batches will ever arrive (clean EOF, fault, abort).
	closed bool
	// failErr is the terminal fault, surfaced by NextWindow iff FailFast.
	failErr error
	// lastSeq is the highest accepted batch sequence number.
	lastSeq uint64
	// lastT is the last accepted event timestamp, for cross-batch order
	// enforcement.
	lastT int64
	// epoch is the session epoch whose connection may offer batches.
	epoch uint64

	stats pipeline.SourceStats
}

// NewNetSource returns an unconnected source: NextWindow blocks until a
// producer attaches and feeds it. Server creates one per expected stream;
// tests may drive offer/finish/fail directly.
func NewNetSource(cfg NetSourceConfig) *NetSource {
	if cfg.QueueBatches <= 0 {
		cfg.QueueBatches = 64
	}
	n := &NetSource{cfg: cfg}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// setConnected flips the connection-liveness gauge.
func (n *NetSource) setConnected(up bool) {
	n.mu.Lock()
	n.stats.Connected = up
	n.mu.Unlock()
}

// setResumable flips the grace-window gauge: a disconnected session that
// may still be resumed.
func (n *NetSource) setResumable(v bool) {
	n.mu.Lock()
	n.stats.Resumable = v
	n.mu.Unlock()
}

// claim hands the stream to the connection of session epoch e and returns
// the resume point: the highest accepted sequence number. Both happen under
// one lock, so a superseded connection's frame loop can no longer offer a
// batch it decoded before the takeover; the client replays it instead, and
// nothing is delivered twice.
func (n *NetSource) claim(e uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch = e
	n.stats.Epoch = int64(e)
	return n.lastSeq
}

// noteResume counts one accepted session resume.
func (n *NetSource) noteResume() {
	n.mu.Lock()
	n.stats.Resumes++
	n.mu.Unlock()
}

// LastSeq returns the highest accepted batch sequence number — the
// resume point a reconnecting client replays past.
func (n *NetSource) LastSeq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastSeq
}

// primeSeq advances the sequence floor without counting gaps, used when a
// resume point beyond the source's own high-water mark is negotiated (a
// client resuming into a restarted server): batches at or below the floor
// are dups, the first fresh one is not a gap.
func (n *NetSource) primeSeq(seq uint64) {
	n.mu.Lock()
	if seq > n.lastSeq {
		n.lastSeq = seq
	}
	n.mu.Unlock()
}

// errSuperseded is offer's refusal of a batch from a connection whose
// session a resume has taken over.
var errSuperseded = errors.New("ingest: connection superseded by a resumed session")

// offer hands one decoded batch from the connection of session epoch to
// the stream. It enforces the sequence discipline (duplicates and
// reordered batches are dropped and counted, gaps are counted) and
// cross-batch timestamp order, then queues the batch under the configured
// policy. Block policy blocks the caller — that is the backpressure path.
// The returned error is a protocol violation the caller should treat as a
// stream fault; offer on a closed source returns io.ErrClosedPipe, and
// from a superseded epoch errSuperseded.
//
// offer owns evs from the call on: a batch it does not queue goes back to
// batchPool at once, a queued one once delivered or shed.
func (n *NetSource) offer(epoch, seq uint64, evs []events.Event) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	queued, err := n.admit(epoch, seq, evs)
	if !queued {
		putBatch(evs)
	}
	return err
}

// admit is offer under n.mu; it reports whether evs was queued.
func (n *NetSource) admit(epoch, seq uint64, evs []events.Event) (bool, error) {
	if n.closed {
		return false, io.ErrClosedPipe
	}
	if epoch != n.epoch {
		return false, errSuperseded
	}
	if seq <= n.lastSeq {
		// Duplicate or reordered batch: already delivered (or superseded)
		// territory. Dropping it keeps the consumed stream time-sorted.
		n.stats.DupBatches++
		n.stats.DupEvents += int64(len(evs))
		return false, nil
	}
	if seq > n.lastSeq+1 {
		n.stats.SeqGaps += int64(seq - n.lastSeq - 1)
	}
	if len(evs) > 0 && evs[0].T < n.lastT {
		return false, fmt.Errorf("%w: batch %d starts at t=%d before t=%d: %v",
			ErrBadFrame, seq, evs[0].T, n.lastT, events.ErrUnsorted)
	}
	n.lastSeq = seq
	n.stats.Batches++
	n.stats.Events += int64(len(evs))
	if len(evs) == 0 {
		return false, nil // heartbeat: sequence advanced, nothing to queue
	}
	n.lastT = evs[len(evs)-1].T
	for len(n.queue) >= n.cfg.QueueBatches {
		switch n.cfg.Policy {
		case DropOldest:
			old := n.popQueue()
			n.stats.DroppedBatches++
			n.stats.DroppedEvents += int64(len(old))
			putBatch(old)
		case DropNewest:
			n.stats.DroppedBatches++
			n.stats.DroppedEvents += int64(len(evs))
			return false, nil
		default: // Block
			n.cond.Wait()
			if n.closed {
				return false, io.ErrClosedPipe
			}
		}
	}
	n.queue = append(n.queue, evs)
	n.cond.Broadcast()
	return true, nil
}

// popQueue removes and returns the oldest queued batch.
func (n *NetSource) popQueue() []events.Event {
	b := n.queue[0]
	copy(n.queue, n.queue[1:])
	n.queue[len(n.queue)-1] = nil
	n.queue = n.queue[:len(n.queue)-1]
	return b
}

// finish marks a clean end of stream: queued batches remain consumable,
// then NextWindow reports io.EOF.
func (n *NetSource) finish() {
	n.mu.Lock()
	n.closed = true
	n.stats.Connected = false
	n.cond.Broadcast()
	n.mu.Unlock()
}

// fail records a mid-stream fault and ends the stream. Under FailFast the
// error surfaces from NextWindow once the queue drains; otherwise it is
// counted and the stream ends like a clean EOF.
func (n *NetSource) fail(err error) {
	n.mu.Lock()
	if !n.closed {
		n.closed = true
		n.stats.Connected = false
		n.stats.Faults++
		if err != nil {
			n.stats.LastError = err.Error()
			if n.failErr == nil {
				n.failErr = err
			}
		}
	}
	n.cond.Broadcast()
	n.mu.Unlock()
}

// SourceStats implements pipeline.SourceMeter.
func (n *NetSource) SourceStats() pipeline.SourceStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.stats
	st.QueuedBatches = int64(len(n.queue))
	return st
}

// NextWindow implements pipeline.EventSource. It appends the stream's
// events in [start, end) to buf, blocking until an event at or past end
// (or the end of the stream) proves the window complete — on a live
// connection this is what paces the pipeline to sensor time. Events are
// copied once, from the head batch straight into buf; a drained head
// batch goes back to batchPool.
func (n *NetSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		// Deliver the head batch's undelivered prefix below end. The
		// decoder keeps each batch sorted and offer keeps batches in
		// order, so a binary search finds the cut.
		rest := n.pending[n.delivered:]
		cut := sort.Search(len(rest), func(i int) bool { return rest[i].T >= end })
		buf = append(buf, rest[:cut]...)
		n.delivered += cut
		if cut < len(rest) {
			// An event at or beyond end proves the window complete.
			return buf, nil
		}
		putBatch(n.pending)
		n.pending, n.delivered = nil, 0
		if len(n.queue) > 0 {
			n.pending = n.popQueue()
			n.cond.Broadcast() // a Block-policy producer may be waiting
			continue
		}
		if n.closed {
			if n.failErr != nil && n.cfg.FailFast {
				return buf, fmt.Errorf("ingest: stream fault: %w", n.failErr)
			}
			return buf, io.EOF
		}
		n.cond.Wait()
	}
}
