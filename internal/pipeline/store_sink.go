package pipeline

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"ebbiot/internal/store"
)

// StoreSink persists every snapshot into an embedded store.Writer, giving
// a run a durable, queryable record. It honours the Runner's determinism
// contract the same way the in-process sinks do: Append fully serialises
// the snapshot (boxes included, already deep-copied by the worker) before
// returning, so nothing the workers recycle is ever aliased by the store.
//
// The Runner flushes the sink when the run ends (StoreSink implements
// Flusher via Writer.Sync); the caller still owns the Writer and must
// Close it to seal the final segment.
type StoreSink struct {
	w *store.Writer
}

// NewStoreSink wraps an open store.Writer.
func NewStoreSink(w *store.Writer) *StoreSink { return &StoreSink{w: w} }

// Consume implements Sink.
func (s *StoreSink) Consume(snap TrackSnapshot) error {
	if err := s.w.Append(snap); err != nil {
		return fmt.Errorf("pipeline: store sink: %w", err)
	}
	return nil
}

// Flush implements Flusher: buffered records are flushed and fsynced.
func (s *StoreSink) Flush() error { return s.w.Sync() }

// ReplayOptions parameterises ReplayStoreWith.
type ReplayOptions struct {
	// Run selects which recorded run to replay; 0 means the directory's
	// sole run and fails with store.ErrMultipleRuns when several are
	// present (see store.Reader.Runs for the listing).
	Run uint64
	// Sensors selects the sensors to merge; nil or empty replays all.
	Sensors []int
	// T0, T1 bound the window-overlap query [T0, T1); T1 <= 0 means no
	// upper bound.
	T0, T1 int64
	// Speed, when positive, paces the replay at recorded wall-clock speed
	// times Speed: each snapshot is withheld until its recorded EndUS has
	// elapsed relative to the first snapshot's. 0 replays at full speed.
	Speed float64
	// Status, when non-nil, receives live per-sensor progress — the same
	// observation surface a live Runner publishes, so the control plane's
	// HTTP server can monitor a replay exactly like a live run. When nil,
	// nothing is published live: the replay only counts the totals it
	// returns.
	Status *RunStatus
}

// ReplayStoreWith is the offline counterpart of Runner.Run: it feeds a
// stored run back through any Sink, so recorded deployments can be
// re-evaluated — re-summarised through a TraceSink, re-exported as
// CSV/JSON, or piped into new analysis code — without touching the
// original sensors. It is also the per-sensor query: with one sensor in
// opts.Sensors it yields what that sensor saw in [T0, T1).
//
// Snapshots arrive on the calling goroutine in the store's replay order:
// globally non-decreasing EndUS, per-sensor in frame order — the same
// per-stream ordering contract a live Runner gives its sink. opts.Run 0
// replays the store's sole run (store.ErrMultipleRuns when the directory
// holds several). Like Runner.Run, ReplayStoreWith flushes the sink before
// returning and reports the first error from the store, the sink, the
// flush or ctx.
//
// Only a monitored replay (opts.Status non-nil) publishes live progress
// and times the sink, so Stats.SinkTime is measured for it alone and is
// zero otherwise; the other totals are the same either way.
func ReplayStoreWith(ctx context.Context, r *store.Reader, sink Sink, opts ReplayOptions) (Stats, error) {
	t1 := opts.T1
	if t1 <= 0 {
		t1 = math.MaxInt64
	}
	it, err := r.Replay(opts.Run, opts.Sensors, opts.T0, t1)
	if err != nil {
		return Stats{}, fmt.Errorf("pipeline: replay: %w", err)
	}
	return drainStore(ctx, it, sink, opts)
}

// replayStream is one sensor seen by a replay: its live status (nil when
// the replay is unmonitored) and the window span last published as its tF.
type replayStream struct {
	sensor  int
	ss      *StreamStatus
	frameUS int64
}

// drainStore pumps a store iterator into a sink, mirroring Runner.Run's
// consumer-side contract: one Consume at a time, sink flushed at the end,
// first error wins. With opts.Speed > 0 delivery is paced on the recorded
// EndUS clock. With opts.Status non-nil per-sensor progress is published
// live, each sensor's StreamStatus resolved once, and every Consume timed;
// without it the totals are counted locally and a record costs no shared
// state, atomic or clock read.
func drainStore(ctx context.Context, it store.Iterator, sink Sink, opts ReplayOptions) (Stats, error) {
	defer it.Close()
	start := time.Now()
	status := opts.Status
	pace := pacer{speed: opts.Speed}
	stats := Stats{Workers: 1}
	streams := make(map[int]*replayStream)
	var (
		cur      *replayStream
		firstErr error
	)
	for {
		if err := ctx.Err(); err != nil {
			firstErr = err
			break
		}
		snap, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			firstErr = fmt.Errorf("pipeline: replay: %w", err)
			break
		}
		if opts.Speed > 0 {
			pace.wait(snap.EndUS, ctx.Done())
		}
		stats.Windows++
		stats.Events += int64(snap.Events)
		stats.Boxes += int64(len(snap.Boxes))
		// Runs of records from one sensor (a whole one-sensor replay) skip
		// the map lookup.
		if cur == nil || cur.sensor != snap.Sensor {
			cur = streams[snap.Sensor]
			if cur == nil {
				cur = &replayStream{sensor: snap.Sensor}
				streams[snap.Sensor] = cur
				if status != nil {
					cur.ss = status.Register(snap.Sensor, snap.Name)
					cur.ss.setState(StreamRunning)
				}
			}
		}
		if status != nil {
			cur.ss.record(snap)
			// The recorded window span is the stream's tF, so monitored
			// replays report a real frame_us like live runs do.
			if span := snap.EndUS - snap.StartUS; span != cur.frameUS {
				cur.frameUS = span
				cur.ss.setTuning(span, 0)
			}
		}
		if sink == nil {
			continue
		}
		if status == nil {
			err = sink.Consume(snap)
		} else {
			t0 := time.Now()
			err = sink.Consume(snap)
			d := time.Since(t0)
			stats.SinkTime += d
			status.addSinkTime(d)
		}
		if err != nil {
			firstErr = fmt.Errorf("pipeline: sink: %w", err)
			break
		}
	}
	if err := flushSink(sink); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("pipeline: sink flush: %w", err)
	}
	if status != nil {
		final := StreamDone
		if firstErr != nil {
			final = StreamCanceled
		}
		for _, rs := range streams {
			rs.ss.setState(final)
		}
		status.finish(firstErr)
	}
	stats.Streams = len(streams)
	stats.Elapsed = time.Since(start)
	return stats, firstErr
}
