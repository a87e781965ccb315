// Package store is the embedded, crash-tolerant persistence backend for
// pipeline TrackSnapshots: a segmented append-only binary log with
// checksummed framing, a per-segment sparse time index, and a query API
// that can answer "what did sensor k see between t0 and t1?" long after
// the run that produced the data has exited.
//
// On disk a store is a directory of numbered segment files
// (seg-00000001.log, ...). Each segment starts with an 8-byte header and
// then holds length+CRC32-framed snapshot records; a sidecar sparse index
// (seg-00000001.idx) caches the segment's record count, time bounds,
// sensor set and every IndexEvery-th record offset so queries can skip
// cold data. Indexes are pure caches — a missing, stale or corrupt index
// is silently rebuilt by scanning its segment. The full format is
// specified in docs/STORE.md.
//
// Durability follows the classic write-ahead-log contract: records become
// durable at the configured fsync cadence (Options.SyncEvery), and after a
// crash the tail of the last segment may hold one torn or corrupt record.
// Recovery — performed both by Open (which physically truncates the tail)
// and by OpenReader (which ignores it) — drops only that invalid suffix;
// every record before it is preserved bit-for-bit.
//
// Writers and readers are independent: a Reader opens a point-in-time view
// of whatever prefix of the log is on disk and never blocks a live Writer.
// Every query is a Replay(run, sensors, t0, t1): it merges any set of
// sensors into a single stream ordered by (EndUS, Sensor, Frame) across
// segment boundaries, and with one sensor it yields that sensor's
// snapshots in frame order.
package store

import (
	"errors"
	"fmt"

	"ebbiot/internal/geometry"
)

// Snapshot is one window's tracking result from one sensor stream: the
// frame clock position plus the tracker's reported boxes. It is the one
// record from worker to disk — pipeline.TrackSnapshot is an alias of it —
// so the pipeline's sinks, this store and a replay pass it on unconverted;
// its JSON tags define the pipeline's JSON Lines output.
type Snapshot struct {
	// Sensor is the stream index (must be >= 0), the stream's place in the
	// Runner's stream list; Name is its label ("sensor3" when unset).
	Sensor int    `json:"sensor"`
	Name   string `json:"name"`
	// Frame is the window index; the window spans [StartUS, EndUS) in
	// stream time.
	Frame   int   `json:"frame"`
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
	// Events is the number of events consumed in the window.
	Events int `json:"events"`
	// ProcUS is the wall-clock time the window's processing took, in
	// microseconds — the active slice of the paper's duty cycle.
	ProcUS int64 `json:"proc_us"`
	// Boxes are the reported track boxes at the window end.
	Boxes []geometry.Box `json:"boxes"`
}

// Options parameterise a Writer. The zero value selects the defaults.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size (default DefaultSegmentBytes). Rotation seals the segment:
	// its data is fsynced and its sidecar index written.
	SegmentBytes int64
	// SyncEvery is the fsync cadence: n >= 1 flushes and fsyncs the data
	// file after every n-th append; 0 (the default) fsyncs only on segment
	// rotation and Close, leaving intermediate durability to the OS.
	SyncEvery int
	// IndexEvery is the sparse index stride: one index entry per
	// IndexEvery records (default DefaultIndexEvery). Smaller strides make
	// time-bounded queries seek more precisely at the cost of index size.
	IndexEvery int
	// Retention bounds the directory's size and age (see RetentionPolicy).
	// The zero value keeps everything. The active writer's policy governs
	// the whole directory: it is recorded in the run manifest and applied
	// at every rotation and at Close, expiring whole sealed segments
	// (oldest first, across all runs) into tombstones.
	Retention RetentionPolicy
	// ParamsHash commits the pipeline parameter set that produced the run
	// into its manifest, so a replayed run can be matched to its exact
	// configuration. Zero means "not recorded".
	ParamsHash [32]byte
}

// Defaults for Options fields left zero.
const (
	DefaultSegmentBytes = 64 << 20
	DefaultIndexEvery   = 64
)

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SyncEvery < 0 {
		o.SyncEvery = 0
	}
	if o.IndexEvery <= 0 {
		o.IndexEvery = DefaultIndexEvery
	}
	return o
}

// ErrCorrupt reports bytes that failed framing, checksum or decode
// validation inside a region the store committed to. Corruption at the
// tail of an unfinalized run's last segment is not an error — it is
// recovered by truncation. Most corruption surfaces as a *CorruptionError
// wrapping this sentinel, so errors.Is(err, ErrCorrupt) classifies it.
var ErrCorrupt = errors.New("store: corrupt record")

// ErrClosed reports use of a closed Writer.
var ErrClosed = errors.New("store: writer closed")

// ErrMultipleRuns reports a Replay or Prove with run selector 0 ("the
// sole run") against a directory holding more than one run. Interleaving
// runs into one timeline would be garbage — each run restarts the frame
// clock — so the caller must pick a run (see Reader.Runs).
var ErrMultipleRuns = errors.New("store: directory holds multiple runs; select one")

// CorruptionError pinpoints post-seal damage: the segment and byte offset
// at which validation first failed. It unwraps to ErrCorrupt. Readers
// serve the valid prefix before returning it — damage is reported, never
// silently skipped.
type CorruptionError struct {
	Segment int
	Offset  int64
	Detail  string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("store: corrupt record: %s at offset %d: %s", segmentName(e.Segment), e.Offset, e.Detail)
}

func (e *CorruptionError) Unwrap() error { return ErrCorrupt }

// Iterator yields stored snapshots until io.EOF. Iterators are
// single-goroutine; Close releases the underlying file handles and is safe
// to call more than once.
type Iterator interface {
	Next() (Snapshot, error)
	Close() error
}

// validate rejects snapshots the on-disk encoding cannot represent.
func (s *Snapshot) validate() error {
	if s.Sensor < 0 || int64(s.Sensor) > int64(^uint32(0)) {
		return fmt.Errorf("store: sensor %d out of range", s.Sensor)
	}
	if s.Frame < 0 || int64(s.Frame) > int64(^uint32(0)) {
		return fmt.Errorf("store: frame %d out of range", s.Frame)
	}
	if s.Events < 0 || int64(s.Events) > int64(^uint32(0)) {
		return fmt.Errorf("store: event count %d out of range", s.Events)
	}
	if len(s.Name) > maxNameLen {
		return fmt.Errorf("store: name length %d exceeds %d", len(s.Name), maxNameLen)
	}
	return nil
}
