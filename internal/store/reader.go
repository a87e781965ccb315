package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Reader is a point-in-time view of a store directory: run manifests,
// segment lists and per-segment metadata are captured at OpenReader.
// Records appended after that (by a live Writer) are not visible; reopen
// to see them. A Reader is safe for concurrent use — each Replay iterator
// owns its file handles.
//
// A directory holds any number of runs (one per Writer Open), each
// described by its manifest. Replay and Prove take a run selector:
// 0 means "the sole run" and fails with ErrMultipleRuns when several are
// present; any other value names a run listed by Runs. Segments no valid
// manifest claims are grouped as a synthetic legacy run with ID 0: those of
// a store written before manifests existed, and those of a run whose
// manifest fails its CRC, which stay readable that way while
// ManifestProblems and Verify report the damage.
type Reader struct {
	dir              string
	runs             []readerRun
	manifestProblems []string
	indexFallbacks   int
}

type readerRun struct {
	info RunInfo
	man  *manifest // nil for the legacy group
	segs []readerSeg
}

type readerSeg struct {
	n       int
	path    string
	meta    *segMeta
	dropped int64
	// corrupt, when non-nil, is post-seal damage detected against the
	// manifest: reads serve the segment's valid prefix and then return it
	// — damage is reported, never silently skipped.
	corrupt error
}

// RunInfo describes one run in the directory.
type RunInfo struct {
	ID uint64
	// Legacy marks the synthetic group of segments no valid manifest
	// claims (a pre-manifest store, or a run whose manifest fails its
	// CRC): readable, but with no manifest to verify against.
	Legacy bool
	// Finalized runs are immutable; Recovered ones were finalized by
	// crash recovery rather than a clean Close.
	Finalized bool
	Recovered bool
	// Wall-clock span of the recording (microseconds since the epoch).
	StartWallUS int64
	EndWallUS   int64
	// ParamsHash is the pipeline parameter-set hash recorded at Open
	// (zero if not recorded).
	ParamsHash [32]byte
	Retention  RetentionPolicy
	Sensors    []int
	// Segments and Records count live (readable) data; Tombstones counts
	// segments expired by retention, whose Merkle roots remain in the
	// manifest chain.
	Segments   int
	Tombstones int
	Records    int64
	DataBytes  int64
	// MinEndUS/MaxEndUS bound the live records' window end timestamps
	// (valid only when Records > 0).
	MinEndUS int64
	MaxEndUS int64
}

// Stats summarises what a Reader can see across all runs.
type Stats struct {
	Runs     int
	Segments int
	// Tombstones counts retention-expired segments across all runs.
	Tombstones int
	Records    int64
	// DataBytes counts valid record bytes including per-segment headers;
	// DroppedBytes counts invalid tail bytes ignored during recovery.
	DataBytes    int64
	DroppedBytes int64
	// MinEndUS/MaxEndUS bound the stored window end timestamps (valid only
	// when Records > 0).
	MinEndUS int64
	MaxEndUS int64
}

// OpenReader captures a consistent view of the store in dir. Sidecar
// indexes are used when present and valid; a corrupt or truncated index
// degrades to a full segment scan (correct results, counted by
// IndexFallbacks), never a wrong seek. Sealed segments are checked
// against their manifest entries: a size or record-count mismatch marks
// the segment corrupt, and reads of it serve the valid prefix before
// reporting a *CorruptionError.
func OpenReader(dir string) (*Reader, error) {
	mans, problems, err := loadManifests(dir)
	if err != nil {
		return nil, err
	}
	segsOnDisk, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{dir: dir, manifestProblems: problems}
	claimed := make(map[int]bool)
	for _, m := range mans {
		run := readerRun{man: m}
		run.info = RunInfo{
			ID:          m.RunID,
			Finalized:   m.finalized(),
			Recovered:   m.recovered(),
			StartWallUS: m.StartWallUS,
			EndWallUS:   m.EndWallUS,
			ParamsHash:  m.ParamsHash,
			Retention:   m.Retention,
			Sensors:     append([]int(nil), m.Sensors...),
		}
		for i := range m.Segments {
			e := &m.Segments[i]
			claimed[e.Seg] = true
			switch e.State {
			case segExpired:
				run.info.Tombstones++
				continue
			case segSealed:
				seg, err := r.loadSealedSeg(e)
				if err != nil {
					return nil, err
				}
				run.addSeg(seg)
			case segOpen:
				// Unfinalized tail (live writer or not-yet-recovered
				// crash): the torn tail, if any, is recoverable and
				// tolerated, not corruption.
				meta, dropped, fellBack, err := loadSegMeta(dir, e.Seg, DefaultIndexEvery)
				if err != nil {
					if errors.Is(err, fs.ErrNotExist) {
						continue // claimed before creation; crash window
					}
					return nil, err
				}
				if fellBack {
					r.indexFallbacks++
				}
				run.addSeg(readerSeg{n: e.Seg, path: filepath.Join(dir, segmentName(e.Seg)), meta: meta, dropped: dropped})
			}
		}
		r.runs = append(r.runs, run)
	}
	// Segments no valid manifest claims form the legacy group (pre-manifest
	// stores, or segments stranded by an unparseable manifest). The second
	// is why the group stays: it is the recovery path for a manifest that
	// fails its CRC, whose records stay readable here.
	var legacy readerRun
	legacy.info = RunInfo{ID: 0, Legacy: true, Finalized: true}
	for _, n := range segsOnDisk {
		if claimed[n] {
			continue
		}
		meta, dropped, fellBack, err := loadSegMeta(dir, n, DefaultIndexEvery)
		if err != nil {
			return nil, err
		}
		if fellBack {
			r.indexFallbacks++
		}
		legacy.addSeg(readerSeg{n: n, path: filepath.Join(dir, segmentName(n)), meta: meta, dropped: dropped})
	}
	if len(legacy.segs) > 0 {
		sensors := make(map[int]struct{})
		for _, s := range legacy.segs {
			for id := range s.meta.Sensors {
				sensors[id] = struct{}{}
			}
		}
		for id := range sensors {
			legacy.info.Sensors = append(legacy.info.Sensors, id)
		}
		sort.Ints(legacy.info.Sensors)
		r.runs = append(r.runs, legacy)
	}
	sort.Slice(r.runs, func(i, j int) bool { return r.runs[i].info.ID < r.runs[j].info.ID })
	return r, nil
}

// addSeg appends seg to the run, folding it into the run's aggregates.
func (run *readerRun) addSeg(seg readerSeg) {
	run.segs = append(run.segs, seg)
	run.info.Segments++
	run.info.DataBytes += seg.meta.DataBytes
	if seg.meta.Records > 0 {
		if run.info.Records == 0 || seg.meta.MinEndUS < run.info.MinEndUS {
			run.info.MinEndUS = seg.meta.MinEndUS
		}
		if run.info.Records == 0 || seg.meta.MaxEndUS > run.info.MaxEndUS {
			run.info.MaxEndUS = seg.meta.MaxEndUS
		}
		run.info.Records += seg.meta.Records
	}
}

// loadSealedSeg loads a sealed segment's metadata and cross-checks it
// against the manifest entry — the CRC-protected, chain-committed
// authority on what the segment must hold.
func (r *Reader) loadSealedSeg(e *manifestSeg) (readerSeg, error) {
	seg := readerSeg{n: e.Seg, path: filepath.Join(r.dir, segmentName(e.Seg))}
	if _, err := os.Stat(filepath.Join(r.dir, indexName(e.Seg))); errors.Is(err, fs.ErrNotExist) {
		// A sealed segment's sidecar should exist; scanning instead is the
		// degraded path.
		r.indexFallbacks++
	}
	meta, dropped, fellBack, err := loadSegMeta(r.dir, e.Seg, DefaultIndexEvery)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			seg.meta = newSegMeta()
			seg.meta.DataBytes = 0
			seg.corrupt = &CorruptionError{Segment: e.Seg, Offset: 0, Detail: "sealed segment file missing"}
			return seg, nil
		}
		return seg, err
	}
	if fellBack {
		r.indexFallbacks++
	}
	seg.meta, seg.dropped = meta, dropped
	switch {
	case dropped > 0:
		seg.corrupt = &CorruptionError{Segment: e.Seg, Offset: meta.DataBytes,
			Detail: fmt.Sprintf("%d invalid bytes in sealed segment", dropped)}
	case meta.DataBytes != e.DataBytes || meta.Records != e.Records:
		off := meta.DataBytes
		if e.DataBytes < off {
			off = e.DataBytes
		}
		seg.corrupt = &CorruptionError{Segment: e.Seg, Offset: off,
			Detail: fmt.Sprintf("sealed segment holds %d records / %d bytes, manifest committed %d / %d",
				meta.Records, meta.DataBytes, e.Records, e.DataBytes)}
	}
	return seg, nil
}

// Runs lists the directory's runs, ascending by ID (the legacy group, if
// any, is ID 0 and sorts first).
func (r *Reader) Runs() []RunInfo {
	out := make([]RunInfo, len(r.runs))
	for i := range r.runs {
		out[i] = r.runs[i].info
	}
	return out
}

// IndexFallbacks reports how many segments had to be fully scanned
// because their sidecar index was missing (sealed segments), corrupt or
// truncated — the degraded-but-correct path.
func (r *Reader) IndexFallbacks() int { return r.indexFallbacks }

// ManifestProblems lists run manifests that failed to parse (their
// segments appear under the legacy group).
func (r *Reader) ManifestProblems() []string { return r.manifestProblems }

// Stats aggregates the per-segment metadata across all runs.
func (r *Reader) Stats() Stats {
	var st Stats
	st.Runs = len(r.runs)
	for _, run := range r.runs {
		st.Tombstones += run.info.Tombstones
		for _, s := range run.segs {
			st.Segments++
			st.DataBytes += s.meta.DataBytes
			st.DroppedBytes += s.dropped
			if s.meta.Records == 0 {
				continue
			}
			if st.Records == 0 || s.meta.MinEndUS < st.MinEndUS {
				st.MinEndUS = s.meta.MinEndUS
			}
			if st.Records == 0 || s.meta.MaxEndUS > st.MaxEndUS {
				st.MaxEndUS = s.meta.MaxEndUS
			}
			st.Records += s.meta.Records
		}
	}
	return st
}

// selectRun resolves a run selector. 0 selects the directory's sole run
// (nil segs on an empty store) and returns ErrMultipleRuns when several
// are present; anything else must match a listed run ID.
func (r *Reader) selectRun(id uint64) (*readerRun, error) {
	if id == 0 {
		switch len(r.runs) {
		case 0:
			return nil, nil
		case 1:
			return &r.runs[0], nil
		default:
			return nil, fmt.Errorf("%w (%d runs; pass a run ID from Runs)", ErrMultipleRuns, len(r.runs))
		}
	}
	for i := range r.runs {
		if r.runs[i].info.ID == id && !r.runs[i].info.Legacy {
			return &r.runs[i], nil
		}
	}
	return nil, fmt.Errorf("store: unknown run %d", id)
}

// segStream sequentially streams checksum-verified record payloads from
// the segments a replay selected: cold prefixes are seeked past via the
// sparse index, and each surviving byte is read exactly once. The counters
// feed ReplayStats.
type segStream struct {
	segs []readerSeg
	t0   int64

	segIdx    int // next segment to open
	cur       readerSeg
	f         *os.File
	fr        frameReader
	opened    int64
	bytesRead int64
}

// next returns the next record payload in chain order, or io.EOF when the
// chain is exhausted. The slice is the stream's scratch buffer, valid
// until the following call. A frame failing validation inside a segment's
// valid region is a *CorruptionError naming the segment and the frame's
// file offset.
func (s *segStream) next() ([]byte, error) {
	for {
		if s.f == nil {
			ok, err := s.openNextSegment()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, io.EOF
			}
		}
		off := s.fr.off
		payload, err := s.fr.next()
		if err == nil {
			s.bytesRead += s.fr.off - off
			return payload, nil
		}
		if fault, ok := err.(frameFault); ok {
			return nil, &CorruptionError{Segment: s.cur.n, Offset: off, Detail: string(fault)}
		}
		if err != errSegmentEnd {
			return nil, fmt.Errorf("store: read: %w", err)
		}
		// Valid prefix fully served; report any post-seal damage the
		// Reader detected before moving on.
		corrupt := s.cur.corrupt
		s.close()
		if corrupt != nil {
			return nil, corrupt
		}
	}
}

// openNextSegment advances to the next segment and seeks past records the
// index proves cannot match. Returns false when none remain. A segment
// deleted since OpenReader captured the view is skipped (the view is
// best-effort under concurrent retention); any other I/O failure —
// permissions, disk errors — is surfaced rather than silently dropping a
// whole segment from the results.
func (s *segStream) openNextSegment() (bool, error) {
	for s.segIdx < len(s.segs) {
		seg := s.segs[s.segIdx]
		s.segIdx++
		f, err := os.Open(seg.path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				if seg.corrupt != nil {
					return false, seg.corrupt
				}
				continue
			}
			return false, fmt.Errorf("store: %w", err)
		}
		off := seg.meta.seekOffset(s.t0)
		if _, err := f.Seek(off, 0); err != nil {
			f.Close()
			return false, fmt.Errorf("store: seek %s: %w", seg.path, err)
		}
		s.cur = seg
		s.f = f
		// One read buffer serves every segment of the replay.
		if s.fr.br == nil {
			s.fr.br = bufio.NewReaderSize(f, 1<<16)
		} else {
			s.fr.br.Reset(f)
		}
		s.fr.off, s.fr.end = off, seg.meta.DataBytes
		s.opened++
		return true, nil
	}
	return false, nil
}

func (s *segStream) close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// Replay returns an iterator merging the given sensors' snapshots from
// one run in (EndUS, Sensor, Frame) order across all its segments — the
// canonical replay order: globally non-decreasing in time, per-sensor in
// frame order, and deterministic for any on-disk interleaving. Only
// windows overlapping [t0, t1) — StartUS < t1 && EndUS > t0 — are
// yielded; use t0 = 0, t1 = math.MaxInt64 for everything. run 0 selects
// the sole run and fails with ErrMultipleRuns when the directory holds
// several — interleaving runs into one timeline would be garbage, since
// each run restarts the frame clock. A nil or empty sensor list replays
// every sensor in the run.
//
// A one-sensor replay is the store's per-sensor query ("what did sensor k
// see between t0 and t1?"): it yields that sensor's records in frame
// order. Segments whose metadata shows no wanted sensor, or no record
// ending after t0, are never opened, and the sparse index seeks past each
// opened segment's cold prefix. A sensor's windows start in order, so the
// first of its records starting at or after t1 ends its part of the query,
// and the replay stops reading once every selected sensor's part has ended.
//
// The merge is single-pass: every selected segment is opened and read
// exactly once, with records demultiplexed into per-sensor queues as they
// stream by, whatever the number of sensors (ReplayStats exposes the
// counters). The queues buffer only the on-disk interleaving skew between
// sensors, which the recording Runner bounds by its fan-in queue depth;
// replaying a store whose sensors were written in long disjoint stretches
// trades that memory for reading each byte once.
func (r *Reader) Replay(run uint64, sensors []int, t0, t1 int64) (Iterator, error) {
	rr, err := r.selectRun(run)
	if err != nil {
		return nil, err
	}
	if rr == nil {
		rr = &readerRun{}
	}
	if len(sensors) == 0 {
		sensors = rr.info.Sensors
	}
	m := &sharedMergeIterator{t0: t0, t1: t1, want: make(map[int]int, len(sensors)), pendingSeg: -1}
	for _, id := range sensors {
		if id < 0 {
			return nil, fmt.Errorf("store: negative sensor id %d", id)
		}
		if _, dup := m.want[id]; dup {
			continue
		}
		m.want[id] = len(m.queues)
		m.queues = append(m.queues, sensorQueue{sensor: id, pending: true, lastStartUS: math.MinInt64})
	}
	m.stream.t0 = t0
	for _, seg := range rr.segs {
		if seg.meta.Records == 0 || seg.meta.MaxEndUS <= t0 {
			continue
		}
		for id := range m.want {
			if _, ok := seg.meta.Sensors[id]; ok {
				m.stream.segs = append(m.stream.segs, seg)
				break
			}
		}
	}
	return m, nil
}

// ReplayStats counts a replay's segment I/O, making read amplification
// observable: a single-pass merge opens each matching segment once, so
// SegmentsOpened stays at the run's segment count no matter how many
// sensors merge, and BytesRead stays at the run's data size.
type ReplayStats struct {
	SegmentsOpened int64
	BytesRead      int64
	// Records counts every record streamed past the demultiplexer,
	// matching or not; Buffered is the high-water mark of snapshots queued
	// across all sensors (the interleaving skew the merge absorbed).
	Records  int64
	Buffered int
}

// sensorQueue is one sensor's FIFO of decoded snapshots awaiting merge.
type sensorQueue struct {
	sensor int
	buf    []Snapshot
	head   int
	// lastEndUS/lastFrame track the most recently enqueued snapshot's
	// clock, for the per-sensor monotonicity check and the empty-queue
	// merge bound; valid when primed.
	lastEndUS int64
	lastFrame int
	primed    bool
	// lastStartUS is the start of the sensor's most recently streamed
	// record, enqueued or not: starts must not regress, which is what lets
	// a record starting at or after t1 end the sensor's part of the query.
	lastStartUS int64
	// pending means not-yet-consumed segments may still hold this sensor's
	// records within the query (per the segment metadata, and false once
	// a record starts at or after t1); once false it stays false, and an
	// empty non-pending queue no longer blocks the merge — this is what
	// keeps buffering bounded when a sensor drops out mid-store.
	pending bool
}

func (q *sensorQueue) empty() bool { return q.head >= len(q.buf) }

// pushSlot appends a zero snapshot and returns a pointer to it, so the
// decoder can fill it in place without an intermediate struct copy.
func (q *sensorQueue) pushSlot() *Snapshot {
	// Compact the consumed prefix once it dominates the buffer, keeping
	// the queue allocation-stable over long replays.
	if q.head > 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, Snapshot{})
	return &q.buf[len(q.buf)-1]
}

func (q *sensorQueue) unpush() { q.buf = q.buf[:len(q.buf)-1] }

func (q *sensorQueue) peek() *Snapshot { return &q.buf[q.head] }

func (q *sensorQueue) pop() Snapshot {
	s := q.buf[q.head]
	q.head++
	return s
}

// sharedMergeIterator implements the single-pass k-way merge: one
// sequential reader over the run's segment chain feeds per-sensor queues,
// and Next pops the (EndUS, Sensor, Frame)-minimal head once every sensor
// that could still produce a smaller record has one buffered. Correctness
// of the merge rests on each sensor's records being strictly increasing
// in (EndUS, Frame) on disk — true within a single run, where a sensor's
// frame clock only moves forward (run selection happens up front; see
// ErrMultipleRuns). A regression inside one run means disordered or
// damaged segments, so the demultiplexer still detects it and fails
// loudly instead of emitting a garbled timeline.
type sharedMergeIterator struct {
	t0, t1 int64
	want   map[int]int // sensor id -> queue index
	queues []sensorQueue
	stream segStream
	// dec amortizes decode allocations: the merge decodes every matching
	// record in the run, so per-record name and box allocations would
	// dominate the replay.
	dec       snapDecoder
	exhausted bool // every segment fully consumed
	failed    bool
	// pendingSeg memoizes refreshPending on the stream's segment position.
	pendingSeg int
	stats      ReplayStats
}

// Next implements Iterator.
func (m *sharedMergeIterator) Next() (Snapshot, error) {
	if m.failed {
		return Snapshot{}, io.EOF
	}
	for {
		best := -1
		for i := range m.queues {
			if m.queues[i].empty() {
				continue
			}
			if best < 0 || snapLess(m.queues[i].peek(), m.queues[best].peek()) {
				best = i
			}
		}
		if best >= 0 && (m.exhausted || m.safeToPop(m.queues[best].peek())) {
			return m.queues[best].pop(), nil
		}
		if m.exhausted {
			return Snapshot{}, io.EOF
		}
		if err := m.fill(); err != nil {
			m.failed = true
			m.stream.close()
			return Snapshot{}, err
		}
	}
}

// safeToPop reports whether no record still on disk can sort before head.
// A non-empty queue needs no check (head is already the minimum buffered
// key, and that queue's future records sort after its own head). An empty
// queue with no pending segments can produce nothing more and never
// blocks. An empty pending queue bounds its future records from below by
// its last streamed snapshot — per-sensor monotonicity guarantees the
// next one is strictly later in (EndUS, Frame) — so head is safe when it
// sorts before that bound. An empty pending queue whose sensor has not
// been seen yet gives no bound at all: its first record could carry any
// timestamp, so the merge must keep streaming before it can emit
// anything.
func (m *sharedMergeIterator) safeToPop(head *Snapshot) bool {
	m.refreshPending()
	for i := range m.queues {
		q := &m.queues[i]
		if !q.empty() || !q.pending {
			continue
		}
		if !q.primed {
			return false
		}
		// The queue's next record sorts at or after (lastEndUS, its
		// sensor, lastFrame+1); head must sort strictly before that. On a
		// time tie the order falls to the sensor id (head's sensor cannot
		// equal the empty queue's — head would be its own record).
		if head.EndUS > q.lastEndUS || (head.EndUS == q.lastEndUS && head.Sensor > q.sensor) {
			return false
		}
	}
	return true
}

// refreshPending recomputes, per queue, whether any not-yet-consumed
// segment can still hold its sensor's records, using the segment metadata
// already captured at OpenReader. Memoized on the stream's segment
// position, so the scan runs once per segment advance. The range
// conservatively includes the most recently opened segment (it may still
// be mid-read).
func (m *sharedMergeIterator) refreshPending() {
	if m.pendingSeg == m.stream.segIdx {
		return
	}
	m.pendingSeg = m.stream.segIdx
	from := m.stream.segIdx - 1
	if from < 0 {
		from = 0
	}
	remaining := m.stream.segs[from:]
	for i := range m.queues {
		q := &m.queues[i]
		if !q.pending {
			continue
		}
		q.pending = false
		for _, seg := range remaining {
			if _, ok := seg.meta.Sensors[q.sensor]; ok {
				q.pending = true
				break
			}
		}
	}
}

// fill streams records from the segment chain until one matching snapshot
// is enqueued, a selected sensor's part of the query ends, or the chain is
// exhausted. Once no selected sensor is pending, nothing left on disk can
// match: the stream closes and the merge drains what is queued.
func (m *sharedMergeIterator) fill() error {
	for {
		payload, err := m.stream.next()
		if err == io.EOF {
			m.exhausted = true
			return nil
		}
		if err != nil {
			return err
		}
		m.stats.Records++
		// Filter on the cheap peeked fields; only matching records pay
		// for the full decode (name and box allocations).
		sensor, startUS, endUS, err := peekMeta(payload)
		if err != nil {
			return err
		}
		qi, wanted := m.want[sensor]
		if !wanted {
			continue
		}
		q := &m.queues[qi]
		if startUS < q.lastStartUS {
			return fmt.Errorf("store: sensor %d window starts regress (%d us after %d us): segments disordered or damaged within the run",
				sensor, startUS, q.lastStartUS)
		}
		q.lastStartUS = startUS
		if startUS >= m.t1 {
			if q.pending {
				q.pending = false
				if m.nonePending() {
					m.exhausted = true
					m.stream.close()
				}
				return nil
			}
			continue
		}
		if endUS <= m.t0 {
			continue
		}
		slot := q.pushSlot()
		if err := decodeSnapshotInto(slot, payload, &m.dec); err != nil {
			q.unpush()
			return err
		}
		if q.primed && (slot.EndUS < q.lastEndUS || (slot.EndUS == q.lastEndUS && slot.Frame <= q.lastFrame)) {
			err := fmt.Errorf("store: sensor %d timestamps regress at frame %d (end %d us after %d us): segments disordered or damaged within the run",
				slot.Sensor, slot.Frame, slot.EndUS, q.lastEndUS)
			q.unpush()
			return err
		}
		q.lastEndUS, q.lastFrame, q.primed = slot.EndUS, slot.Frame, true
		if buffered := m.buffered(); buffered > m.stats.Buffered {
			m.stats.Buffered = buffered
		}
		return nil
	}
}

// nonePending reports whether every selected sensor's part of the query
// has ended.
func (m *sharedMergeIterator) nonePending() bool {
	m.refreshPending()
	for i := range m.queues {
		if m.queues[i].pending {
			return false
		}
	}
	return true
}

func (m *sharedMergeIterator) buffered() int {
	n := 0
	for i := range m.queues {
		n += len(m.queues[i].buf) - m.queues[i].head
	}
	return n
}

// Stats returns the replay's I/O counters so far. Useful after draining
// the iterator to verify read amplification (each shared segment read
// once).
func (m *sharedMergeIterator) Stats() ReplayStats {
	st := m.stats
	st.SegmentsOpened = m.stream.opened
	st.BytesRead = m.stream.bytesRead
	return st
}

// snapLess orders snapshots by (EndUS, Sensor, Frame).
func snapLess(a, b *Snapshot) bool {
	if a.EndUS != b.EndUS {
		return a.EndUS < b.EndUS
	}
	if a.Sensor != b.Sensor {
		return a.Sensor < b.Sensor
	}
	return a.Frame < b.Frame
}

// Close implements Iterator.
func (m *sharedMergeIterator) Close() error {
	m.failed = true
	m.exhausted = true
	m.stream.close()
	return nil
}
