package store

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Writer appends snapshots to a store directory, rotating segments by
// size and fsyncing at the configured cadence. It is safe for concurrent
// use, though the pipeline never calls it concurrently: the Runner hands
// the sink one snapshot at a time.
//
// Every Open starts a new run: a fresh manifest (run-%08d.mf) claims the
// run's segments in order, and each sealed segment's Merkle root is
// chained into it, so runs recorded into the same directory stay
// independently listable, replayable and verifiable. The manifest is
// always written claiming a segment before the segment file is created —
// a crash can leave a claimed-but-missing segment (repaired on the next
// Open) but never an orphan segment no manifest accounts for.
type Writer struct {
	mu   sync.Mutex
	dir  string
	opts Options

	runID  uint64
	man    *manifest   // this run's manifest
	others []*manifest // earlier runs, for directory-wide retention

	seg       int // current segment number
	f         *os.File
	bw        *bufio.Writer
	meta      *segMeta
	acc       merkleAcc      // Merkle leaves of the current segment
	prevChain [hashSize]byte // chain value after the last sealed entry
	off       int64          // append offset in the current segment
	sinceSync int
	scratch   []byte
	lock      *os.File // held flock guarding against concurrent writers
	closed    bool
}

// Open creates dir if needed and returns a Writer recording a new run
// into it. The directory is guarded by an advisory lock for the Writer's
// lifetime, so a second concurrent writer fails fast instead of
// interleaving frames into the same segment. Any run left unfinalized by
// a crash is recovered first: its open segment's valid prefix is kept
// (torn or corrupt tail physically truncated), sealed with a recomputed
// Merkle root, and the run finalized with the recovered flag — or
// discarded entirely if it holds no records. Finalized runs are immutable
// and untouched.
func Open(dir string, opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opts: opts, lock: lock}
	if err := w.open(); err != nil {
		releaseDirLock(lock)
		return nil, err
	}
	return w, nil
}

// open recovers crashed runs and starts this writer's run (lock held).
func (w *Writer) open() error {
	removeStrayTemps(w.dir)
	mans, _, err := loadManifests(w.dir)
	if err != nil {
		return err
	}
	// Unparseable manifests are left in place for Verify to report; their
	// segments are treated as unclaimed legacy data by readers.
	w.others = w.others[:0]
	var maxRun uint64
	for _, m := range mans {
		if m.RunID > maxRun {
			maxRun = m.RunID
		}
		kept, rerr := recoverRun(w.dir, m)
		if rerr != nil {
			return rerr
		}
		removeExpiredLeftovers(w.dir, m)
		if kept {
			w.others = append(w.others, m)
		}
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	nextSeg := 1
	if len(segs) > 0 {
		nextSeg = segs[len(segs)-1] + 1
	}
	// Claimed segment numbers beyond what is on disk (an expired segment's
	// number must never be reused — its tombstone still names it).
	for _, m := range mans {
		for i := range m.Segments {
			if s := m.Segments[i].Seg; s >= nextSeg {
				nextSeg = s + 1
			}
		}
	}
	w.runID = maxRun + 1
	w.prevChain = runSeed(w.runID)
	w.man = &manifest{
		RunID:       w.runID,
		StartWallUS: nowUS(),
		ParamsHash:  w.opts.ParamsHash,
		Retention:   w.opts.Retention,
	}
	return w.beginSegment(nextSeg)
}

// recoverRun repairs an unfinalized manifest left by a crash: the open
// entry's segment is scanned, its torn tail truncated to the last valid
// record, and the valid prefix sealed with a freshly computed Merkle
// root; the run is then finalized with the recovered flag. Returns false
// when the run held no records and was discarded. Finalized manifests are
// returned unchanged.
func recoverRun(dir string, m *manifest) (kept bool, err error) {
	if m.finalized() {
		return true, nil
	}
	for i := len(m.Segments) - 1; i >= 0; i-- {
		if m.Segments[i].State != segOpen {
			continue
		}
		e := &m.Segments[i]
		path := filepath.Join(dir, segmentName(e.Seg))
		var acc merkleAcc
		meta, dropped, serr := scanSegmentFunc(path, DefaultIndexEvery, func(p []byte) { acc.add(leafHash(p)) })
		switch {
		case errors.Is(serr, fs.ErrNotExist) || serr == nil && meta.Records == 0:
			// Crash between manifest claim and first durable record: the
			// entry never held data. Drop it (and any empty file).
			if serr == nil {
				if rerr := os.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
					return false, fmt.Errorf("store: %w", rerr)
				}
			}
			m.Segments = append(m.Segments[:i], m.Segments[i+1:]...)
		case serr != nil:
			return false, serr
		default:
			if dropped > 0 {
				if terr := truncateFile(path, meta.DataBytes); terr != nil {
					return false, terr
				}
			}
			if ierr := writeIndexFile(dir, e.Seg, meta); ierr != nil {
				return false, ierr
			}
			prev := runSeed(m.RunID)
			if i > 0 {
				prev = m.Segments[i-1].Chain
			}
			root := acc.root()
			e.State = segSealed
			e.Records = meta.Records
			e.DataBytes = meta.DataBytes
			e.MinEndUS = meta.MinEndUS
			e.MaxEndUS = meta.MaxEndUS
			e.SealedWallUS = nowUS()
			e.Root = root
			e.Chain = chainHash(prev, root)
			m.addSensors(meta.sortedSensors())
		}
	}
	if len(m.Segments) == 0 {
		return false, removeManifestFile(dir, m.RunID)
	}
	m.Flags |= manFinalized | manRecovered
	m.EndWallUS = nowUS()
	return true, writeManifestFile(dir, m)
}

// truncateFile cuts path to size and fsyncs it.
func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("store: truncate %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", path, err)
	}
	return nil
}

// beginSegment claims segment n in the manifest (durably), then creates
// the segment file with its header and fsyncs the directory.
func (w *Writer) beginSegment(n int) error {
	w.man.Segments = append(w.man.Segments, manifestSeg{Seg: n, State: segOpen})
	if err := writeManifestFile(w.dir, w.man); err != nil {
		return err
	}
	path := filepath.Join(w.dir, segmentName(n))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(appendSegHeader(nil)); err != nil {
		f.Close()
		return fmt.Errorf("store: write header %s: %w", path, err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.seg, w.f, w.off = n, f, segHeaderLen
	w.meta = newSegMeta()
	w.acc.reset()
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.sinceSync = 0
	return nil
}

// Append encodes and writes one snapshot. The snapshot is fully serialised
// before Append returns, so the caller may reuse or mutate it (and its
// Boxes slice) immediately afterwards.
func (w *Writer) Append(s Snapshot) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.f == nil {
		// A rotation sealed the old segment but failed to open the next
		// one; the writer is wedged until reopened.
		return fmt.Errorf("store: no open segment (previous rotation failed); reopen the store")
	}
	if err := s.validate(); err != nil {
		return err
	}
	// The frame header is encoded in place ahead of the payload, so the
	// whole record goes out in one Write from the reused scratch buffer.
	w.scratch = encodeSnapshot(append(w.scratch[:0], make([]byte, frameLen)...), s)
	record, payload := w.scratch, w.scratch[frameLen:]
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("store: record payload %d bytes exceeds %d", len(payload), maxRecordBytes)
	}
	le.PutUint32(record[0:4], uint32(len(payload)))
	le.PutUint32(record[4:8], payloadCRC(payload))
	if _, err := w.bw.Write(record); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	w.acc.add(leafHash(payload))
	w.meta.note(s, w.off, int64(frameLen+len(payload)), w.opts.IndexEvery)
	w.off += int64(frameLen + len(payload))
	w.sinceSync++
	if w.opts.SyncEvery > 0 && w.sinceSync >= w.opts.SyncEvery {
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	if w.off >= w.opts.SegmentBytes {
		return w.rotateLocked()
	}
	return nil
}

// Sync flushes buffered records and fsyncs the current segment, making
// everything appended so far durable.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if w.f == nil {
		return nil // sealed: everything already flushed and fsynced
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	w.sinceSync = 0
	return nil
}

// rotateLocked seals the current segment into the manifest, applies
// retention, and begins the next segment.
func (w *Writer) rotateLocked() error {
	if err := w.sealLocked(); err != nil {
		return err
	}
	if err := writeManifestFile(w.dir, w.man); err != nil {
		return err
	}
	if err := w.retainLocked(); err != nil {
		return err
	}
	return w.beginSegment(w.seg + 1)
}

// sealLocked makes the current segment immutable: flush, fsync, sidecar
// index, and the manifest entry updated in memory with the segment's
// Merkle root chained onto the run (the caller persists the manifest).
func (w *Writer) sealLocked() error {
	if w.f == nil {
		// Already sealed by a rotation whose successor segment failed to
		// open; nothing further to flush or index.
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	w.f = nil
	if err := writeIndexFile(w.dir, w.seg, w.meta); err != nil {
		return err
	}
	i := w.man.openSeg()
	if i < 0 {
		return fmt.Errorf("store: manifest lost its open segment entry")
	}
	e := &w.man.Segments[i]
	root := w.acc.root()
	e.State = segSealed
	e.Records = w.meta.Records
	e.DataBytes = w.meta.DataBytes
	e.MinEndUS = w.meta.MinEndUS
	e.MaxEndUS = w.meta.MaxEndUS
	e.SealedWallUS = nowUS()
	e.Root = root
	e.Chain = chainHash(w.prevChain, root)
	w.prevChain = e.Chain
	w.man.addSensors(w.meta.sortedSensors())
	return nil
}

// retainLocked applies the writer's retention policy across every run in
// the directory.
func (w *Writer) retainLocked() error {
	if !w.opts.Retention.enabled() {
		return nil
	}
	mans := make([]*manifest, 0, len(w.others)+1)
	mans = append(mans, w.others...)
	mans = append(mans, w.man)
	_, err := applyRetention(w.dir, mans, w.opts.Retention, nowUS())
	return err
}

// Close seals the current segment, finalizes the run manifest, applies
// retention, and releases the Writer and its directory lock. A run that
// recorded nothing is discarded entirely (its manifest and empty segment
// removed). Further calls return ErrClosed (a second Close is a no-op
// returning nil).
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.finalizeLocked()
	releaseDirLock(w.lock)
	w.lock = nil
	return err
}

func (w *Writer) finalizeLocked() error {
	if w.f != nil && w.meta.Records == 0 {
		// Empty current segment: drop it rather than sealing zero records.
		ferr := w.f.Close()
		w.f = nil
		if ferr != nil {
			return fmt.Errorf("store: close segment: %w", ferr)
		}
		if err := os.Remove(filepath.Join(w.dir, segmentName(w.seg))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
		if i := w.man.openSeg(); i >= 0 {
			w.man.Segments = append(w.man.Segments[:i], w.man.Segments[i+1:]...)
		}
	} else if err := w.sealLocked(); err != nil {
		return err
	}
	if len(w.man.Segments) == 0 {
		return removeManifestFile(w.dir, w.runID)
	}
	w.man.Flags |= manFinalized
	w.man.EndWallUS = nowUS()
	if err := writeManifestFile(w.dir, w.man); err != nil {
		return err
	}
	return w.retainLocked()
}

// RunID returns this writer's run identifier (stable for the Writer's
// lifetime; what Reader.Runs and the query CLI list).
func (w *Writer) RunID() uint64 { return w.runID }
