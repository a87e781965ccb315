package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", dir, err)
	}
	var segs []int
	for _, e := range entries {
		if n, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// scanSegment reads a segment data file front to back, validating every
// frame, and returns the rebuilt metadata plus the number of trailing
// bytes that failed validation (torn frame, bad CRC, undecodable payload —
// all treated as a crashed append). Scanning stops at the first invalid
// frame: meta covers exactly the valid prefix, meta.DataBytes marks where
// it ends, and dropped = fileSize - meta.DataBytes.
//
// A file too short or wrong-magic to hold a header yields an empty meta
// with DataBytes 0 (the whole file is the dropped tail); only I/O failures
// return an error.
func scanSegment(path string, indexEvery int) (meta *segMeta, dropped int64, err error) {
	return scanSegmentFunc(path, indexEvery, nil)
}

// scanSegmentFunc is scanSegment with a per-record hook: onRecord is
// invoked with each valid record's payload in order (valid until the next
// invocation), which is how crash recovery and Verify fold the segment's
// Merkle leaves while paying for a single pass.
func scanSegmentFunc(path string, indexEvery int, onRecord func(payload []byte)) (meta *segMeta, dropped int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	size := fi.Size()

	meta = newSegMeta()
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || checkSegHeader(hdr[:]) != nil {
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, 0, fmt.Errorf("store: %w", err)
		}
		meta.DataBytes = 0
		return meta, size, nil
	}

	fr := frameReader{br: bufio.NewReaderSize(f, 1<<16), off: segHeaderLen, end: size}
	for {
		off := fr.off
		payload, err := fr.next()
		if _, bad := err.(frameFault); bad || err == errSegmentEnd {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store: %w", err)
		}
		snap, derr := decodeSnapshot(payload)
		if derr != nil {
			break
		}
		if onRecord != nil {
			onRecord(payload)
		}
		meta.note(snap, off, fr.off-off, indexEvery)
	}
	return meta, size - meta.DataBytes, nil
}

// loadSegMeta returns the metadata of segment n in dir, preferring the
// sidecar index and falling back to a full scan when the sidecar is
// missing, corrupt, version-skewed, or stale (its DataBytes no longer
// matches the data file size — e.g. the segment is still being appended
// to, or the sidecar survived a crash the data file did not). fellBack
// reports that a sidecar was present but unusable — a bit flip or
// truncation in the index degrades to a correct full scan, and the
// Reader surfaces the count so the degradation is observable.
func loadSegMeta(dir string, n int, indexEvery int) (meta *segMeta, dropped int64, fellBack bool, err error) {
	dataPath := filepath.Join(dir, segmentName(n))
	if raw, rerr := os.ReadFile(filepath.Join(dir, indexName(n))); rerr == nil {
		m, merr := unmarshalIndex(raw)
		if merr == nil {
			if fi, serr := os.Stat(dataPath); serr == nil && fi.Size() == m.DataBytes {
				return m, 0, false, nil
			}
			// Stale (size mismatch): the data file moved on without the
			// sidecar — normal for a segment still being appended to, so
			// not counted as a fallback.
			meta, dropped, err = scanSegment(dataPath, indexEvery)
			return meta, dropped, false, err
		}
		meta, dropped, err = scanSegment(dataPath, indexEvery)
		return meta, dropped, true, err
	}
	meta, dropped, err = scanSegment(dataPath, indexEvery)
	return meta, dropped, false, err
}

// writeIndexFile persists meta as segment n's sidecar index and fsyncs it.
// The sidecar is a cache: failure to write it is reported but readers
// survive without it.
func writeIndexFile(dir string, n int, meta *segMeta) error {
	path := filepath.Join(dir, indexName(n))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(marshalIndex(meta)); err != nil {
		f.Close()
		return fmt.Errorf("store: write index %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync index %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close index %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so freshly created files survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}
