package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"regexp"
	"sort"

	"ebbiot/internal/geometry"
)

// On-disk constants. The full format is specified in docs/STORE.md; the
// encoder/decoder here is the single source of truth for the byte layout.
const (
	segMagic = "EBST" // segment data file
	idxMagic = "EBSI" // sidecar sparse index
	version  = 1

	segHeaderLen = 8 // magic + u32 version
	frameLen     = 8 // u32 payload length + u32 CRC32(payload)

	// maxRecordBytes bounds a single record's payload; a larger length
	// field is treated as corruption rather than attempted as an
	// allocation.
	maxRecordBytes = 1 << 26
	maxNameLen     = 1<<16 - 1
)

var le = binary.LittleEndian

// segmentName returns the data file name of segment n (1-based).
func segmentName(n int) string { return fmt.Sprintf("seg-%08d.log", n) }

// indexName returns the sidecar index file name of segment n.
func indexName(n int) string { return fmt.Sprintf("seg-%08d.idx", n) }

var segNameRE = regexp.MustCompile(`^seg-(\d{8})\.log$`)

// parseSegmentName extracts the segment number from a data file name.
func parseSegmentName(name string) (int, bool) {
	m := segNameRE.FindStringSubmatch(filepath.Base(name))
	if m == nil {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(m[1], "%d", &n); err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// appendSegHeader appends the 8-byte segment file header.
func appendSegHeader(dst []byte) []byte {
	dst = append(dst, segMagic...)
	return le.AppendUint32(dst, version)
}

// checkSegHeader validates an 8-byte segment header.
func checkSegHeader(hdr []byte) error {
	if len(hdr) < segHeaderLen || string(hdr[:4]) != segMagic {
		return fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if v := le.Uint32(hdr[4:8]); v != version {
		return fmt.Errorf("store: unsupported segment version %d", v)
	}
	return nil
}

// encodeSnapshot appends the record payload (no framing) for s to dst.
// Layout, all little-endian:
//
//	u32 sensor | u32 frame | u64 startUS | u64 endUS | u32 events |
//	u64 procUS | u16 nameLen | name | u32 nBoxes | nBoxes × (i32 x,y,w,h)
func encodeSnapshot(dst []byte, s Snapshot) []byte {
	dst = le.AppendUint32(dst, uint32(s.Sensor))
	dst = le.AppendUint32(dst, uint32(s.Frame))
	dst = le.AppendUint64(dst, uint64(s.StartUS))
	dst = le.AppendUint64(dst, uint64(s.EndUS))
	dst = le.AppendUint32(dst, uint32(s.Events))
	dst = le.AppendUint64(dst, uint64(s.ProcUS))
	dst = le.AppendUint16(dst, uint16(len(s.Name)))
	dst = append(dst, s.Name...)
	dst = le.AppendUint32(dst, uint32(len(s.Boxes)))
	for _, b := range s.Boxes {
		dst = le.AppendUint32(dst, uint32(int32(b.X)))
		dst = le.AppendUint32(dst, uint32(int32(b.Y)))
		dst = le.AppendUint32(dst, uint32(int32(b.W)))
		dst = le.AppendUint32(dst, uint32(int32(b.H)))
	}
	return dst
}

// peekMeta extracts the filter fields — sensor, window bounds — from a
// payload without decoding the name or box list, so a replay can reject
// non-matching records allocation-free.
func peekMeta(p []byte) (sensor int, startUS, endUS int64, err error) {
	if len(p) < 24 {
		return 0, 0, 0, fmt.Errorf("%w: payload too short (%d bytes)", ErrCorrupt, len(p))
	}
	return int(le.Uint32(p[0:])), int64(le.Uint64(p[8:])), int64(le.Uint64(p[16:])), nil
}

// snapDecoder is decodeSnapshot with amortized allocations for bulk
// decode paths (the single-pass replay merge decodes every matching
// record in the store): sensor names are interned — a recorded stream
// repeats the same label on every window — and box slices are carved from
// chunked arenas instead of allocated per record. Decoded snapshots stay
// safe to retain indefinitely (interned strings and arena chunks are
// never reused), matching the Iterator contract. Zero value is ready.
type snapDecoder struct {
	names map[string]string
	arena []geometry.Box
}

// decodeSnapshot parses a record payload. Every length is bounds-checked
// so arbitrary bytes yield ErrCorrupt, never a panic.
func decodeSnapshot(p []byte) (Snapshot, error) {
	var s Snapshot
	err := decodeSnapshotInto(&s, p, nil)
	return s, err
}

// decodeSnapshotInto parses a record payload into *dst (which must be
// zeroed), drawing name and box storage from d when non-nil.
func decodeSnapshotInto(dst *Snapshot, p []byte, d *snapDecoder) error {
	s := dst
	const fixed = 4 + 4 + 8 + 8 + 4 + 8 + 2
	if len(p) < fixed {
		return fmt.Errorf("%w: payload too short (%d bytes)", ErrCorrupt, len(p))
	}
	s.Sensor = int(le.Uint32(p[0:]))
	s.Frame = int(le.Uint32(p[4:]))
	s.StartUS = int64(le.Uint64(p[8:]))
	s.EndUS = int64(le.Uint64(p[16:]))
	s.Events = int(le.Uint32(p[24:]))
	s.ProcUS = int64(le.Uint64(p[28:]))
	nameLen := int(le.Uint16(p[36:]))
	p = p[fixed:]
	if len(p) < nameLen+4 {
		return fmt.Errorf("%w: truncated name", ErrCorrupt)
	}
	if d != nil {
		if cached, ok := d.names[string(p[:nameLen])]; ok {
			s.Name = cached
		} else {
			if d.names == nil {
				d.names = make(map[string]string, 8)
			}
			n := string(p[:nameLen])
			d.names[n] = n
			s.Name = n
		}
	} else {
		s.Name = string(p[:nameLen])
	}
	p = p[nameLen:]
	nBoxes := int(le.Uint32(p))
	p = p[4:]
	if nBoxes < 0 || len(p) != nBoxes*16 {
		return fmt.Errorf("%w: box list length mismatch", ErrCorrupt)
	}
	if nBoxes > 0 {
		if d != nil {
			if len(d.arena)+nBoxes > cap(d.arena) {
				d.arena = make([]geometry.Box, 0, max(4096, nBoxes))
			}
			start := len(d.arena)
			d.arena = d.arena[:start+nBoxes]
			s.Boxes = d.arena[start : start+nBoxes : start+nBoxes]
		} else {
			s.Boxes = make([]geometry.Box, nBoxes)
		}
		for i := range s.Boxes {
			s.Boxes[i] = geometry.Box{
				X: int(int32(le.Uint32(p[i*16:]))),
				Y: int(int32(le.Uint32(p[i*16+4:]))),
				W: int(int32(le.Uint32(p[i*16+8:]))),
				H: int(int32(le.Uint32(p[i*16+12:]))),
			}
		}
	}
	return nil
}

// payloadCRC is the checksum stored in each record frame.
func payloadCRC(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

// errSegmentEnd marks the end of a segment's valid region: too few bytes
// remain to hold another frame header.
var errSegmentEnd = errors.New("store: segment end")

// frameFault is a record frame that fails validation: its length overruns
// the region or maxRecordBytes, or its payload fails the checksum. The
// caller decides what that means — corruption for a query, the end of the
// valid prefix for a segment scan.
type frameFault string

func (f frameFault) Error() string { return string(f) }

// frameReader decodes the length+CRC32 record frames of one segment
// region in order. It is the one decoder of a record frame, shared by the
// replay stream and the segment scanner.
type frameReader struct {
	br  *bufio.Reader
	off int64 // file offset of the next frame
	end int64 // file offset where the region ends
	// hdr lives here rather than on next's stack: io.ReadFull would move
	// a local array to the heap on every record.
	hdr     [frameLen]byte
	payload []byte
}

// next decodes the frame at off and returns its checksum-verified payload,
// valid until the following call, and advances off past the frame. It
// returns errSegmentEnd when the region cannot hold another frame header,
// a frameFault for an invalid frame (off stays at its start), and I/O
// errors as they come.
func (fr *frameReader) next() ([]byte, error) {
	room := fr.end - fr.off
	if room < frameLen {
		return nil, errSegmentEnd
	}
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int64(le.Uint32(fr.hdr[0:4]))
	if n > maxRecordBytes || frameLen+n > room {
		return nil, frameFault(fmt.Sprintf("frame length %d exceeds segment bounds", n))
	}
	if int64(cap(fr.payload)) < n {
		fr.payload = make([]byte, n)
	}
	fr.payload = fr.payload[:n]
	if _, err := io.ReadFull(fr.br, fr.payload); err != nil {
		return nil, err
	}
	if payloadCRC(fr.payload) != le.Uint32(fr.hdr[4:8]) {
		return nil, frameFault("record checksum mismatch")
	}
	fr.off += frameLen + n
	return fr.payload, nil
}

// indexEntry is one sparse index point: every record whose file offset is
// strictly below Offset has EndUS <= CumMaxEndUS. CumMaxEndUS is a running
// maximum and therefore monotone across entries, so a time-bounded query
// binary-searches for the last entry with CumMaxEndUS <= t0 and starts
// reading at its offset.
type indexEntry struct {
	CumMaxEndUS int64
	Offset      int64
}

// segMeta is the queryable summary of one segment — the in-memory form of
// the sidecar index. It is maintained incrementally by the Writer and
// rebuilt by scanning when the sidecar is missing or invalid.
type segMeta struct {
	Records   int64
	MinEndUS  int64
	MaxEndUS  int64
	cumMax    int64
	Sensors   map[int]struct{}
	Entries   []indexEntry
	DataBytes int64 // valid bytes in the data file, header included
}

func newSegMeta() *segMeta {
	return &segMeta{Sensors: make(map[int]struct{}), DataBytes: segHeaderLen}
}

// note records one snapshot appended at file offset off (the offset of its
// frame header), updating bounds, the sensor set and — every indexEvery
// records — the sparse entry list.
func (m *segMeta) note(s Snapshot, off int64, recLen int64, indexEvery int) {
	if m.Records > 0 && m.Records%int64(indexEvery) == 0 {
		m.Entries = append(m.Entries, indexEntry{CumMaxEndUS: m.cumMax, Offset: off})
	}
	if m.Records == 0 || s.EndUS < m.MinEndUS {
		m.MinEndUS = s.EndUS
	}
	if m.Records == 0 || s.EndUS > m.MaxEndUS {
		m.MaxEndUS = s.EndUS
	}
	if s.EndUS > m.cumMax {
		m.cumMax = s.EndUS
	}
	m.Sensors[s.Sensor] = struct{}{}
	m.Records++
	m.DataBytes = off + recLen
}

// seekOffset returns the file offset at which a read for windows
// overlapping [t0, ∞) may start: records before it all end at or before
// t0 and therefore cannot overlap.
func (m *segMeta) seekOffset(t0 int64) int64 {
	i := sort.Search(len(m.Entries), func(i int) bool { return m.Entries[i].CumMaxEndUS > t0 })
	if i == 0 {
		return segHeaderLen
	}
	return m.Entries[i-1].Offset
}

// sortedSensors returns the segment's sensor ids in ascending order.
func (m *segMeta) sortedSensors() []int {
	out := make([]int, 0, len(m.Sensors))
	for s := range m.Sensors {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// marshalIndex serialises the sidecar index file. Layout after the 8-byte
// magic+version header (all little-endian):
//
//	u64 dataBytes | u64 records | u64 minEndUS | u64 maxEndUS |
//	u32 nSensors | nSensors × u32 | u32 nEntries |
//	nEntries × (u64 cumMaxEndUS, u64 offset) | u32 CRC32(everything above)
func marshalIndex(m *segMeta) []byte {
	dst := make([]byte, 0, 64+len(m.Sensors)*4+len(m.Entries)*16)
	dst = append(dst, idxMagic...)
	dst = le.AppendUint32(dst, version)
	dst = le.AppendUint64(dst, uint64(m.DataBytes))
	dst = le.AppendUint64(dst, uint64(m.Records))
	dst = le.AppendUint64(dst, uint64(m.MinEndUS))
	dst = le.AppendUint64(dst, uint64(m.MaxEndUS))
	sensors := m.sortedSensors()
	dst = le.AppendUint32(dst, uint32(len(sensors)))
	for _, s := range sensors {
		dst = le.AppendUint32(dst, uint32(s))
	}
	dst = le.AppendUint32(dst, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		dst = le.AppendUint64(dst, uint64(e.CumMaxEndUS))
		dst = le.AppendUint64(dst, uint64(e.Offset))
	}
	return le.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

// unmarshalIndex parses a sidecar index file, verifying its trailing CRC.
func unmarshalIndex(p []byte) (*segMeta, error) {
	const fixed = 8 + 8*4 + 4
	if len(p) < fixed+4 || string(p[:4]) != idxMagic {
		return nil, fmt.Errorf("%w: bad index header", ErrCorrupt)
	}
	if v := le.Uint32(p[4:]); v != version {
		return nil, fmt.Errorf("store: unsupported index version %d", v)
	}
	body, sum := p[:len(p)-4], le.Uint32(p[len(p)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
	}
	m := newSegMeta()
	m.DataBytes = int64(le.Uint64(body[8:]))
	m.Records = int64(le.Uint64(body[16:]))
	m.MinEndUS = int64(le.Uint64(body[24:]))
	m.MaxEndUS = int64(le.Uint64(body[32:]))
	m.cumMax = m.MaxEndUS
	nSensors := int(le.Uint32(body[40:]))
	body = body[44:]
	if len(body) < nSensors*4+4 {
		return nil, fmt.Errorf("%w: truncated index sensor list", ErrCorrupt)
	}
	for i := 0; i < nSensors; i++ {
		m.Sensors[int(le.Uint32(body[i*4:]))] = struct{}{}
	}
	body = body[nSensors*4:]
	nEntries := int(le.Uint32(body))
	body = body[4:]
	if len(body) != nEntries*16 {
		return nil, fmt.Errorf("%w: truncated index entry list", ErrCorrupt)
	}
	m.Entries = make([]indexEntry, nEntries)
	for i := range m.Entries {
		m.Entries[i] = indexEntry{
			CumMaxEndUS: int64(le.Uint64(body[i*16:])),
			Offset:      int64(le.Uint64(body[i*16+8:])),
		}
	}
	return m, nil
}
