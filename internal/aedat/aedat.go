// Package aedat implements a compact binary container for address-event
// recordings, modelled on the AEDAT format produced by DAVIS tooling.
//
// Layout (all little endian):
//
//	magic    [8]byte  "EBBIAER1"
//	width    uint16   sensor columns (A)
//	height   uint16   sensor rows (B)
//	count    uint64   number of events
//	events   count * 10 bytes:
//	           x  uint16
//	           y  uint16
//	           dt uint32  timestamp delta from previous event (us)
//	           p  uint8   1 = ON, 0 = OFF
//	           _  uint8   reserved (0)
//
// Delta-encoded timestamps keep 1-hour recordings within uint32 range per
// event while preserving microsecond resolution.
//
// Errors: Reader.NextWindowInto returns a bare io.EOF only once the header's
// count of events has been decoded, and Read then succeeds. A body shorter
// than that count is an error wrapping io.ErrUnexpectedEOF from both, even
// when it ends on an event boundary. Bytes past the count are ignored.
package aedat

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"ebbiot/internal/events"
)

var magic = [8]byte{'E', 'B', 'B', 'I', 'A', 'E', 'R', '1'}

// ErrBadMagic is returned when the stream does not start with the format
// magic.
var ErrBadMagic = errors.New("aedat: bad magic (not an EBBI AER recording)")

const eventSize = 10

// header is the fixed-size file prefix.
type header struct {
	Magic  [8]byte
	Width  uint16
	Height uint16
	Count  uint64
}

// Write encodes a sorted event stream to w. It returns an error wrapping
// events.ErrUnsorted if a timestamp falls before its predecessor's (the
// first before t = 0), and an error if an event lies outside the
// resolution or consecutive timestamps differ by more than 2^32-1
// microseconds. On error, records before the failing event may already
// be written.
func Write(w io.Writer, res events.Resolution, evs []events.Event) error {
	if err := res.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, bufferSize)
	h := header{Magic: magic, Width: uint16(res.A), Height: uint16(res.B), Count: uint64(len(evs))}
	if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
		return fmt.Errorf("aedat: writing header: %w", err)
	}
	if _, _, err := encode(bw, res, 0, evs); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("aedat: flushing: %w", err)
	}
	return nil
}

// encode writes evs' records to bw, each timestamp as its delta from the
// one before (prev for the first event), and returns the last timestamp
// encoded and the number of records written. Order is checked here, once,
// as the deltas are formed: a negative delta is events.ErrUnsorted.
//
// Records are formed straight in bw's free space, as many as it holds at
// a time, and committed with one Write each: a batch of n events costs
// about n·eventSize/bw.Size() Writes, not n. On error, exactly the records
// before the failing event are written, and n counts them.
func encode(bw *bufio.Writer, res events.Resolution, prev int64, evs []events.Event) (int64, int, error) {
	for i := 0; i < len(evs); {
		if bw.Available() < eventSize {
			if err := bw.Flush(); err != nil {
				return prev, i, fmt.Errorf("aedat: writing event %d: %w", i, err)
			}
		}
		buf := bw.AvailableBuffer()
		chunk := evs[i:min(len(evs), i+cap(buf)/eventSize)]
		buf = buf[:len(chunk)*eventSize]
		last, n := prev, 0
		for _, e := range chunk {
			dt := e.T - last
			// A negative delta wraps past the range too.
			if !res.Contains(int(e.X), int(e.Y)) || uint64(dt) > 0xFFFFFFFF {
				break
			}
			rec := buf[n*eventSize : (n+1)*eventSize]
			binary.LittleEndian.PutUint16(rec[0:2], uint16(e.X))
			binary.LittleEndian.PutUint16(rec[2:4], uint16(e.Y))
			binary.LittleEndian.PutUint32(rec[4:8], uint32(dt))
			rec[8], rec[9] = 0, 0
			if e.P == events.On {
				rec[8] = 1
			}
			last = e.T
			n++
		}
		// buf fits the free space, so Write only copies it in place; it
		// fails only on an error an earlier Flush left behind, having
		// written nothing.
		if _, err := bw.Write(buf[:n*eventSize]); err != nil {
			return prev, i, fmt.Errorf("aedat: writing event %d: %w", i, err)
		}
		prev = last
		i += n
		if n < len(chunk) {
			return prev, i, badEvent(i, evs[i], prev, res)
		}
	}
	return prev, len(evs), nil
}

// badEvent is encode's error for event i, which failed a check: its
// address, its order after prev, or the range of its delta, tested in
// that order. It stays out of encode's loop to keep that loop small.
func badEvent(i int, e events.Event, prev int64, res events.Resolution) error {
	if !res.Contains(int(e.X), int(e.Y)) {
		return fmt.Errorf("aedat: event %d at (%d,%d) outside %dx%d", i, e.X, e.Y, res.A, res.B)
	}
	if dt := e.T - prev; dt > 0 {
		return fmt.Errorf("aedat: event %d timestamp delta %d out of range", i, dt)
	}
	return fmt.Errorf("aedat: event %d at t=%d after t=%d: %w", i, e.T, prev, events.ErrUnsorted)
}

// maxPrealloc caps how many events Read reserves from the header's count
// before any event is decoded when r is not a regular file; a forged count
// then costs at most this much up front, and append grows the slice for
// genuine longer recordings.
const maxPrealloc = 1 << 20

// headerSize is the encoded length of header.
const headerSize = 20

// Read decodes a full recording from r through the same loop as
// Reader.NextWindowInto. It reserves room for the header's count of
// events up front, but never for more than a regular file has room for,
// nor for more than maxPrealloc from any other reader.
func Read(r io.Reader) (events.Resolution, []events.Event, error) {
	limit := uint64(maxPrealloc)
	if f, ok := r.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			limit = uint64(max(fi.Size()-headerSize, 0)) / eventSize
		}
	}
	dec, err := NewReader(r)
	if err != nil {
		return events.Resolution{}, nil, err
	}
	evs := make([]events.Event, 0, min(dec.Remaining(), limit))
	evs, err = dec.decode(evs, 0, true)
	if err != io.EOF {
		return dec.Resolution(), nil, err
	}
	return dec.Resolution(), evs, nil
}

// bufferSize is the Reader's and the writers' buffer: large enough that a
// dense window (~30 KB of records on the ENG scenes) costs at most one
// read or write call, where bufio's 4 KiB default cost several.
const bufferSize = 64 << 10

// polarity maps a record's polarity byte to the event polarity: 1 is ON,
// every other value OFF. A table lookup instead of a branch, because ON and
// OFF events interleave and a branch on them mispredicts often.
var polarity = func() (t [256]events.Polarity) {
	for i := range t {
		t[i] = events.Off
	}
	t[1] = events.On
	return t
}()

// Reader decodes a recording incrementally, so hour-long streams can be
// processed frame by frame without holding every event in memory.
type Reader struct {
	br        *bufio.Reader
	res       events.Resolution
	remaining uint64
	prevT     int64
}

// NewReader parses the header and returns a streaming decoder.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, bufferSize)
	var h header
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("aedat: reading header: %w", err)
	}
	if h.Magic != magic {
		return nil, ErrBadMagic
	}
	res := events.Resolution{A: int(h.Width), B: int(h.Height)}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	return &Reader{br: br, res: res, remaining: h.Count}, nil
}

// Resolution returns the recording's sensor resolution.
func (r *Reader) Resolution() events.Resolution { return r.res }

// Remaining returns how many events have not yet been decoded.
func (r *Reader) Remaining() uint64 { return r.remaining }

// NextWindowInto appends to buf all events with timestamps below end and
// returns the extended slice, so streaming pipelines can recycle one window
// buffer instead of allocating per frame. It is the streaming analogue of
// events.Windows for frame-driven pipelines: call it once per frame
// interrupt with end = frame boundary. It returns io.EOF along with any
// final events once the header's count is exhausted.
func (r *Reader) NextWindowInto(buf []events.Event, end int64) ([]events.Event, error) {
	return r.decode(buf, end, false)
}

// decode is the single decode loop behind NextWindowInto and Read. It
// decodes every complete record the buffer holds in one pass, stopping
// before the first event stamped at or after end or at the first outside
// the resolution, then consumes what it decoded with one Discard and
// refills. With all set there is no end: Read cannot express that as an
// end value, since an event may be stamped math.MaxInt64.
func (r *Reader) decode(out []events.Event, end int64, all bool) ([]events.Event, error) {
	w, h := uint(r.res.A), uint(r.res.B)
	for r.remaining > 0 {
		if r.br.Buffered() < eventSize {
			if _, err := r.br.Peek(eventSize); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return out, fmt.Errorf("aedat: reading event: %w", err)
			}
		}
		b, _ := r.br.Peek(r.br.Buffered()) // already buffered: no read, no error
		if n := uint64(len(b) / eventSize); n > r.remaining {
			b = b[:r.remaining*eventSize]
		}
		t := r.prevT
		used := 0
		for ; used+eventSize <= len(b); used += eventSize {
			rec := b[used : used+eventSize : used+eventSize]
			next := t + int64(binary.LittleEndian.Uint32(rec[4:8]))
			x := int16(binary.LittleEndian.Uint16(rec[0:2]))
			y := int16(binary.LittleEndian.Uint16(rec[2:4]))
			if next >= end && !all || uint(int(x)) >= w || uint(int(y)) >= h {
				break
			}
			out = append(out, events.Event{X: x, Y: y, T: next, P: polarity[rec[8]]})
			t = next
		}
		r.br.Discard(used) // at most what is buffered, so it cannot fail
		r.prevT = t
		r.remaining -= uint64(used / eventSize)
		if used+eventSize > len(b) {
			continue // the buffer ran out, not the window
		}
		rec := b[used:]
		if t+int64(binary.LittleEndian.Uint32(rec[4:8])) >= end && !all {
			return out, nil
		}
		x, y := int16(binary.LittleEndian.Uint16(rec[0:2])), int16(binary.LittleEndian.Uint16(rec[2:4]))
		return out, fmt.Errorf("aedat: decoded event at (%d,%d) outside %dx%d", x, y, r.res.A, r.res.B)
	}
	return out, io.EOF
}

// Writer encodes a recording incrementally. The caller must Close to flush
// the buffered tail and must know the event count in advance is NOT
// required: the header count is back-filled only when the underlying writer
// is an io.WriteSeeker; otherwise use Write for one-shot encoding.
type Writer struct {
	w     io.WriteSeeker
	bw    *bufio.Writer
	res   events.Resolution
	prevT int64
	count uint64
}

// NewWriter writes a provisional header and returns a streaming encoder.
func NewWriter(w io.WriteSeeker, res events.Resolution) (*Writer, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(w, bufferSize)
	h := header{Magic: magic, Width: uint16(res.A), Height: uint16(res.B)}
	if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
		return nil, fmt.Errorf("aedat: writing header: %w", err)
	}
	return &Writer{w: w, bw: bw, res: res}, nil
}

// Append encodes a batch of events, which must continue the sorted order of
// everything written so far (events.ErrUnsorted otherwise).
func (w *Writer) Append(evs []events.Event) error {
	prev, n, err := encode(w.bw, w.res, w.prevT, evs)
	w.prevT = prev
	w.count += uint64(n)
	return err
}

// Close flushes buffered events and back-fills the header's event count.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("aedat: flushing: %w", err)
	}
	// Seek back to the count field (offset 12: magic 8 + width 2 + height 2).
	if _, err := w.w.Seek(12, io.SeekStart); err != nil {
		return fmt.Errorf("aedat: seeking to header: %w", err)
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], w.count)
	if _, err := w.w.Write(cnt[:]); err != nil {
		return fmt.Errorf("aedat: back-filling count: %w", err)
	}
	if _, err := w.w.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("aedat: seeking to end: %w", err)
	}
	return nil
}

// Count returns the number of events appended so far.
func (w *Writer) Count() uint64 { return w.count }
