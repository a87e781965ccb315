package aedat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unsafe"

	"ebbiot/internal/events"
)

func sample() []events.Event {
	return []events.Event{
		{X: 0, Y: 0, T: 0, P: events.On},
		{X: 239, Y: 179, T: 15, P: events.Off},
		{X: 7, Y: 9, T: 15, P: events.On}, // duplicate timestamp allowed
		{X: 100, Y: 50, T: 1_000_000, P: events.Off},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, events.DAVIS240, sample()); err != nil {
		t.Fatal(err)
	}
	res, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res != events.DAVIS240 {
		t.Errorf("resolution = %v", res)
	}
	want := sample()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, events.DAVIS240, nil); err != nil {
		t.Fatal(err)
	}
	_, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty round trip yielded %d events", len(got))
	}
}

func TestWriteRejectsUnsorted(t *testing.T) {
	evs := []events.Event{{T: 10}, {T: 5}}
	var buf bytes.Buffer
	if err := Write(&buf, events.DAVIS240, evs); !errors.Is(err, events.ErrUnsorted) {
		t.Errorf("want ErrUnsorted, got %v", err)
	}
}

func TestWriteRejectsOutOfBounds(t *testing.T) {
	evs := []events.Event{{X: 240, Y: 0, T: 0, P: events.On}}
	var buf bytes.Buffer
	if err := Write(&buf, events.DAVIS240, evs); err == nil {
		t.Error("out-of-bounds event should fail to encode")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, _, err := Read(bytes.NewReader(make([]byte, 64))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("want ErrBadMagic, got %v", err)
	}
}

// readWindows drives NextWindowInto over 66 ms windows until it returns an
// error, returning every event decoded and that error.
func readWindows(data []byte) ([]events.Event, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var evs []events.Event
	for end := int64(66_000); ; end += 66_000 {
		if evs, err = r.NextWindowInto(evs, end); err != nil {
			return evs, err
		}
	}
}

func TestReadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, events.DAVIS240, sample()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every cut inside the body, event boundaries included, is a short body:
	// fewer bytes than the header's count promises.
	for n := headerSize; n < len(full); n++ {
		if _, _, err := Read(bytes.NewReader(full[:n])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("Read cut at byte %d: err = %v, want io.ErrUnexpectedEOF", n, err)
		}
		evs, err := readWindows(full[:n])
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("NextWindowInto cut at byte %d: err = %v, want io.ErrUnexpectedEOF", n, err)
		}
		if whole := (n - headerSize) / eventSize; len(evs) != whole {
			t.Errorf("NextWindowInto cut at byte %d decoded %d events, want the %d whole records", n, len(evs), whole)
		}
	}
}

func TestReadForgedCount(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, events.DAVIS240, sample()); err != nil {
		t.Fatal(err)
	}
	for _, count := range []uint64{1 << 62, 1<<64 - 1, maxPrealloc + 1} {
		data := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint64(data[countOffset:], count)
		if _, _, err := Read(bytes.NewReader(data)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("count %d: Read err = %v, want io.ErrUnexpectedEOF", count, err)
		}
		evs, err := readWindows(data)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("count %d: NextWindowInto err = %v, want io.ErrUnexpectedEOF", count, err)
		}
		if len(evs) != len(sample()) {
			t.Errorf("count %d: NextWindowInto decoded %d events, want %d", count, len(evs), len(sample()))
		}
	}

	// From a regular file, Read reserves at most the records the file can
	// hold: the bytes allocated stay within the read buffer, those records
	// and some slack, where the 1 Mi-event cap alone reserves 24 MiB.
	path := filepath.Join(t.TempDir(), "forged.aer")
	for _, count := range []uint64{1 << 62, maxPrealloc + 1} {
		data := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint64(data[countOffset:], count)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = Read(f)
		runtime.ReadMemStats(&after)
		f.Close()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("count %d from a file: Read err = %v, want io.ErrUnexpectedEOF", count, err)
		}
		records := (len(data) - headerSize) / eventSize
		bound := bufferSize + records*int(unsafe.Sizeof(events.Event{})) + 16<<10
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(bound) {
			t.Errorf("count %d from a file of %d records: Read allocated %d bytes, want at most %d", count, records, got, bound)
		}
	}
}

// failAfter is a WriteSeeker over a file that fails every Write once n
// bytes have gone through.
type failAfter struct {
	*os.File
	n int
}

var errDisk = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		w, _ := f.File.Write(p[:f.n])
		f.n = 0
		return w, errDisk
	}
	f.n -= len(p)
	return f.File.Write(p)
}

// TestAppendErrorKeepsCount checks encode's error contract on batches
// larger than the write buffer: each check (address, order, delta range)
// fails with its own text at the failing event's index, and Count and the
// file hold exactly the records before it, wherever it falls relative to
// the buffer's fills. A failing writer reports the first event it could
// not take, and Count stops there.
func TestAppendErrorKeepsCount(t *testing.T) {
	// The buffer's first fill holds first records (the header takes the
	// rest), each later fill bufferSize/eventSize; n spans three fills.
	first := (bufferSize - headerSize) / eventSize
	second := first + bufferSize/eventSize
	n := second + bufferSize/eventSize + 17
	good := make([]events.Event, n)
	for i := range good {
		good[i] = events.Event{X: int16(i % 240), Y: int16(i % 180), T: int64(i) * 7, P: events.On}
		if i%3 == 0 {
			good[i].P = events.Off
		}
	}
	bad := []struct {
		name string
		set  func(evs []events.Event, k int)
		text string
	}{
		{"address", func(evs []events.Event, k int) { evs[k].X = 240 }, "aedat: event %d at (240,%d) outside 240x180"},
		{"order", func(evs []events.Event, k int) { evs[k].T = -1 }, "aedat: event %d at t=-1 after t=%d: " + events.ErrUnsorted.Error()},
		{"delta", func(evs []events.Event, k int) { evs[k].T += 1 << 32 }, "aedat: event %d timestamp delta %d out of range"},
	}
	dir := t.TempDir()
	for _, b := range bad {
		for _, k := range []int{0, 1, first - 1, first, first + 1, second, n - 1} {
			evs := slices.Clone(good)
			b.set(evs, k)
			var want string
			switch b.name {
			case "address":
				want = fmt.Sprintf(b.text, k, evs[k].Y)
			case "order":
				prev := int64(0)
				if k > 0 {
					prev = evs[k-1].T
				}
				want = fmt.Sprintf(b.text, k, prev)
			case "delta":
				prev := int64(0)
				if k > 0 {
					prev = evs[k-1].T
				}
				want = fmt.Sprintf(b.text, k, evs[k].T-prev)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.aer", b.name, k))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWriter(f, events.DAVIS240)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(evs); err == nil || err.Error() != want {
				t.Errorf("%s at %d: Append err = %v, want %q", b.name, k, err, want)
			}
			if w.Count() != uint64(k) {
				t.Errorf("%s at %d: Count = %d after the error", b.name, k, w.Count())
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			f.Close()
			got := readFile(t, path)
			if !slices.Equal(got, evs[:k]) {
				t.Errorf("%s at %d: the file holds %d events, want the %d before the error", b.name, k, len(got), k)
			}
		}
	}

	for _, limit := range []int{headerSize + 5, bufferSize + 25, 2*bufferSize + 3} {
		f, err := os.Create(filepath.Join(dir, "fail.aer"))
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWriter(&failAfter{File: f, n: limit}, events.DAVIS240)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Append(good)
		f.Close()
		if !errors.Is(err, errDisk) {
			t.Fatalf("limit %d: Append err = %v, want errDisk", limit, err)
		}
		if want := fmt.Sprintf("aedat: writing event %d: disk full", w.Count()); err.Error() != want {
			t.Errorf("limit %d: Append err %q, want %q", limit, err, want)
		}
		// Every record counted was taken by the buffer, whose failed flush
		// held more than the writer took and at most one buffer's worth.
		if c := headerSize + int(w.Count())*eventSize; c <= limit || c > limit+bufferSize {
			t.Errorf("limit %d: Count %d covers %d bytes", limit, w.Count(), c)
		}
		count := w.Count()
		if err := w.Append(good[n-1:]); !errors.Is(err, errDisk) || w.Count() != count {
			t.Errorf("limit %d: Append after a failed flush: err %v, Count %d, was %d", limit, err, w.Count(), count)
		}
	}
}

// readFile decodes the recording at path.
func readFile(t *testing.T, path string) []events.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, evs, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestStreamingReaderWindows(t *testing.T) {
	evs := []events.Event{
		{X: 1, Y: 1, T: 10, P: events.On},
		{X: 2, Y: 2, T: 60, P: events.On},
		{X: 3, Y: 3, T: 120, P: events.Off},
		{X: 4, Y: 4, T: 130, P: events.On},
	}
	var buf bytes.Buffer
	if err := Write(&buf, events.DAVIS240, evs); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := r.NextWindowInto(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) != 2 {
		t.Fatalf("window 1 has %d events, want 2", len(w1))
	}
	w2, err := r.NextWindowInto(nil, 200)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF at stream end, got %v", err)
	}
	if len(w2) != 2 {
		t.Fatalf("window 2 has %d events, want 2", len(w2))
	}
}

func TestStreamingWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.aer")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, events.DAVIS240)
	if err != nil {
		t.Fatal(err)
	}
	evs := sample()
	if err := w.Append(evs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(evs[2:]); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 4 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	res, got, err := Read(rf)
	if err != nil {
		t.Fatal(err)
	}
	if res != events.DAVIS240 {
		t.Errorf("resolution = %v", res)
	}
	if len(got) != 4 {
		t.Fatalf("got %d events", len(got))
	}
	for i, e := range evs {
		if got[i] != e {
			t.Errorf("event %d = %v, want %v", i, got[i], e)
		}
	}
}

func TestStreamingWriterRejectsRegression(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "rec.aer"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewWriter(f, events.DAVIS240)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]events.Event{{T: 100, P: events.On}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]events.Event{{T: 50, P: events.On}}); !errors.Is(err, events.ErrUnsorted) {
		t.Errorf("want ErrUnsorted, got %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Arbitrary sorted in-bounds streams must round trip exactly.
	prop := func(raw []uint32) bool {
		evs := make([]events.Event, len(raw))
		var tcur int64
		for i, r := range raw {
			tcur += int64(r % 100000)
			p := events.On
			if r%2 == 0 {
				p = events.Off
			}
			evs[i] = events.Event{
				X: int16(r % 240),
				Y: int16((r / 240) % 180),
				T: tcur,
				P: p,
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, events.DAVIS240, evs); err != nil {
			return false
		}
		_, got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(evs) {
			return false
		}
		for i := range evs {
			if got[i] != evs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFileSizeMatchesFormula(t *testing.T) {
	var buf bytes.Buffer
	evs := sample()
	if err := Write(&buf, events.DAVIS240, evs); err != nil {
		t.Fatal(err)
	}
	want := 20 + len(evs)*10 // header 8+2+2+8, 10 bytes per event
	if headerSize != 20 || eventSize != 10 {
		t.Errorf("headerSize %d, eventSize %d: the format says 20 and 10", headerSize, eventSize)
	}
	if buf.Len() != want {
		t.Errorf("encoded size = %d, want %d", buf.Len(), want)
	}
}

func BenchmarkWrite(b *testing.B) {
	evs := make([]events.Event, 100000)
	for i := range evs {
		evs[i] = events.Event{X: int16(i % 240), Y: int16(i % 180), T: int64(i * 10), P: events.On}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, events.DAVIS240, evs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	evs := make([]events.Event, 100000)
	for i := range evs {
		evs[i] = events.Event{X: int16(i % 240), Y: int16(i % 180), T: int64(i * 10), P: events.On}
	}
	var buf bytes.Buffer
	if err := Write(&buf, events.DAVIS240, evs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeWindows replays a recording at the ENG replica's density
// (~3k events per 66 ms window, random polarity) through NextWindowInto
// with one recycled window buffer, as AEDATSource does. The recording is
// read from a file, so the read calls the buffer size sets are counted.
func BenchmarkDecodeWindows(b *testing.B) {
	const (
		frameUS = 66_000
		windows = 30
		perWin  = 3_000
	)
	rng := rand.New(rand.NewSource(1))
	evs := make([]events.Event, 0, windows*perWin)
	var t int64
	for len(evs) < cap(evs) {
		t += rng.Int63n(2 * frameUS / perWin) // mean dt 22 us
		p := events.Off
		if rng.Intn(2) == 1 {
			p = events.On
		}
		evs = append(evs, events.Event{X: int16(rng.Intn(240)), Y: int16(rng.Intn(180)), T: t, P: p})
	}
	path := filepath.Join(b.TempDir(), "eng.aer")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := Write(f, events.DAVIS240, evs); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(headerSize + len(evs)*eventSize))
	b.ReportAllocs()
	b.ResetTimer()
	var buf []events.Event
	var decoded int
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewReader(f)
		if err != nil {
			b.Fatal(err)
		}
		decoded = 0
		for end := int64(frameUS); ; end += frameUS {
			buf, err = r.NextWindowInto(buf[:0], end)
			decoded += len(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		f.Close()
	}
	if decoded != len(evs) {
		b.Fatalf("decoded %d events, want %d", decoded, len(evs))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

// countOffset is where the header's event count sits (after the magic,
// width and height).
const countOffset = 12

// record encodes one raw event record; any polarity byte is allowed.
func record(x, y uint16, dt uint32, p byte) []byte {
	rec := make([]byte, eventSize)
	binary.LittleEndian.PutUint16(rec[0:2], x)
	binary.LittleEndian.PutUint16(rec[2:4], y)
	binary.LittleEndian.PutUint32(rec[4:8], dt)
	rec[8] = p
	return rec
}

// withHeader prefixes body with a valid header for a width x height sensor
// whose count field says count.
func withHeader(width, height uint16, count uint64, body []byte) []byte {
	data := make([]byte, headerSize, headerSize+len(body))
	copy(data, magic[:])
	binary.LittleEndian.PutUint16(data[8:10], width)
	binary.LittleEndian.PutUint16(data[10:12], height)
	binary.LittleEndian.PutUint64(data[countOffset:], count)
	return append(data, body...)
}

// oracle is the per-event decoder the bulk loop replaced: a Peek of the
// next record for each window-boundary test and an io.ReadFull for each
// event. It is the differential reference for Read and NextWindowInto, and
// follows the same error contract: io.EOF only after the header's count,
// io.ErrUnexpectedEOF when the body ends first.
type oracle struct {
	br        *bufio.Reader
	res       events.Resolution
	remaining uint64
	prevT     int64
	scratch   [eventSize]byte
}

func newOracle(data []byte) (*oracle, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	var h header
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return nil, err
	}
	if h.Magic != magic {
		return nil, ErrBadMagic
	}
	return &oracle{br: br, res: events.Resolution{A: int(h.Width), B: int(h.Height)}, remaining: h.Count}, nil
}

// next decodes one event.
func (o *oracle) next() (events.Event, error) {
	if o.remaining == 0 {
		return events.Event{}, io.EOF
	}
	if _, err := io.ReadFull(o.br, o.scratch[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return events.Event{}, fmt.Errorf("aedat: reading event: %w", err)
	}
	o.remaining--
	x := binary.LittleEndian.Uint16(o.scratch[0:2])
	y := binary.LittleEndian.Uint16(o.scratch[2:4])
	dt := binary.LittleEndian.Uint32(o.scratch[4:8])
	o.prevT += int64(dt)
	p := events.Off
	if o.scratch[8] == 1 {
		p = events.On
	}
	e := events.Event{X: int16(x), Y: int16(y), T: o.prevT, P: p}
	if !o.res.Contains(int(e.X), int(e.Y)) {
		return events.Event{}, fmt.Errorf("aedat: decoded event at (%d,%d) outside %dx%d", e.X, e.Y, o.res.A, o.res.B)
	}
	return e, nil
}

// window decodes the events stamped below end.
func (o *oracle) window(buf []events.Event, end int64) ([]events.Event, error) {
	for {
		if o.remaining == 0 {
			return buf, io.EOF
		}
		rec, err := o.br.Peek(eventSize)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, fmt.Errorf("aedat: peeking event: %w", err)
		}
		if o.prevT+int64(binary.LittleEndian.Uint32(rec[4:8])) >= end {
			return buf, nil
		}
		e, err := o.next()
		if err != nil {
			return buf, err
		}
		buf = append(buf, e)
	}
}

// read decodes every remaining event, as Read does.
func (o *oracle) read() ([]events.Event, error) {
	var evs []events.Event
	for {
		e, err := o.next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return nil, err
		}
		evs = append(evs, e)
	}
}

// errClass names the part of the error contract err falls under.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case err == io.EOF:
		return "EOF"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	default:
		return "other"
	}
}

// readers are the chunkings the decoder must be indifferent to.
var readers = []func(io.Reader) io.Reader{
	func(r io.Reader) io.Reader { return r },
	iotest.OneByteReader,
	iotest.HalfReader,
	iotest.DataErrReader,
}

// windowEnds turns fuzzer bytes into window ends anchored on the
// recording's own timestamps, so ends equal to an event's timestamp, empty
// windows and ends below the previous end all occur: each byte advances
// 0..63 distinct stamps and offsets the end by -1..+2 us from that stamp.
func windowEnds(body []byte, count uint64, steps []byte) []int64 {
	stamps := []int64{0}
	var t int64
	for b := body; len(b) >= eventSize && count > 0; b, count = b[eventSize:], count-1 {
		t += int64(binary.LittleEndian.Uint32(b[4:8]))
		if t != stamps[len(stamps)-1] {
			stamps = append(stamps, t)
		}
	}
	ends := make([]int64, 0, len(steps))
	idx := 0
	for _, s := range steps {
		idx = min(idx+int(s>>2), len(stamps)-1)
		ends = append(ends, stamps[idx]+int64(s&3)-1)
	}
	return ends
}

// checkAgainstOracle decodes data through Read and through NextWindowInto
// at ends (then one drain to math.MaxInt64), with the reader chunked by
// wrap, and requires the oracle's events and error class at every step.
func checkAgainstOracle(t *testing.T, data []byte, ends []int64, wrap func(io.Reader) io.Reader) {
	t.Helper()
	_, got, gerr := Read(wrap(bytes.NewReader(data)))
	o, oerr := newOracle(data)
	if oerr != nil {
		t.Fatalf("oracle header: %v", oerr)
	}
	want, werr := o.read()
	if errClass(gerr) != errClass(werr) || !sameEvents(got, want) {
		t.Fatalf("Read = %d events, %v; oracle %d events, %v", len(got), gerr, len(want), werr)
	}

	r, err := NewReader(wrap(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if o, err = newOracle(data); err != nil {
		t.Fatalf("oracle header: %v", err)
	}
	var buf []events.Event
	for i, end := range append(ends, math.MaxInt64) {
		buf, gerr = r.NextWindowInto(buf[:0], end)
		want, werr := o.window(nil, end)
		if errClass(gerr) != errClass(werr) || !sameEvents(buf, want) {
			t.Fatalf("window %d (end %d) = %v, %v; oracle %v, %v", i, end, buf, gerr, want, werr)
		}
		if gerr != nil {
			return
		}
	}
}

func sameEvents(a, b []events.Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// body encodes n events with in-range addresses, deltas below maxDT and
// polarity bytes drawn from pol.
func body(rng *rand.Rand, n int, maxDT int64, pol []byte) []byte {
	out := make([]byte, 0, n*eventSize)
	for i := 0; i < n; i++ {
		out = append(out, record(uint16(rng.Intn(240)), uint16(rng.Intn(180)),
			uint32(rng.Int63n(maxDT)), pol[rng.Intn(len(pol))])...)
	}
	return out
}

// steps returns n random window steps.
func steps(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// oracleCase is one seed input: see oracleData.
type oracleCase struct {
	extra int8
	pad   uint16
	body  []byte
	steps []byte
}

// edgePad is the filler that starts the body 26 bytes before the end of the
// Reader's first 64 KiB fill (header included), so body records straddle
// the buffer edge.
const edgePad = (bufferSize - headerSize - 26) / eventSize

func oracleCases() []oracleCase {
	rng := rand.New(rand.NewSource(3))
	// Small bodies keep the fuzzer's minimization of inputs derived from
	// them fast.
	mixed := body(rng, 60, 50, []byte{0, 1})
	odd := body(rng, 40, 50, []byte{0, 1, 2, 0x7F, 0x80, 0xFF})
	zeroDT := body(rng, 30, 1, []byte{0, 1}) // every dt 0: one long run
	runs := body(rng, 60, 3, []byte{0, 1})   // dt 0 runs broken by small steps
	exact := make([]byte, 32)                // advance 0-3 stamps, offset 0: end = a stamp
	for i := range exact {
		exact[i] = 1 | byte(i%4)<<2
	}
	var maxDT []byte // the largest deltas: stamps far past any window end
	for i := 0; i < 40; i++ {
		maxDT = append(maxDT, record(uint16(i), uint16(i), math.MaxUint32, byte(i%2))...)
	}
	outside := append(body(rng, 10, 50, []byte{1}), record(240, 3, 5, 0)...)
	outside = append(outside, body(rng, 10, 50, []byte{0})...)
	return []oracleCase{
		{0, 0, mixed, steps(rng, 12)},                // mixed ON/OFF
		{0, 0, odd, steps(rng, 8)},                   // polarity bytes other than 0/1: OFF
		{0, 0, zeroDT, steps(rng, 4)},                // every dt 0
		{0, 0, runs, steps(rng, 12)},                 // dt 0 runs
		{0, 0, runs, exact},                          // window ends equal to event stamps
		{0, 0, maxDT, steps(rng, 8)},                 // the largest deltas
		{0, 0, mixed, make([]byte, 6)},               // empty windows: the end never advances
		{0, edgePad, mixed, steps(rng, 12)},          // records straddle the 64 KiB buffer edge
		{3, edgePad, mixed, steps(rng, 12)},          // ... and the body ends short
		{2, 0, mixed, steps(rng, 12)},                // body two records short of the count
		{1, 0, mixed[:len(mixed)-4], steps(rng, 12)}, // body cut mid-record
		{-5, 0, mixed, steps(rng, 12)},               // bytes past the count
		{0, 0, outside, steps(rng, 8)},               // an address outside 240x180
		{0, 0, nil, []byte{0, 4}},                    // no events
	}
}

// maxPad bounds the filler a fuzz input may ask for: past the 64 KiB edge,
// but small enough to keep executions fast.
const maxPad = 8192

// oracleData assembles a recording: a 240x180 header, then pad filler
// records (origin, dt 0, OFF; at most maxPad), then body. The header's count
// is the number of whole records plus extra.
func oracleData(extra int8, pad uint16, body []byte) ([]byte, uint64) {
	n := min(int(pad), maxPad) * eventSize
	all := append(make([]byte, n, n+len(body)), body...)
	count := max(int64(len(all)/eventSize)+int64(extra), 0)
	return withHeader(240, 180, uint64(count), all), uint64(count)
}

// FuzzAEDATDecoder decodes a valid header plus fuzzer bytes at
// fuzzer-chosen window ends, through fuzzer-chosen read chunking, and
// requires the per-event oracle's events and error class at every window.
// Its seed corpus, every case under every chunking, is the differential
// test `go test` runs. The filler count lets a small body sit at the 64 KiB
// buffer edge, which keeps minimizing an input cheap.
func FuzzAEDATDecoder(f *testing.F) {
	for _, c := range oracleCases() {
		for chunking := range readers {
			f.Add(c.extra, c.pad, c.body, c.steps, uint8(chunking))
		}
	}
	f.Add(int8(0), uint16(0), []byte("arbitrary bytes, mostly out of range"), []byte{1, 2, 3}, uint8(1))
	f.Fuzz(func(t *testing.T, extra int8, pad uint16, body, steps []byte, chunking uint8) {
		data, count := oracleData(extra, pad, body)
		checkAgainstOracle(t, data, windowEnds(data[headerSize:], count, steps), readers[int(chunking)%len(readers)])
	})
}
