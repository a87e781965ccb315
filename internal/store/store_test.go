package store

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"ebbiot/internal/geometry"
)

// snap builds a deterministic snapshot for sensor/frame with frameUS-long
// windows and a box count derived from the frame index.
func snap(sensor, frame int, frameUS int64) Snapshot {
	s := Snapshot{
		Sensor:  sensor,
		Name:    "s",
		Frame:   frame,
		StartUS: int64(frame) * frameUS,
		EndUS:   int64(frame+1) * frameUS,
		Events:  100 + frame,
		ProcUS:  int64(10 + frame),
	}
	for b := 0; b < frame%3; b++ {
		s.Boxes = append(s.Boxes, geometry.NewBox(sensor*10+b, frame, 8+b, 6))
	}
	return s
}

// writeStore records frames windows for each listed sensor, interleaved
// round-robin per frame (the shape a multi-worker Runner produces), and
// closes the writer, finalizing the run.
func writeStore(t *testing.T, dir string, opts Options, sensors []int, frames int, frameUS int64) {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < frames; f++ {
		for _, id := range sensors {
			if err := w.Append(snap(id, f, frameUS)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// crash simulates the process dying mid-run: buffered bytes reach the OS
// (the drill truncates or flips them explicitly when it wants torn data),
// but no sealing, finalization or manifest write happens, and the
// directory lock is released so the same process can reopen the store the
// way a restarted process would.
func (w *Writer) crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.f != nil {
		w.bw.Flush()
		w.f.Close()
		w.f = nil
	}
	releaseDirLock(w.lock)
	w.lock = nil
}

// collect drains an iterator.
func collect(t *testing.T, it Iterator) []Snapshot {
	t.Helper()
	defer it.Close()
	var out []Snapshot
	for {
		s, err := it.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
}

// replayOne opens a one-sensor replay of one run, failing the test on a
// selector error.
func replayOne(t *testing.T, r *Reader, run uint64, sensor int, t0, t1 int64) Iterator {
	t.Helper()
	it, err := r.Replay(run, []int{sensor}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, s := range []Snapshot{
		{},
		{Sensor: 3, Name: "sensor3", Frame: 7, StartUS: 462_000, EndUS: 528_000, Events: 123, ProcUS: 456,
			Boxes: []geometry.Box{geometry.NewBox(-5, 20, 30, 16), geometry.NewBox(0, 0, 1, 1)}},
		snap(12, 99, 66_000),
	} {
		p := encodeSnapshot(nil, s)
		got, err := decodeSnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("decode(encode(%+v)) = %+v", s, got)
		}
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	good := encodeSnapshot(nil, snap(1, 5, 66_000))
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeSnapshot(good[:cut]); err == nil && cut < len(good) {
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
	// Absurd box count must be rejected by length check, not allocated.
	bad := append([]byte(nil), good...)
	le.PutUint32(bad[len(bad)-4-len(snap(1, 5, 66_000).Boxes)*16:], math.MaxUint32)
	if _, err := decodeSnapshot(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode with huge box count: %v, want ErrCorrupt", err)
	}
}

func TestWriteScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, Options{}, []int{0, 1, 2}, 50, 66_000)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Runs != 1 || st.Records != 150 || st.DroppedBytes != 0 {
		t.Fatalf("Stats() = %+v, want 1 run, 150 records, 0 dropped", st)
	}
	if st.MinEndUS != 66_000 || st.MaxEndUS != 50*66_000 {
		t.Fatalf("Stats() bounds = [%d, %d]", st.MinEndUS, st.MaxEndUS)
	}
	runs := r.Runs()
	if len(runs) != 1 || !runs[0].Finalized || runs[0].Recovered || runs[0].Records != 150 {
		t.Fatalf("Runs() = %+v, want one finalized run with 150 records", runs)
	}
	if !reflect.DeepEqual(runs[0].Sensors, []int{0, 1, 2}) {
		t.Fatalf("run sensors = %v", runs[0].Sensors)
	}
	for _, id := range []int{0, 1, 2} {
		got := collect(t, replayOne(t, r, 0, id, 0, math.MaxInt64))
		if len(got) != 50 {
			t.Fatalf("sensor %d: %d records, want 50", id, len(got))
		}
		for f, s := range got {
			if want := snap(id, f, 66_000); !reflect.DeepEqual(s, want) {
				t.Fatalf("sensor %d frame %d: %+v, want %+v", id, f, s, want)
			}
		}
	}
}

// TestScanTimeBoundsAndIndexSeek pins the per-sensor query: for every
// sensor, a one-sensor Replay yields exactly the appended records whose
// windows overlap [t0, t1), in append order. The windows put their bounds
// on segment edges and sparse-index entries, where segment selection and
// seekOffset decide; others match nothing; one sensor is not in the run.
func TestScanTimeBoundsAndIndexSeek(t *testing.T) {
	const frameUS = 66_000
	dir := t.TempDir()
	// Small segments and index stride, so bounded queries skip whole
	// segments and seek inside the rest. Sensor 2 joins late and sensor 3
	// drops out early, so some segments lack a sensor.
	w, err := Open(dir, Options{SegmentBytes: 2048, IndexEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var appended []Snapshot
	for f := 0; f < 100; f++ {
		for _, id := range []int{0, 1, 2, 3} {
			if (id == 2 && f < 30) || (id == 3 && f >= 40) {
				continue
			}
			s := snap(id, f, frameUS)
			if err := w.Append(s); err != nil {
				t.Fatal(err)
			}
			appended = append(appended, s)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	type window struct{ t0, t1 int64 }
	windows := []window{
		{0, math.MaxInt64},
		{50 * frameUS, 60 * frameUS},
		{0, frameUS},
		{99 * frameUS, math.MaxInt64},
		{7*frameUS + 1, 9*frameUS - 1},
		{1000 * frameUS, 2000 * frameUS}, // past the end
		{60 * frameUS, 50 * frameUS},     // inverted
		{5 * frameUS, 5 * frameUS},       // empty
	}
	segs := r.runs[0].segs
	entries := 0
	for _, seg := range segs {
		m := seg.meta
		windows = append(windows,
			window{m.MinEndUS, m.MaxEndUS},
			window{0, m.MinEndUS},
			window{m.MaxEndUS, math.MaxInt64},
			window{m.MaxEndUS - 1, m.MaxEndUS + frameUS})
		for _, e := range m.Entries {
			entries++
			windows = append(windows,
				window{e.CumMaxEndUS, e.CumMaxEndUS + 2*frameUS},
				window{e.CumMaxEndUS - 1, e.CumMaxEndUS + 1})
		}
	}
	if len(segs) < 4 || entries == 0 {
		t.Fatalf("%d segments, %d index entries: the edges are not exercised", len(segs), entries)
	}
	for _, sensor := range []int{0, 1, 2, 3, 9} { // the run holds no sensor 9
		for _, w := range windows {
			got := collect(t, replayOne(t, r, 0, sensor, w.t0, w.t1))
			var want []Snapshot
			for _, s := range appended {
				if s.Sensor == sensor && s.StartUS < w.t1 && s.EndUS > w.t0 {
					want = append(want, s)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sensor %d over [%d, %d): %d records, want %d", sensor, w.t0, w.t1, len(got), len(want))
			}
		}
	}
}

func TestSegmentRotationAndTwoRuns(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 2048, IndexEvery: 8}
	writeStore(t, dir, opts, []int{0}, 100, 66_000)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments after 100 records with 2 KiB rotation", len(segs))
	}
	// Reopen: a second run recorded into the same directory.
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w.RunID() != 2 {
		t.Fatalf("second Open got run %d, want 2", w.RunID())
	}
	for f := 0; f < 20; f++ {
		if err := w.Append(snap(0, f, 66_000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs := r.Runs()
	if len(runs) != 2 || runs[0].ID != 1 || runs[1].ID != 2 {
		t.Fatalf("Runs() = %+v, want runs 1 and 2", runs)
	}
	if runs[0].Records != 100 || runs[1].Records != 20 {
		t.Fatalf("run records = %d, %d, want 100, 20", runs[0].Records, runs[1].Records)
	}
	// Each run is independently scannable; its frames start from 0.
	for i, want := range []int{100, 20} {
		got := collect(t, replayOne(t, r, runs[i].ID, 0, 0, math.MaxInt64))
		if len(got) != want {
			t.Fatalf("run %d: %d records, want %d", runs[i].ID, len(got), want)
		}
		for f, s := range got {
			if s.Frame != f {
				t.Fatalf("run %d record %d has frame %d: append order broken", runs[i].ID, f, s.Frame)
			}
		}
	}
	// Both runs verify independently.
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || len(rep.Runs) != 2 {
		t.Fatalf("Verify = %+v, want 2 clean runs", rep)
	}
}

func TestReplayMergesSensorsInTimestampOrder(t *testing.T) {
	const frameUS = 66_000
	dir := t.TempDir()
	// Interleave sensors unevenly: all of sensor 1's records land after
	// all of sensor 0's in file order, so replay must reorder.
	w, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 40; f++ {
		if err := w.Append(snap(0, f, frameUS)); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < 40; f++ {
		if err := w.Append(snap(1, f, frameUS)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	it, err := r.Replay(0, nil, 0, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	if len(got) != 80 {
		t.Fatalf("replay yielded %d records, want 80", len(got))
	}
	perSensor := map[int]int{}
	for i, s := range got {
		if i > 0 && snapLess(&s, &got[i-1]) {
			t.Fatalf("record %d (%d/%d) out of (EndUS, Sensor, Frame) order after (%d/%d)",
				i, s.EndUS, s.Sensor, got[i-1].EndUS, got[i-1].Sensor)
		}
		if s.Frame != perSensor[s.Sensor] {
			t.Fatalf("sensor %d frame %d arrived out of frame order", s.Sensor, s.Frame)
		}
		perSensor[s.Sensor]++
	}
	// Sensor subset selection.
	it, err = r.Replay(0, []int{1}, 0, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, it); len(got) != 40 || got[0].Sensor != 1 {
		t.Fatalf("Replay([1]) yielded %d records (first sensor %d)", len(got), got[0].Sensor)
	}
}

// TestReplaySinglePass pins the read-amplification contract of the
// shared-segment merge: a k-sensor replay opens each matching segment
// exactly once and reads each stored byte once, where the previous design
// ran k sequential cursors (k x amplification).
func TestReplaySinglePass(t *testing.T) {
	dir := t.TempDir()
	// One run: 100 round-robin frames from 4 sensors, then 40 more with
	// sensor 3 silent — a dropout must not stall or disorder the merge.
	w, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 100; f++ {
		for _, id := range []int{0, 1, 2, 3} {
			if err := w.Append(snap(id, f, 66_000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f := 100; f < 140; f++ {
		for _, id := range []int{0, 1, 2} { // sensor 3 goes silent
			if err := w.Append(snap(id, f, 66_000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Segments < 2 {
		t.Fatalf("want a multi-segment store, got %d segments", st.Segments)
	}
	it, err := r.Replay(0, nil, 0, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	if len(got) != 520 {
		t.Fatalf("replay yielded %d records, want 520", len(got))
	}
	for i := 1; i < len(got); i++ {
		if snapLess(&got[i], &got[i-1]) {
			t.Fatalf("record %d out of order", i)
		}
	}
	rs := it.(*sharedMergeIterator).Stats()
	if rs.SegmentsOpened != int64(st.Segments) {
		t.Fatalf("opened %d segments of %d: not single-pass", rs.SegmentsOpened, st.Segments)
	}
	if want := st.DataBytes - int64(st.Segments)*segHeaderLen; rs.BytesRead != want {
		t.Fatalf("read %d bytes of %d stored: amplified", rs.BytesRead, want)
	}
	if rs.Records != 520 {
		t.Fatalf("streamed %d records, want 520", rs.Records)
	}
	// Round-robin interleaving keeps the merge buffer near the sensor
	// count; the dropout must not make the merge buffer the rest of the
	// store — once the segment metadata shows no further segment holds
	// sensor 3, its empty queue stops blocking pops. The bound is one
	// segment's worth of records, not the 120 post-dropout records.
	if rs.Buffered > 100 {
		t.Fatalf("buffered %d snapshots: merge is not using segment metadata to release the silent sensor", rs.Buffered)
	}
}

// lastSegPath returns the path of the highest-numbered segment.
func lastSegPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d segs)", err, len(segs))
	}
	return filepath.Join(dir, segmentName(segs[len(segs)-1]))
}

func TestRecoveryTruncatedTailRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 20; f++ {
		if err := w.Append(snap(0, f, 66_000)); err != nil {
			t.Fatal(err)
		}
	}
	w.crash() // no seal, no finalize
	path := lastSegPath(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last record in half — a torn append.
	if err := os.Truncate(path, fi.Size()-20); err != nil {
		t.Fatal(err)
	}
	// A reader sees the crashed run's valid prefix; the torn tail of an
	// unfinalized run is recoverable, not corruption.
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, replayOne(t, r, 0, 0, 0, math.MaxInt64)); len(got) != 19 {
		t.Fatalf("reader sees %d records after torn tail, want 19", len(got))
	}
	if st := r.Stats(); st.DroppedBytes == 0 {
		t.Fatalf("Stats() = %+v, want dropped tail bytes reported", st)
	}
	// Reopening recovers the crashed run: tail truncated to the last valid
	// record, run finalized with the recovered flag; appends go to a new
	// run.
	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(snap(0, 0, 66_000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs := r.Runs()
	if len(runs) != 2 || !runs[0].Recovered || runs[0].Records != 19 || runs[1].Records != 1 {
		t.Fatalf("Runs() after recovery = %+v, want recovered 19-record run + 1-record run", runs)
	}
	got := collect(t, replayOne(t, r, runs[0].ID, 0, 0, math.MaxInt64))
	if len(got) != 19 {
		t.Fatalf("%d records in recovered run, want 19", len(got))
	}
	for f, s := range got {
		if want := snap(0, f, 66_000); !reflect.DeepEqual(s, want) {
			t.Fatalf("frame %d corrupted by recovery: %+v", f, s)
		}
	}
	if rep, err := Verify(dir); err != nil || !rep.Clean() {
		t.Fatalf("Verify after recovery: %+v, %v", rep, err)
	}
}

func TestCrashedRunBitFlippedTailRecovered(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 20; f++ {
		if err := w.Append(snap(0, f, 66_000)); err != nil {
			t.Fatal(err)
		}
	}
	w.crash()
	path := lastSegPath(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Recovery truncates the unfinalized run to the last valid record.
	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Records != 19 {
		t.Fatalf("Verify after recovery = %+v, want 19 clean records", rep)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, replayOne(t, r, 0, 0, 0, math.MaxInt64)); len(got) != 19 {
		t.Fatalf("%d records after recovery, want 19", len(got))
	}
}

func TestSealedSegmentDamageIsReportedNotRecovered(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, Options{}, []int{0}, 20, 66_000)
	path := lastSegPath(t, dir)
	// Flip one payload byte inside the final record of the finalized run.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatalf("Verify = %+v, want the flipped bit flagged", rep)
	}
	// Scans serve the intact prefix, then surface a typed error naming the
	// damage — never silent truncation.
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	it := replayOne(t, r, 0, 0, 0, math.MaxInt64)
	var got []Snapshot
	var scanErr error
	for {
		s, err := it.Next()
		if err != nil {
			scanErr = err
			break
		}
		got = append(got, s)
	}
	it.Close()
	if !errors.Is(scanErr, ErrCorrupt) {
		t.Fatalf("scan over bit-flipped sealed segment ended with %v, want ErrCorrupt", scanErr)
	}
	var ce *CorruptionError
	if !errors.As(scanErr, &ce) || ce.Segment == 0 {
		t.Fatalf("scan error %v is not a *CorruptionError naming the segment", scanErr)
	}
	if len(got) != 19 {
		t.Fatalf("scan yielded %d records before the corruption, want 19", len(got))
	}
	for f, s := range got {
		if want := snap(0, f, 66_000); !reflect.DeepEqual(s, want) {
			t.Fatalf("frame %d damaged: %+v", f, s)
		}
	}
	// A finalized run is immutable: reopening the store for append must
	// NOT truncate the damage away — it belongs to a sealed segment whose
	// manifest entry still committed to the full content.
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := Verify(dir); err != nil || rep.Clean() {
		t.Fatalf("Verify after reopen = %+v, %v: finalized-run damage must persist and stay reported", rep, err)
	}
}

// TestReplayStopsAtT1 pins the upper bound of a narrow query on the
// benchmark store's shape (4 sensors x 25k frames, BenchmarkReplaySensor-
// Window): the 100-frame window at frame 20,000 yields its 100 snapshots
// per selected sensor and stops streaming once every selected sensor has a
// window starting at t1, instead of reading on to the end of the run.
func TestReplayStopsAtT1(t *testing.T) {
	r, err := OpenReader(benchStoreDir(t))
	if err != nil {
		t.Fatal(err)
	}
	const f0, frames = 20_000, 100
	const t0, t1 = f0 * 66_000, (f0 + frames) * 66_000
	for _, sensors := range [][]int{{1}, {0, 1, 2, 3}} {
		it, err := r.Replay(0, sensors, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, it)
		if len(got) != frames*len(sensors) {
			t.Fatalf("sensors %v: %d snapshots, want %d", sensors, len(got), frames*len(sensors))
		}
		for i, s := range got {
			if want := benchSnap(sensors[i%len(sensors)], f0+i/len(sensors)); !reflect.DeepEqual(s, want) {
				t.Fatalf("sensors %v: snapshot %d = %+v, want %+v", sensors, i, s, want)
			}
		}
		if st := it.(*sharedMergeIterator).Stats(); st.Records > 600 {
			t.Fatalf("sensors %v: streamed %d records for a %d-snapshot window", sensors, st.Records, len(got))
		}
	}
}

// TestReplayRejectsStartRegression: a narrow query may stop at the first
// record starting at or after t1 only because a sensor's window starts
// never regress, so the demultiplexer fails loudly on one that does.
func TestReplayRejectsStartRegression(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 10; f++ {
		s := snap(0, f, 66_000)
		if f == 5 {
			s.StartUS = 0 // ends and frames still advance
		}
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	it, err := r.Replay(0, nil, 0, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for {
		_, err := it.Next()
		if err == io.EOF {
			t.Fatal("replay accepted a regressing window start")
		}
		if err != nil {
			if !strings.Contains(err.Error(), "starts regress") {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
	}
}

func TestReplayRejectsMultiRunStore(t *testing.T) {
	// Two runs in one directory each restart the frame clock; replaying
	// them interleaved would be a broken timeline, so a selector-less
	// replay (run 0 = "the sole run") must fail fast with the typed
	// sentinel — the pre-manifest store rejected this only after streaming
	// far enough to see timestamps regress.
	dir := t.TempDir()
	writeStore(t, dir, Options{}, []int{0}, 10, 66_000)
	writeStore(t, dir, Options{}, []int{0}, 10, 66_000)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(0, nil, 0, math.MaxInt64); !errors.Is(err, ErrMultipleRuns) {
		t.Fatalf("selector-less replay of 2-run store: %v, want ErrMultipleRuns", err)
	}
	if _, err := r.Replay(0, []int{0}, 0, math.MaxInt64); !errors.Is(err, ErrMultipleRuns) {
		t.Fatalf("selector-less one-sensor replay of 2-run store: %v, want ErrMultipleRuns", err)
	}
	// With an explicit selector each run replays independently.
	for _, ri := range r.Runs() {
		it, err := r.Replay(ri.ID, nil, 0, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, it); len(got) != 10 {
			t.Fatalf("run %d replay yielded %d records, want 10", ri.ID, len(got))
		}
	}
	if _, err := r.Replay(99, nil, 0, math.MaxInt64); err == nil {
		t.Fatal("replay of unknown run succeeded")
	}
}

func TestReaderRebuildsMissingIndex(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, Options{SegmentBytes: 2048}, []int{0, 1}, 60, 66_000)
	withIdx, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fb := withIdx.IndexFallbacks(); fb != 0 {
		t.Fatalf("IndexFallbacks = %d on an intact store", fb)
	}
	want := collect(t, replayOne(t, withIdx, 0, 1, 10*66_000, 30*66_000))
	idxFiles, err := filepath.Glob(filepath.Join(dir, "*.idx"))
	if err != nil || len(idxFiles) == 0 {
		t.Fatalf("no sidecar indexes written (%v)", err)
	}
	for _, p := range idxFiles {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, replayOne(t, rebuilt, 0, 1, 10*66_000, 30*66_000))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan differs without sidecar indexes: %d vs %d records", len(got), len(want))
	}
	if fb := rebuilt.IndexFallbacks(); fb != len(idxFiles) {
		t.Fatalf("IndexFallbacks = %d with %d sidecars removed", fb, len(idxFiles))
	}
	// A corrupt sidecar is likewise ignored, not trusted.
	segs, _ := listSegments(dir)
	if err := os.WriteFile(filepath.Join(dir, indexName(segs[0])), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, replayOne(t, r, 0, 1, 10*66_000, 30*66_000)); !reflect.DeepEqual(got, want) {
		t.Fatal("scan differs with corrupt sidecar index")
	}
	if fb := r.IndexFallbacks(); fb != len(idxFiles) {
		t.Fatalf("IndexFallbacks = %d, want %d", fb, len(idxFiles))
	}
}

func TestWriterRejectsInvalidSnapshots(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, s := range []Snapshot{
		{Sensor: -1},
		{Frame: -2},
		{Events: -3},
	} {
		if err := w.Append(s); err == nil {
			t.Fatalf("Append(%+v) accepted an unencodable snapshot", s)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(snap(0, 0, 66_000)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestAppendAllocFree guards the append hot path: once its scratch buffer
// has grown, a warm Append encodes the frame header and the payload into it
// and hands the record to the buffered writer in one piece, allocating
// nothing.
func TestAppendAllocFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates on its own account")
	}
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := snap(0, 0, 66_000)
	if err := w.Append(s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Frame++
		s.StartUS += 66_000
		s.EndUS += 66_000
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Append allocates %v times per record, want 0", allocs)
	}
}

// TestReplayAllocsFlat guards the read path: a warm one-sensor Replay
// allocates per replay, per segment and per decoder chunk, never per
// record, so ten times the records cost no more allocations.
func TestReplayAllocsFlat(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates on its own account")
	}
	allocs := func(records int) float64 {
		dir := t.TempDir()
		writeStore(t, dir, Options{}, []int{0}, records, 66_000)
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if got := collectCount(t, replayOne(t, r, 0, 0, 0, math.MaxInt64)); got != records {
				t.Fatalf("replay yielded %d records, want %d", got, records)
			}
		})
	}
	if small, large := allocs(200), allocs(2000); large > small {
		t.Fatalf("replay allocates %v times over 2000 records, %v over 200: the read path allocates per record", large, small)
	}
}

// collectCount drains an iterator, keeping only the count.
func collectCount(t *testing.T, it Iterator) int {
	t.Helper()
	defer it.Close()
	for n := 0; ; n++ {
		if _, err := it.Next(); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own account.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return true // unknown: assume allocation counts cannot be relied on
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestEmptyRunDiscarded pins the Close contract: a run that recorded
// nothing leaves no manifest and no segment behind.
func TestEmptyRunDiscarded(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != lockFileName {
			t.Fatalf("empty run left %s behind", e.Name())
		}
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs()) != 0 {
		t.Fatalf("Runs() = %+v after an empty run", r.Runs())
	}
	// Selector 0 on an empty store scans nothing rather than erroring.
	if got := collect(t, replayOne(t, r, 0, 0, 0, math.MaxInt64)); len(got) != 0 {
		t.Fatalf("empty store scan yielded %d records", len(got))
	}
}

func TestOpenRejectsSecondWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second concurrent Open succeeded; expected the directory lock to reject it")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock is released with the writer: reopening now succeeds.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncEveryDurability(t *testing.T) {
	// With SyncEvery=1 every record is flushed to the file, so a reader
	// opened mid-run (no Close, simulating a crash with a live writer)
	// sees all appended records.
	dir := t.TempDir()
	w, err := Open(dir, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 10; f++ {
		if err := w.Append(snap(0, f, 66_000)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, replayOne(t, r, 0, 0, 0, math.MaxInt64)); len(got) != 10 {
		t.Fatalf("mid-run reader sees %d records with SyncEvery=1, want 10", len(got))
	}
	if runs := r.Runs(); len(runs) != 1 || runs[0].Finalized {
		t.Fatalf("mid-run Runs() = %+v, want one unfinalized run", runs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacySegmentsReadable pins the legacy group: segments no valid
// manifest claims group as legacy run 0 — scannable and replayable, with
// Verify validating frames but no roots. Two stores reach it: one written
// before manifests existed, and one whose manifest fails its CRC, for
// which the legacy group is the recovery path (the damage is reported,
// the records stay readable).
func TestLegacySegmentsReadable(t *testing.T) {
	for _, tc := range []struct {
		name string
		// damage turns the manifest at path into the case's store.
		damage func(t *testing.T, path string)
		// damaged: the reader and Verify must name the manifest.
		damaged bool
	}{
		{"no manifest", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"manifest fails its CRC", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x10
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeStore(t, dir, Options{SegmentBytes: 2048}, []int{0, 1}, 40, 66_000)
			mans, _ := filepath.Glob(filepath.Join(dir, "run-*.mf"))
			if len(mans) != 1 {
				t.Fatalf("expected 1 manifest, found %v", mans)
			}
			tc.damage(t, mans[0])
			name := filepath.Base(mans[0])
			r, err := OpenReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			runs := r.Runs()
			if len(runs) != 1 || !runs[0].Legacy || runs[0].ID != 0 {
				t.Fatalf("Runs() = %+v, want one legacy group", runs)
			}
			if probs := r.ManifestProblems(); tc.damaged != (len(probs) == 1 && strings.HasPrefix(probs[0], name)) {
				t.Fatalf("ManifestProblems() = %v, want %s named: %v", probs, name, tc.damaged)
			}
			if got := collect(t, replayOne(t, r, 0, 1, 0, math.MaxInt64)); len(got) != 40 {
				t.Fatalf("legacy scan yielded %d records, want 40", len(got))
			}
			it, err := r.Replay(0, nil, 0, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			if got := collect(t, it); len(got) != 80 {
				t.Fatalf("legacy replay yielded %d records, want 80", len(got))
			}
			rep, err := Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Runs) != 1 || !rep.Runs[0].Legacy || rep.Runs[0].Records != 80 || len(rep.Runs[0].Problems) != 0 {
				t.Fatalf("Verify runs = %+v, want one intact legacy group of 80 records", rep.Runs)
			}
			if tc.damaged != (len(rep.Problems) == 1 && strings.HasPrefix(rep.Problems[0], name)) {
				t.Fatalf("Verify problems = %v, want %s named: %v", rep.Problems, name, tc.damaged)
			}
			if rep.Clean() == tc.damaged {
				t.Fatalf("Verify clean = %v, want %v", rep.Clean(), !tc.damaged)
			}
		})
	}
}
