package store

import (
	"io"
	"math"
	"os"
	"testing"

	"ebbiot/internal/geometry"
)

// benchSnap is a representative record: two boxes and a short name, ~90
// payload bytes — the shape a two-track EBBIOT stream produces.
func benchSnap(sensor, frame int) Snapshot {
	return Snapshot{
		Sensor:  sensor,
		Name:    "sensor0",
		Frame:   frame,
		StartUS: int64(frame) * 66_000,
		EndUS:   int64(frame+1) * 66_000,
		Events:  1500,
		ProcUS:  420,
		Boxes: []geometry.Box{
			geometry.NewBox(10+frame%50, 20, 24, 18),
			geometry.NewBox(100, 40+frame%30, 16, 12),
		},
	}
}

func benchRecordBytes() int64 {
	return int64(frameLen + len(encodeSnapshot(nil, benchSnap(0, 0))))
}

// BenchmarkAppend measures append throughput with the default fsync policy
// (sync on rotate/close only).
func BenchmarkAppend(b *testing.B) {
	w, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.SetBytes(benchRecordBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(benchSnap(i%4, i/4)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendSyncEvery64 measures append throughput with a durability
// cadence of one fsync per 64 records.
func BenchmarkAppendSyncEvery64(b *testing.B) {
	w, err := Open(b.TempDir(), Options{SyncEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.SetBytes(benchRecordBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(benchSnap(i%4, i/4)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStore lazily builds one shared on-disk store: 4 sensors × 25k
// frames = 100k records across multiple segments.
const (
	benchSensors = 4
	benchFrames  = 25_000
)

var benchDir string

func benchStoreDir(tb testing.TB) string {
	if benchDir != "" {
		return benchDir
	}
	dir, err := os.MkdirTemp("", "ebbiot-store-bench")
	if err != nil {
		tb.Fatal(err)
	}
	w, err := Open(dir, Options{SegmentBytes: 8 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	for f := 0; f < benchFrames; f++ {
		for s := 0; s < benchSensors; s++ {
			if err := w.Append(benchSnap(s, f)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	benchDir = dir
	return dir
}

func TestMain(m *testing.M) {
	// Re-exec'd as a crash-drill victim: record until SIGKILLed (never
	// returns). See crashdrill_test.go.
	if crashChildRequested() {
		crashChildMain()
	}
	code := m.Run()
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

// benchReplayOne opens a one-sensor replay of the bench store's sole run.
func benchReplayOne(b *testing.B, r *Reader, sensor int, t0, t1 int64) Iterator {
	it, err := r.Replay(0, []int{sensor}, t0, t1)
	if err != nil {
		b.Fatal(err)
	}
	return it
}

func drain(b *testing.B, it Iterator, want int64) {
	defer it.Close()
	var n int64
	for {
		_, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		n++
	}
	if n != want {
		b.Fatalf("iterator yielded %d records, want %d", n, want)
	}
}

// BenchmarkReplaySensorFull measures the per-sensor query over the whole
// 100k-record store (one sensor's 25k records match).
func BenchmarkReplaySensorFull(b *testing.B) {
	dir := benchStoreDir(b)
	r, err := OpenReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchRecordBytes() * benchSensors * benchFrames)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(b, benchReplayOne(b, r, 1, 0, math.MaxInt64), benchFrames)
	}
}

// BenchmarkReplaySensorWindow measures a narrow time-bounded per-sensor
// query (100 frames out of 25k) — the case the sparse index accelerates.
func BenchmarkReplaySensorWindow(b *testing.B) {
	dir := benchStoreDir(b)
	r, err := OpenReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	const t0, t1 = 20_000 * 66_000, 20_100 * 66_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(b, benchReplayOne(b, r, 1, t0, t1), 100)
	}
}

// BenchmarkReplay measures the k-way merged replay of all four sensors.
// The merge is single-pass — each shared segment is read exactly once, not
// once per sensor — which the read-amplification counters assert.
func BenchmarkReplay(b *testing.B) {
	dir := benchStoreDir(b)
	r, err := OpenReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	segments := int64(r.Stats().Segments)
	dataBytes := r.Stats().DataBytes - segments*segHeaderLen
	b.SetBytes(benchRecordBytes() * benchSensors * benchFrames)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := r.Replay(0, nil, 0, math.MaxInt64)
		if err != nil {
			b.Fatal(err)
		}
		drain(b, it, benchSensors*benchFrames)
		st := it.(*sharedMergeIterator).Stats()
		if st.SegmentsOpened != segments {
			b.Fatalf("read amplification: %d segment opens for %d segments (want 1x)", st.SegmentsOpened, segments)
		}
		if st.BytesRead != dataBytes {
			b.Fatalf("read amplification: %d bytes read of %d stored (want 1x)", st.BytesRead, dataBytes)
		}
	}
	b.ReportMetric(float64(1), "segment-reads/segment")
}

// BenchmarkOpenReaderIndexed measures reader startup when sidecar indexes
// are present (no segment scans).
func BenchmarkOpenReaderIndexed(b *testing.B) {
	dir := benchStoreDir(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenReader(dir); err != nil {
			b.Fatal(err)
		}
	}
}
