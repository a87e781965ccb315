package store

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestVerifyCleanStore is the baseline: a freshly recorded multi-segment
// run audits clean, with every segment's root and chain link checked.
func TestVerifyCleanStore(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, Options{SegmentBytes: 2048}, []int{0, 1}, 60, 66_000)
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh store not clean: %+v", rep)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Segments < 3 || rep.Records != 120 {
		t.Fatalf("Verify = %+v, want one run, >=3 segments, 120 records", rep)
	}
}

// TestVerifyDetectsAnySingleBitFlip is the tamper-evidence property: a
// single flipped bit anywhere — segment data or header, sidecar index,
// manifest — must surface in the report (exit 1 territory), never pass as
// clean and never escalate to an I/O error. Positions are sampled with a
// fixed seed plus the structural corners (first byte, magic, trailer).
func TestVerifyDetectsAnySingleBitFlip(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, Options{SegmentBytes: 2048, IndexEvery: 8}, []int{0, 1}, 40, 66_000)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, e := range entries {
		name := e.Name()
		if name == lockFileName {
			continue
		}
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		offsets := []int{0, len(orig) / 2, len(orig) - 1}
		for i := 0; i < 32; i++ {
			offsets = append(offsets, rng.Intn(len(orig)))
		}
		for _, off := range offsets {
			bit := byte(1) << uint(rng.Intn(8))
			raw := append([]byte(nil), orig...)
			raw[off] ^= bit
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, verr := Verify(dir)
			if verr != nil {
				t.Fatalf("%s offset %d: Verify returned an I/O error for tampering: %v", name, off, verr)
			}
			if rep.Clean() {
				t.Fatalf("%s: flipping bit %#02x at offset %d of %d went undetected", name, bit, off, len(orig))
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := Verify(dir); err != nil || !rep.Clean() {
		t.Fatalf("store not clean after restoring all bytes: %+v, %v", rep, err)
	}
}

// TestRetentionRoundTrip drives the fake clock through a recording with an
// age bound: old segments expire to tombstones mid-run, the files are
// gone, and the run still verifies — the tombstoned roots keep the chain
// of every retained segment provable.
func TestRetentionRoundTrip(t *testing.T) {
	clock := int64(1_000_000_000_000)
	restore := nowUS
	nowUS = func() int64 { return clock }
	defer func() { nowUS = restore }()

	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 2048, Retention: RetentionPolicy{MaxAgeUS: 5_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 100; f++ {
		if err := w.Append(snap(0, f, 66_000)); err != nil {
			t.Fatal(err)
		}
		clock += 500_000 // 0.5 s per frame; 5 s age bound spans ~10 frames
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs := r.Runs()
	if len(runs) != 1 || runs[0].Tombstones == 0 || runs[0].Records == 100 {
		t.Fatalf("Runs() = %+v, want one run with tombstones and a reduced live record count", runs)
	}
	// Expired files are actually deleted.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != runs[0].Segments {
		t.Fatalf("%d segment files on disk for %d live segments", len(segs), runs[0].Segments)
	}
	// The surviving records are the newest contiguous suffix.
	got := collect(t, replayOne(t, r, 0, 0, 0, math.MaxInt64))
	if int64(len(got)) != runs[0].Records {
		t.Fatalf("scan yielded %d records, run reports %d", len(got), runs[0].Records)
	}
	first := 100 - len(got)
	for i, s := range got {
		if want := snap(0, first+i, 66_000); !reflect.DeepEqual(s, want) {
			t.Fatalf("retained record %d is frame %d, want %d", i, s.Frame, first+i)
		}
	}
	// The acceptance property: verify passes via tombstone roots.
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Runs[0].Tombstones != runs[0].Tombstones {
		t.Fatalf("Verify after retention = %+v, want clean with %d tombstones", rep, runs[0].Tombstones)
	}
	// Proofs: a retained record still proves at its original run-wide seq;
	// an expired one errors, naming the tombstone.
	lastSeq := int64(99)
	p, err := Prove(dir, 0, lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Verify() || p.Snapshot.Frame != 99 {
		t.Fatalf("proof for seq %d: verify=%v frame=%d", lastSeq, p.Verify(), p.Snapshot.Frame)
	}
	if _, err := Prove(dir, 0, 0); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("Prove over an expired record: %v, want an expiry error", err)
	}
}

// TestRetentionSizeBoundAcrossRuns pins the size bound: the active
// writer's policy governs the whole directory, expiring oldest segments
// of earlier runs first, and a fully-expired run remains listed as
// tombstones.
func TestRetentionSizeBoundAcrossRuns(t *testing.T) {
	clock := int64(2_000_000_000_000)
	restore := nowUS
	nowUS = func() int64 { return clock }
	defer func() { nowUS = restore }()

	dir := t.TempDir()
	writeStore(t, dir, Options{SegmentBytes: 2048}, []int{0}, 60, 66_000)
	clock += 1_000_000
	w, err := Open(dir, Options{SegmentBytes: 2048, Retention: RetentionPolicy{MaxBytes: 6 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 60; f++ {
		if err := w.Append(snap(0, f, 66_000)); err != nil {
			t.Fatal(err)
		}
		clock += 1000
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Runs != 2 || st.Tombstones == 0 {
		t.Fatalf("Stats() = %+v, want 2 runs with tombstones", st)
	}
	if st.DataBytes > (8 << 10) {
		t.Fatalf("live bytes %d exceed the size bound with slack", st.DataBytes)
	}
	runs := r.Runs()
	if runs[0].Tombstones == 0 {
		t.Fatalf("oldest run lost no segments: %+v", runs)
	}
	if rep, err := Verify(dir); err != nil || !rep.Clean() {
		t.Fatalf("Verify after cross-run retention: %+v, %v", rep, err)
	}
}

// TestProveInclusion spot-checks proofs across a multi-segment run and the
// error paths: out-of-range seq, and tampered data failing proof
// generation with a typed corruption error.
func TestProveInclusion(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, Options{SegmentBytes: 2048}, []int{0, 1}, 40, 66_000)
	for _, seq := range []int64{0, 1, 39, 79} {
		p, err := Prove(dir, 0, seq)
		if err != nil {
			t.Fatalf("Prove(%d): %v", seq, err)
		}
		if !p.Verify() {
			t.Fatalf("proof for seq %d does not verify", seq)
		}
		// seq counts in append order: sensors alternate per frame.
		if want := snap(int(seq%2), int(seq/2), 66_000); !reflect.DeepEqual(p.Snapshot, want) {
			t.Fatalf("seq %d proves %+v, want %+v", seq, p.Snapshot, want)
		}
	}
	if _, err := Prove(dir, 0, 80); err == nil {
		t.Fatal("Prove past the end succeeded")
	}
	if _, err := Prove(dir, 0, -1); err == nil {
		t.Fatal("Prove(-1) succeeded")
	}
	// Tamper, then ask for a proof in the damaged segment.
	path := lastSegPath(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Prove(dir, 0, 79); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Prove over tampered data: %v, want ErrCorrupt", err)
	}
}

// TestIndexSidecarCorruption pins the degraded-read contract: a bit-flipped
// or truncated sidecar index falls back to a full segment scan — identical
// results, IndexFallbacks counted — never a wrong seek; and Verify reports
// the sidecar as a problem.
func TestIndexSidecarCorruption(t *testing.T) {
	const t0, t1 = 10 * 66_000, 30 * 66_000
	baseline := func(dir string) []Snapshot {
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		return collect(t, replayOne(t, r, 0, 1, t0, t1))
	}
	for _, damage := range []struct {
		name string
		fn   func(t *testing.T, path string)
	}{
		{"bitflip", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x10
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			writeStore(t, dir, Options{SegmentBytes: 2048, IndexEvery: 4}, []int{0, 1}, 60, 66_000)
			want := baseline(dir)
			if len(want) == 0 {
				t.Fatal("baseline scan is empty; test is vacuous")
			}
			segs, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			damage.fn(t, filepath.Join(dir, indexName(segs[0])))
			r, err := OpenReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := collect(t, replayOne(t, r, 0, 1, t0, t1)); !reflect.DeepEqual(got, want) {
				t.Fatalf("scan with %s sidecar differs: %d vs %d records", damage.name, len(got), len(want))
			}
			if fb := r.IndexFallbacks(); fb != 1 {
				t.Fatalf("IndexFallbacks = %d, want 1", fb)
			}
			rep, err := Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Clean() {
				t.Fatalf("Verify missed the %s sidecar damage", damage.name)
			}
		})
	}
}

// TestManifestRoundTrip pins the manifest binary format.
func TestManifestRoundTrip(t *testing.T) {
	m := &manifest{
		RunID:       7,
		Flags:       manFinalized | manRecovered,
		StartWallUS: 1_700_000_000_000_000,
		EndWallUS:   1_700_000_100_000_000,
		Retention:   RetentionPolicy{MaxAgeUS: 3_600_000_000, MaxBytes: 64 << 20},
		Sensors:     []int{0, 2, 5},
		Segments: []manifestSeg{
			{Seg: 3, State: segExpired, Records: 10, DataBytes: 900, MinEndUS: 1, MaxEndUS: 10,
				SealedWallUS: 5, Root: leafHash([]byte("a")), Chain: leafHash([]byte("b"))},
			{Seg: 4, State: segSealed, Records: 20, DataBytes: 1800, MinEndUS: 11, MaxEndUS: 30,
				SealedWallUS: 6, Root: leafHash([]byte("c")), Chain: leafHash([]byte("d"))},
			{Seg: 5, State: segOpen},
		},
	}
	m.ParamsHash[0] = 0xAB
	got, err := unmarshalManifest(marshalManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

// FuzzManifestDecoder hammers the manifest decoder with arbitrary bytes:
// it must never panic, and anything it does accept must re-marshal to a
// decodable, equal manifest.
func FuzzManifestDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(manMagic))
	seed := &manifest{RunID: 3, Flags: manFinalized, StartWallUS: 111, EndWallUS: 222,
		Sensors: []int{0, 2}, Retention: RetentionPolicy{MaxAgeUS: 5},
		Segments: []manifestSeg{{Seg: 1, State: segSealed, Records: 4, DataBytes: 600,
			MinEndUS: 1, MaxEndUS: 4, SealedWallUS: 999, Root: leafHash([]byte("r")), Chain: leafHash([]byte("c"))}}}
	raw := marshalManifest(seed)
	f.Add(raw)
	for _, cut := range []int{1, 8, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:cut])
	}
	mutated := append([]byte(nil), raw...)
	mutated[len(mutated)/2] ^= 0x80
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := unmarshalManifest(b)
		if err != nil {
			return
		}
		again, err := unmarshalManifest(marshalManifest(m))
		if err != nil {
			t.Fatalf("re-marshal of accepted manifest does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("accepted manifest does not round-trip:\n got %+v\nwant %+v", again, m)
		}
	})
}
