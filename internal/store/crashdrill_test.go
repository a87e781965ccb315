package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// The crash-drill harness kills the writer at randomized points — mid
// frame, mid index, mid manifest rewrite — and asserts the recovery
// contract every time: the recovered prefix verifies (roots and chain),
// the torn tail is truncated to exactly the last valid record, and the
// recovered run replays bit-identically to the same prefix recorded by an
// uninterrupted writer. `make crash-drill` runs the fixed seed matrix
// under -race; CRASH_DRILL_SEED / CRASH_DRILL_POINTS widen the sweep.

func drillSeed() int64 {
	if s := os.Getenv("CRASH_DRILL_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

func drillPoints() int {
	if s := os.Getenv("CRASH_DRILL_POINTS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 50
}

const crashChildEnv = "EBBIOT_CRASH_CHILD_DIR"

func crashChildRequested() bool { return os.Getenv(crashChildEnv) != "" }

// crashChildMain is the drill victim: opened from TestMain in a re-exec'd
// test binary, it appends records as fast as it can — rotating small
// segments, fsyncing every record so the kill point is in the durable
// stream — until the parent SIGKILLs it mid-whatever.
func crashChildMain() {
	w, err := Open(os.Getenv(crashChildEnv), Options{SegmentBytes: 4096, SyncEvery: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	for f := 0; ; f++ {
		for _, id := range []int{0, 1} {
			if err := w.Append(snap(id, f, 66_000)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(3)
			}
		}
	}
}

// drillAppend returns the a-th record of the drill append order: sensors
// 0 and 1 alternating, one frame each per pair.
func drillAppend(a int) Snapshot { return snap(a%2, a/2, 66_000) }

// recoverAndAudit reopens dir (running crash recovery), closes the empty
// new run, and asserts the recovered store verifies clean and holds an
// exact prefix of the drill append order. Returns the recovered record
// count.
func recoverAndAudit(t *testing.T, dir string) int64 {
	t.Helper()
	w, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("recovered store not clean: %+v", rep)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs := r.Runs()
	if len(runs) == 0 {
		return 0 // killed before anything durable; empty run discarded
	}
	if len(runs) != 1 || !runs[0].Finalized || !runs[0].Recovered {
		t.Fatalf("Runs() after recovery = %+v, want one finalized+recovered run", runs)
	}
	if st := r.Stats(); st.DroppedBytes != 0 {
		t.Fatalf("recovered store still reports %d dropped bytes: tail not truncated to the last valid record", st.DroppedBytes)
	}
	// Per-sensor streams must each be an exact prefix of what was appended,
	// and their lengths consistent with one interleaved append order.
	var counts [2]int
	for id := 0; id < 2; id++ {
		got := collect(t, replayOne(t, r, runs[0].ID, id, 0, math.MaxInt64))
		counts[id] = len(got)
		for f, s := range got {
			if want := snap(id, f, 66_000); !reflect.DeepEqual(s, want) {
				t.Fatalf("sensor %d frame %d corrupted by recovery: %+v", id, f, s)
			}
		}
	}
	if counts[0] != counts[1] && counts[0] != counts[1]+1 {
		t.Fatalf("recovered per-sensor counts %v are not a prefix of the append order", counts)
	}
	return runs[0].Records
}

// assertBitIdenticalPrefix records the first m drill appends with an
// uninterrupted writer and asserts the recovered run replays identically.
func assertBitIdenticalPrefix(t *testing.T, dir string, m int64) {
	t.Helper()
	refDir := t.TempDir()
	if m > 0 {
		w, err := Open(refDir, Options{SegmentBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		for a := int64(0); a < m; a++ {
			if err := w.Append(drillAppend(int(a))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	replay := func(d string) []Snapshot {
		r, err := OpenReader(d)
		if err != nil {
			t.Fatal(err)
		}
		it, err := r.Replay(0, nil, 0, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		return collect(t, it)
	}
	got, want := replay(dir), replay(refDir)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered replay differs from uninterrupted %d-record prefix: %d vs %d records", m, len(got), len(want))
	}
}

// TestCrashDrillRandomized is the deterministic fault matrix: each point
// kills the writer after a random number of appends and injects one fault
// class — clean kill, torn tail (mid-frame), bit flip in the unsealed
// tail, garbage in the open segment's sidecar slot (mid-index), or a
// stray manifest temp file (mid-manifest rewrite) — then asserts the full
// recovery contract.
func TestCrashDrillRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(drillSeed()))
	points := drillPoints()
	for point := 0; point < points; point++ {
		kills := rng.Intn(81)
		mode := rng.Intn(5)
		fuzz := rng.Int63()
		t.Run(fmt.Sprintf("point%03d", point), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{SegmentBytes: 2048})
			if err != nil {
				t.Fatal(err)
			}
			for a := 0; a < kills; a++ {
				if err := w.Append(drillAppend(a)); err != nil {
					t.Fatal(err)
				}
			}
			w.crash()
			sub := rand.New(rand.NewSource(fuzz))
			cleanKill := mode == 0
			switch mode {
			case 1: // torn tail: mid-frame or mid-payload cut
				path := lastSegPath(t, dir)
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if cut := fi.Size() - segHeaderLen; cut > 0 {
					if err := os.Truncate(path, fi.Size()-(1+sub.Int63n(min64(cut, 64)))); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // bit flip somewhere in the unsealed (open) segment
				path := lastSegPath(t, dir)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(raw) > 0 {
					raw[sub.Intn(len(raw))] ^= 1 << uint(sub.Intn(8))
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			case 3: // mid-index: partial sidecar for the still-open segment
				segs, err := listSegments(dir)
				if err != nil || len(segs) == 0 {
					t.Fatal(err)
				}
				junk := make([]byte, 1+sub.Intn(40))
				sub.Read(junk)
				if err := os.WriteFile(filepath.Join(dir, indexName(segs[len(segs)-1])), junk, 0o644); err != nil {
					t.Fatal(err)
				}
			case 4: // mid-manifest: stray temp from a torn atomic rewrite
				junk := make([]byte, 1+sub.Intn(200))
				sub.Read(junk)
				if err := os.WriteFile(filepath.Join(dir, manifestName(1)+".tmp"), junk, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			m := recoverAndAudit(t, dir)
			if cleanKill && m != int64(kills) {
				t.Fatalf("clean kill after %d appends recovered %d records", kills, m)
			}
			if m > int64(kills) {
				t.Fatalf("recovered %d records from %d appends", m, kills)
			}
			assertBitIdenticalPrefix(t, dir, m)
			if stray, _ := filepath.Glob(filepath.Join(dir, "*.mf.tmp")); len(stray) != 0 {
				t.Fatalf("stray manifest temps survived recovery: %v", stray)
			}
		})
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestCrashDrillProcessKill is the real thing: a re-exec'd writer process
// SIGKILLed at a random point in its append loop, with no cooperation from
// the victim — the recovered prefix must verify and stay an exact prefix.
func TestCrashDrillProcessKill(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill drill skipped in -short")
	}
	rng := rand.New(rand.NewSource(drillSeed() + 100))
	for round := 0; round < 6; round++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(2+rng.Intn(60)) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()
		m := recoverAndAudit(t, dir)
		t.Logf("round %d: recovered %d records", round, m)
	}
}
