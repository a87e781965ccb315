package core

import (
	"reflect"
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
)

// skipWindows synthesizes a deterministic window sequence alternating busy
// frames (a dense blob that survives the median and tracks) with near-empty
// frames of count stray events scattered far apart (so they never form a
// median-surviving patch on their own).
func skipWindows(frameUS int64, n, stray int) [][]events.Event {
	out := make([][]events.Event, 0, n)
	for w := 0; w < n; w++ {
		t0 := int64(w) * frameUS
		var evs []events.Event
		if w%2 == 0 {
			// 20x16 solid blob: hundreds of events, clear proposal.
			for y := 60; y < 76; y++ {
				for x := 100; x < 120; x++ {
					evs = append(evs, events.Event{X: int16(x), Y: int16(y), T: t0})
				}
			}
		} else {
			for i := 0; i < stray; i++ {
				evs = append(evs, events.Event{X: int16(5 + 40*i), Y: int16(10 + 30*i), T: t0})
			}
		}
		out = append(out, evs)
	}
	return out
}

func runWindows(t *testing.T, sys System, wins [][]events.Event) [][]geometry.Box {
	t.Helper()
	var out [][]geometry.Box
	for _, evs := range wins {
		boxes, err := sys.ProcessWindow(evs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, boxes)
	}
	return out
}

// TestSkipLosslessIdentical verifies the fast path's core guarantee: at the
// lossless threshold, enabling window skipping changes nothing about the
// reported tracks while actually skipping the near-empty windows.
func TestSkipLosslessIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipEventsBelow = LosslessSkipThreshold(cfg.EBBI.MedianP)
	skipSys, err := NewEBBIOT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer skipSys.Close()
	cfg2 := cfg
	cfg2.SkipEventsBelow = 0
	plainSys, err := NewEBBIOT(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer plainSys.Close()

	wins := skipWindows(cfg.EBBI.FrameUS, 12, 4) // 4 strays < threshold 5
	got := runWindows(t, skipSys, wins)
	want := runWindows(t, plainSys, wins)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("skip-enabled boxes diverge: got %v want %v", got, want)
	}
	st := skipSys.StageTimings()
	if st.Skipped != 6 {
		t.Errorf("skipped = %d, want 6", st.Skipped)
	}
	if st.Windows != 12 {
		t.Errorf("windows = %d, want 12", st.Windows)
	}
	if plain := plainSys.StageTimings(); plain.Skipped != 0 {
		t.Errorf("plain system skipped %d windows", plain.Skipped)
	}
	if len(got[len(got)-1]) == 0 {
		t.Error("expected a live track at the end")
	}
}

// TestSkipLosslessBoundary pins the lossless threshold from both sides: a
// window of exactly LosslessSkipThreshold(p) events packed into one p x p
// patch sets the patch centre in the filtered frame, so it must not be
// skipped; one event fewer can set no filtered pixel and is skipped.
func TestSkipLosslessBoundary(t *testing.T) {
	const x0, y0 = 100, 60
	for _, p := range []int{3, 5} {
		n := LosslessSkipThreshold(p)
		patch := make([]events.Event, n)
		for i := range patch {
			patch[i] = events.Event{X: int16(x0 + i%p), Y: int16(y0 + i/p)}
		}
		cfg := DefaultConfig()
		cfg.EBBI.MedianP = p
		cfg.SkipEventsBelow = n
		sys, err := NewEBBIOT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()

		if _, err := sys.ProcessWindow(patch); err != nil {
			t.Fatal(err)
		}
		if st := sys.StageTimings(); st.Skipped != 0 {
			t.Fatalf("p=%d: window of %d events in one patch skipped", p, n)
		}
		f := sys.LastFrame()
		if f == nil || f.Filtered.Get(x0+p/2, y0+p/2) != 1 {
			t.Fatalf("p=%d: patch centre not set in the filtered frame", p)
		}
		if _, err := sys.ProcessWindow(patch[:n-1]); err != nil {
			t.Fatal(err)
		}
		if st := sys.StageTimings(); st.Skipped != 1 {
			t.Fatalf("p=%d: window of %d events not skipped (skipped = %d)", p, n-1, st.Skipped)
		}
	}
}

// TestSkipLossyPathsAgree verifies the differential contract at a lossy
// threshold: the packed system and the byte-per-pixel oracle must still
// report identical tracks, because the skip decision reads the same
// in-array count on both.
func TestSkipLossyPathsAgree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipEventsBelow = 50 // above the lossless bound, drops faint windows
	fast, err := NewEBBIOT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	ref, err := newEBBIOTOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}

	wins := skipWindows(cfg.EBBI.FrameUS, 12, 30) // 30 strays: skipped only at 50
	got := runWindows(t, fast, wins)
	want := runWindows(t, ref, wins)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("packed and reference diverge under lossy skip: got %v want %v", got, want)
	}
	if fast.StageTimings().Skipped != ref.skipped {
		t.Errorf("skip counts diverge: packed %d reference %d",
			fast.StageTimings().Skipped, ref.skipped)
	}
	if fast.StageTimings().Skipped != 6 {
		t.Errorf("skipped = %d, want 6", fast.StageTimings().Skipped)
	}
}

// TestSkipValidation covers the construction-time and reconfigure-time
// rejection of negative thresholds.
func TestSkipValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipEventsBelow = -1
	if _, err := NewEBBIOT(cfg); err == nil {
		t.Error("negative SkipEventsBelow accepted at construction")
	}
	sys, err := NewEBBIOT(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.ApplyParams(cfg); err == nil {
		t.Error("negative SkipEventsBelow accepted by ApplyParams")
	}
}
