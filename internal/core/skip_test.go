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

// TestSkipLosslessIdentical verifies the fast path's core guarantee:
// skipping the near-empty windows changes nothing about the reported
// tracks, which match the skip-free byte oracle's.
func TestSkipLosslessIdentical(t *testing.T) {
	cfg := DefaultConfig()
	skipSys, err := NewEBBIOT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer skipSys.Close()
	ref, err := newEBBIOTOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}

	wins := skipWindows(66_000, 12, 4) // 4 strays < threshold 5
	got := runWindows(t, skipSys, wins)
	want := runWindows(t, ref, wins)
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
	if len(got[len(got)-1]) == 0 {
		t.Error("expected a live track at the end")
	}
}

// TestSkipFollowsMedianP retunes a running system to p = 1, whose lossless
// bound is a single event: windows of one to four events on the corners of
// one 3 x 3 patch must then all be processed, and report the boxes of the
// skip-free byte oracle at p = 1 — not the empty frames a bound left at the
// default p = 3's 5 would give. The patch straddles an RPN block boundary
// on both axes, so its four corners make a proposal.
func TestSkipFollowsMedianP(t *testing.T) {
	cfg := DefaultConfig()
	sys, err := NewEBBIOT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	runWindows(t, sys, skipWindows(66_000, 4, 4))
	cfg.EBBI.MedianP = 1
	if err := sys.ApplyParams(cfg); err != nil {
		t.Fatal(err)
	}
	skipped := sys.StageTimings().Skipped
	ref, err := newEBBIOTOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}

	corners := [4][2]int16{{101, 62}, {103, 64}, {103, 62}, {101, 64}}
	var wins [][]events.Event
	for w, n := range []int{4, 4, 1, 2, 3, 4, 4, 3, 2, 1, 4, 4} {
		evs := make([]events.Event, n)
		for i := range evs {
			evs[i] = events.Event{X: corners[i][0], Y: corners[i][1], T: int64(w) * 66_000}
		}
		wins = append(wins, evs)
	}
	got := runWindows(t, sys, wins)
	want := runWindows(t, ref, wins)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("boxes at p = 1 diverge from the skip-free oracle: got %v want %v", got, want)
	}
	reported := 0
	for _, boxes := range want {
		reported += len(boxes)
	}
	if reported == 0 {
		t.Error("the oracle reports no box: the windows exercise nothing")
	}
	if n := sys.StageTimings().Skipped - skipped; n != 0 {
		t.Errorf("%d windows of at least one event skipped at p = 1", n)
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
