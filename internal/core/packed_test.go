package core

import (
	"reflect"
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/roe"
	"ebbiot/internal/scene"
	"ebbiot/internal/sensor"
)

// runBoth replays the same simulated recording through a packed system and
// its byte-per-pixel oracle and returns the per-window box sequences.
func runBoth(t *testing.T, fast, ref System, sc *scene.Scene, seed uint64) (fastBoxes, refBoxes [][]geometry.Box) {
	t.Helper()
	cfg := sensor.DefaultConfig(seed)
	cfg.NoiseRatePerPixelHz = 1.0
	sim, err := sensor.New(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	for cursor := int64(0); cursor+66_000 <= sc.DurationUS; cursor += 66_000 {
		evs, err := sim.Events(cursor, cursor+66_000)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := fast.ProcessWindow(evs)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ref.ProcessWindow(evs)
		if err != nil {
			t.Fatal(err)
		}
		fastBoxes = append(fastBoxes, fb)
		refBoxes = append(refBoxes, rb)
	}
	return fastBoxes, refBoxes
}

// TestEBBIOTPackedMatchesReference replays a two-object crossing scene (with
// an ROE zone installed, so the packed masking path runs too) through the
// default packed pipeline and the byte-per-pixel oracle: every window's
// reported tracks must be identical, and so must the lazily unpacked frames.
func TestEBBIOTPackedMatchesReference(t *testing.T) {
	cfg := DefaultConfig().WithROE(roe.New(geometry.NewBox(0, 160, 60, 20)))
	fast, err := NewEBBIOT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	ref, err := newEBBIOTOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sc := scene.CrossingScene(events.DAVIS240, 3_000_000)
	fastBoxes, refBoxes := runBoth(t, fast, ref, sc, 21)
	if !reflect.DeepEqual(fastBoxes, refBoxes) {
		t.Fatalf("packed and reference EBBIOT diverged:\nfast %v\nref  %v", fastBoxes, refBoxes)
	}

	ff, rf := fast.LastFrame(), &ref.frame
	if ff == nil || !ref.framed {
		t.Fatal("no frame after processing")
	}
	if ff.Index != rf.Index || ff.EventCount != rf.EventCount {
		t.Fatalf("frame metadata mismatch: %d/%d vs %d/%d", ff.Index, ff.EventCount, rf.Index, rf.EventCount)
	}
	if !ff.Raw.Equal(rf.Raw) || !ff.Filtered.Equal(rf.Filtered) {
		t.Fatal("unpacked LastFrame differs from reference frame")
	}
	if !reflect.DeepEqual(fast.LastRPN().Proposals, ref.lastRPN.Proposals) {
		t.Fatal("LastRPN proposals differ between paths")
	}

	st := fast.StageTimings()
	if st.Windows == 0 || st.Filter <= 0 || st.RPN <= 0 {
		t.Fatalf("stage timings not recorded: %+v", st)
	}
}

// TestEBBIKFPackedMatchesReference does the same for the Kalman comparison
// system, with an ROE zone so its box filter runs too.
func TestEBBIKFPackedMatchesReference(t *testing.T) {
	cfg := DefaultKFConfig()
	cfg.ROE = roe.New(geometry.NewBox(0, 160, 60, 20))
	fast, err := NewEBBIKF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	ref, err := newEBBIKFOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sc := scene.SingleObjectScene(events.DAVIS240, 2_000_000)
	fastBoxes, refBoxes := runBoth(t, fast, ref, sc, 33)
	if !reflect.DeepEqual(fastBoxes, refBoxes) {
		t.Fatalf("packed and reference EBBI+KF diverged:\nfast %v\nref  %v", fastBoxes, refBoxes)
	}
	if fast.StageTimings().Windows == 0 {
		t.Fatal("stage timings not recorded")
	}
}

// TestActiveFractionAccounting pins the sparsity stat the monitoring
// surface reports: the frame chain accumulates the active-region coverage
// per window, well under full frame for a single-object scene.
func TestActiveFractionAccounting(t *testing.T) {
	fast, err := NewEBBIOT(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	// A localized object patch: deterministic, clearly sparse (scene-level
	// noise would dirty most words and hide the fraction under test).
	var evs []events.Event
	for y := 60; y < 80; y++ {
		for x := 100; x < 130; x += 2 {
			evs = append(evs, events.Event{X: int16(x), Y: int16(y)})
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := fast.ProcessWindow(evs); err != nil {
			t.Fatal(err)
		}
	}

	ft := fast.StageTimings()
	if ft.FrameWords == 0 || ft.ActiveWords <= 0 {
		t.Fatalf("packed path recorded no coverage: %+v", ft)
	}
	if frac := ft.MeanActiveFraction(); frac <= 0 || frac >= 0.5 {
		t.Fatalf("single-object scene active fraction = %.3f, want sparse (0, 0.5)", frac)
	}
	sum := ft.Add(ft)
	if sum.ActiveWords != 2*ft.ActiveWords || sum.FrameWords != 2*ft.FrameWords {
		t.Fatal("StageTimings.Add drops the coverage counters")
	}
}
