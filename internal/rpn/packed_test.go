package rpn

import (
	"math/rand"
	"reflect"
	"testing"

	"ebbiot/internal/imgproc"
)

// TestProposePackedParity holds Propose and ProposePacked to identical
// Results — proposals, histograms and runs — over random frames and a grid
// of RPN configurations, including scales that do not divide the array and
// configs with tightening and merging disabled. ProposePacked runs both
// without a region and with the frame's exact active region.
func TestProposePackedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfgs := []Config{
		DefaultConfig(),
		{S1: 1, S2: 1, Threshold: 0, MergeGap: -1, MinValidPixels: 0, MinW: 0, MinH: 0},
		{S1: 7, S2: 5, Threshold: 2, MergeGap: 0, MinValidPixels: 2, MinW: 2, MinH: 2, Tighten: true},
		{S1: 12, S2: 6, Threshold: 1, MergeGap: 2, MinValidPixels: 4, MinW: 3, MinH: 3},
	}
	sizes := []struct{ w, h int }{{240, 180}, {65, 33}, {128, 64}, {31, 190}}
	for _, sz := range sizes {
		for ci, cfg := range cfgs {
			for trial := 0; trial < 8; trial++ {
				img := imgproc.NewBitmap(sz.w, sz.h)
				// A few dense patches plus noise, the RPN's operating regime.
				for p := 0; p < 3; p++ {
					px, py := rng.Intn(sz.w), rng.Intn(sz.h)
					pw, ph := rng.Intn(40)+2, rng.Intn(30)+2
					for y := py; y < py+ph && y < sz.h; y++ {
						for x := px; x < px+pw && x < sz.w; x++ {
							if rng.Float64() < 0.5 {
								img.Set(x, y)
							}
						}
					}
				}
				for i := 0; i < sz.w*sz.h/200; i++ {
					img.Set(rng.Intn(sz.w), rng.Intn(sz.h))
				}

				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Propose(img)
				if err != nil {
					t.Fatal(err)
				}
				pimg := imgproc.PackBitmap(nil, img)
				exact := imgproc.NewActiveRegion(sz.w, sz.h)
				for y := 0; y < sz.h; y++ {
					for k, w := range pimg.Row(y) {
						if w != 0 {
							exact.MarkWord(y, k)
						}
					}
				}
				for _, ar := range []*imgproc.ActiveRegion{nil, exact} {
					fast, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := fast.ProposePacked(pimg, ar)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Proposals, want.Proposals) {
						t.Fatalf("%dx%d cfg%d trial %d region=%v: proposals %v != %v",
							sz.w, sz.h, ci, trial, ar != nil, got.Proposals, want.Proposals)
					}
					if !reflect.DeepEqual(got.HX, want.HX) || !reflect.DeepEqual(got.HY, want.HY) {
						t.Fatalf("%dx%d cfg%d trial %d region=%v: histograms mismatch", sz.w, sz.h, ci, trial, ar != nil)
					}
					if !reflect.DeepEqual(got.XRuns, want.XRuns) || !reflect.DeepEqual(got.YRuns, want.YRuns) {
						t.Fatalf("%dx%d cfg%d trial %d region=%v: runs mismatch", sz.w, sz.h, ci, trial, ar != nil)
					}
				}
			}
		}
	}
}

// TestProposerReconfigure verifies the live-reconfiguration hook: after
// Reconfigure the proposer is indistinguishable from a freshly built one,
// and an invalid config is rejected without touching the current one.
func TestProposerReconfigure(t *testing.T) {
	img := imgproc.NewBitmap(64, 48)
	for y := 10; y < 30; y++ {
		for x := 12; x < 40; x++ {
			img.Set(x, y)
		}
	}
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Propose(img); err != nil {
		t.Fatal(err)
	}

	next := Config{S1: 4, S2: 2, Threshold: 2, MergeGap: 0, MinValidPixels: 6, MinW: 2, MinH: 2, Tighten: true}
	if err := p.Reconfigure(next); err != nil {
		t.Fatal(err)
	}
	got, err := p.Propose(img)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(next)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Propose(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Proposals, want.Proposals) {
		t.Fatalf("reconfigured proposals %v != fresh %v", got.Proposals, want.Proposals)
	}

	if err := p.Reconfigure(Config{S1: 0, S2: 3}); err == nil {
		t.Fatal("Reconfigure accepted an invalid config")
	}
	if p.Config() != next {
		t.Fatalf("failed Reconfigure mutated the config: %+v", p.Config())
	}
}
