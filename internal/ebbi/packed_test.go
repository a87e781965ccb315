package ebbi

import (
	"math/rand"
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/imgproc"
)

// TestPackedBuilderParity drives the byte and packed builders through the
// same window sequence — including empty windows, which exercise the
// deferred clear — and asserts every frame is bit-identical.
func TestPackedBuilderParity(t *testing.T) {
	cfg := DefaultConfig()
	ref, err := NewBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewPackedBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Release()

	rng := rand.New(rand.NewSource(7))
	for frame := 0; frame < 6; frame++ {
		var evs []events.Event
		if frame != 2 { // frame 2 stays empty
			n := rng.Intn(400)
			for i := 0; i < n; i++ {
				evs = append(evs, events.Event{
					// Out-of-range coordinates on some events: both paths
					// must ignore them identically.
					X: int16(rng.Intn(cfg.Res.A+20) - 10),
					Y: int16(rng.Intn(cfg.Res.B+20) - 10),
				})
			}
		}
		ref.Accumulate(evs)
		fast.Accumulate(evs)
		rf, err := ref.Finish()
		if err != nil {
			t.Fatal(err)
		}
		pf, err := fast.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if rf.EventCount != pf.EventCount {
			t.Fatalf("frame %d: event count mismatch: byte %d packed %d", frame, rf.EventCount, pf.EventCount)
		}
		if !pf.Raw.Unpack(nil).Equal(rf.Raw) {
			t.Fatalf("frame %d: raw EBBI mismatch", frame)
		}
		if !pf.Filtered.Unpack(nil).Equal(rf.Filtered) {
			t.Fatalf("frame %d: filtered EBBI mismatch", frame)
		}
	}
}

// TestPackedBuilderActiveRegion asserts the frame's active region is a
// superset of the set pixels in both the raw and the filtered EBBI, that
// its coverage tracks sparsity (a localized window dirties a small
// fraction), and that an empty window yields an empty region.
func TestPackedBuilderActiveRegion(t *testing.T) {
	cfg := DefaultConfig()
	b, err := NewPackedBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()

	// A dense 20x20 patch plus one far-away pixel.
	var evs []events.Event
	for y := 40; y < 60; y++ {
		for x := 100; x < 120; x++ {
			evs = append(evs, events.Event{X: int16(x), Y: int16(y)})
		}
	}
	evs = append(evs, events.Event{X: 5, Y: 170})
	b.Accumulate(evs)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range []*struct {
		name string
		bm   *imgproc.PackedBitmap
	}{{"raw", f.Raw}, {"filtered", f.Filtered}} {
		for y := 0; y < img.bm.H; y++ {
			for k, w := range img.bm.Row(y) {
				if w != 0 && f.Active.RowMask(y)&(1<<uint(k)) == 0 {
					t.Fatalf("%s: set pixels in row %d word %d outside active region", img.name, y, k)
				}
			}
		}
	}
	if cov, total := f.Active.CoverageWords(), f.Active.FrameWords(); cov == 0 || cov*4 > total {
		t.Fatalf("active coverage %d/%d not sparse", cov, total)
	}

	// Empty window: the region must reset along with the deferred clear.
	b.Accumulate(nil)
	f, err = b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Active.Empty() {
		y0, y1 := f.Active.RowSpan()
		t.Fatalf("empty window left active span [%d,%d)", y0, y1)
	}
	if f.Raw.CountOnes() != 0 || f.Filtered.CountOnes() != 0 {
		t.Fatal("empty window left pixels set")
	}
}

func TestPackedBuilderValidates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MedianP = 2
	if _, err := NewPackedBuilder(cfg); err == nil {
		t.Fatal("even median patch size not rejected")
	}
}

// BenchmarkPackedAccumulateFinish is BenchmarkAccumulateFinish on the
// packed fast path: the same ~typical busy frame through the fused
// accumulate + word-parallel median chain.
func BenchmarkPackedAccumulateFinish(b *testing.B) {
	builder, err := NewPackedBuilder(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer builder.Release()
	evs := make([]events.Event, 2400) // ~typical busy frame
	for i := range evs {
		evs[i] = events.Event{X: int16(i % 240), Y: int16((i / 240) % 180), T: int64(i), P: events.On}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Accumulate(evs)
		if _, err := builder.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
