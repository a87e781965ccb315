package ebbi

import (
	"math"
	"testing"

	"ebbiot/internal/events"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"default ok", DefaultConfig(), false},
		{"even median", Config{Res: events.DAVIS240, MedianP: 2}, true},
		{"bad res", Config{Res: events.Resolution{}, MedianP: 3}, true},
		{"p1 ok", Config{Res: events.DAVIS240, MedianP: 1}, false},
		{"p63 ok", Config{Res: events.DAVIS240, MedianP: 63}, false},
		{"p65 above cap", Config{Res: events.DAVIS240, MedianP: 65}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestAccumulateBinarizes(t *testing.T) {
	b, err := NewBuilder(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Multiple events at one pixel latch a single bit, polarity ignored.
	b.Accumulate([]events.Event{
		{X: 10, Y: 20, T: 0, P: events.On},
		{X: 10, Y: 20, T: 10, P: events.Off},
		{X: 10, Y: 20, T: 20, P: events.On},
	})
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if f.Raw.CountOnes() != 1 {
		t.Errorf("raw frame has %d set pixels, want 1", f.Raw.CountOnes())
	}
	if f.EventCount != 3 {
		t.Errorf("EventCount = %d, want 3", f.EventCount)
	}
}

func TestAccumulateIgnoresOutOfRange(t *testing.T) {
	b, err := NewBuilder(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.Accumulate([]events.Event{
		{X: -1, Y: 0, T: 0, P: events.On},
		{X: 240, Y: 0, T: 0, P: events.On},
		{X: 0, Y: 180, T: 0, P: events.On},
	})
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if f.Raw.CountOnes() != 0 || f.EventCount != 0 {
		t.Error("out-of-range events should be dropped")
	}
}

func TestFinishResetsBetweenFrames(t *testing.T) {
	b, err := NewBuilder(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.Accumulate([]events.Event{{X: 5, Y: 5, T: 0, P: events.On}})
	f0, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if f0.Raw.CountOnes() != 1 || f0.EventCount != 1 {
		t.Errorf("frame 0: %d set pixels, %d events", f0.Raw.CountOnes(), f0.EventCount)
	}
	f1, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if f1.Raw.CountOnes() != 0 || f1.EventCount != 0 {
		t.Error("accumulator must reset between frames")
	}
}

func TestMedianFilterApplied(t *testing.T) {
	cfg := DefaultConfig()
	b, err := NewBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An isolated pixel (noise) plus a dense 4x4 block (object).
	var evs []events.Event
	evs = append(evs, events.Event{X: 200, Y: 100, T: 0, P: events.On})
	for y := 50; y < 54; y++ {
		for x := 60; x < 64; x++ {
			evs = append(evs, events.Event{X: int16(x), Y: int16(y), T: 0, P: events.On})
		}
	}
	b.Accumulate(evs)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if f.Filtered.Get(200, 100) != 0 {
		t.Error("isolated noise pixel survived median filter")
	}
	if f.Filtered.Get(61, 51) != 1 {
		t.Error("object interior removed by median filter")
	}
	if f.Raw.Get(200, 100) != 1 {
		t.Error("raw frame must keep the unfiltered image")
	}
}

func TestDutyCycleAnalyze(t *testing.T) {
	d := DutyCycle{FrameUS: 66_000, ActivePowerMW: 100, SleepPowerMW: 1}
	// 6.6 ms active per 66 ms frame: 90% sleep.
	rep, err := d.Analyze(6600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.SleepFraction-0.9) > 1e-9 {
		t.Errorf("SleepFraction = %v, want 0.9", rep.SleepFraction)
	}
	wantAvg := 100*0.1 + 1*0.9
	if math.Abs(rep.AvgPowerMW-wantAvg) > 1e-9 {
		t.Errorf("AvgPowerMW = %v, want %v", rep.AvgPowerMW, wantAvg)
	}
	if rep.Savings <= 1 {
		t.Errorf("Savings = %v, want > 1", rep.Savings)
	}
}

func TestDutyCycleSaturation(t *testing.T) {
	d := DutyCycle{FrameUS: 66_000, ActivePowerMW: 100, SleepPowerMW: 1}
	rep, err := d.Analyze(100_000) // active longer than the period
	if err != nil {
		t.Fatal(err)
	}
	if rep.SleepFraction != 0 {
		t.Errorf("saturated processor should never sleep, got %v", rep.SleepFraction)
	}
	if rep.AvgPowerMW != 100 {
		t.Errorf("saturated AvgPowerMW = %v", rep.AvgPowerMW)
	}
}

func TestDutyCycleErrors(t *testing.T) {
	if _, err := (DutyCycle{FrameUS: 0}).Analyze(10); err == nil {
		t.Error("zero period should error")
	}
	if _, err := (DutyCycle{FrameUS: 100}).Analyze(-1); err == nil {
		t.Error("negative active time should error")
	}
}

func BenchmarkAccumulateFinish(b *testing.B) {
	builder, err := NewBuilder(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
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

func TestEventInterruptModelNoiseDominates(t *testing.T) {
	// The paper's argument: DAVIS240 background activity at ~1 Hz/pixel is
	// ~43 k events/s; waking per event with tens-of-us overhead leaves the
	// processor awake most of the time, while the EBBI mode sleeps >95%.
	ev := EventInterruptModel{
		EventRateHz:    43_200, // 1 Hz/px noise alone, empty scene
		WakeOverheadUS: 20,
		HandlingUS:     2,
		BatchSize:      1,
		ActivePowerMW:  100,
		SleepPowerMW:   0.5,
	}
	dc := DutyCycle{FrameUS: 66_000, ActivePowerMW: 100, SleepPowerMW: 0.5}
	ebbiRep, evRep, err := CompareModes(dc, 2000, ev)
	if err != nil {
		t.Fatal(err)
	}
	if evRep.SleepFraction > 0.1 {
		t.Errorf("event-interrupt sleep = %.2f, expected near-zero at noise rates", evRep.SleepFraction)
	}
	if ebbiRep.SleepFraction < 0.95 {
		t.Errorf("EBBI sleep = %.2f, want > 0.95", ebbiRep.SleepFraction)
	}
	if ebbiRep.AvgPowerMW >= evRep.AvgPowerMW {
		t.Errorf("EBBI power %.2f should undercut event-interrupt power %.2f",
			ebbiRep.AvgPowerMW, evRep.AvgPowerMW)
	}
}

func TestEventInterruptBatchingHelps(t *testing.T) {
	base := EventInterruptModel{
		EventRateHz:    43_200,
		WakeOverheadUS: 20,
		HandlingUS:     2,
		BatchSize:      1,
		ActivePowerMW:  100,
		SleepPowerMW:   0.5,
	}
	batched := base
	batched.BatchSize = 64
	a, err := base.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if b.SleepFraction <= a.SleepFraction {
		t.Errorf("batching should increase sleep: %.3f vs %.3f", b.SleepFraction, a.SleepFraction)
	}
}

func TestEventInterruptSaturation(t *testing.T) {
	ev := EventInterruptModel{
		EventRateHz:    10_000_000, // absurd rate
		WakeOverheadUS: 20,
		HandlingUS:     2,
		ActivePowerMW:  100,
	}
	rep, err := ev.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SleepFraction != 0 {
		t.Errorf("saturated processor should never sleep: %v", rep.SleepFraction)
	}
}

func TestEventInterruptValidation(t *testing.T) {
	if _, err := (EventInterruptModel{EventRateHz: -1}).Analyze(); err == nil {
		t.Error("negative rate should error")
	}
	if _, err := (EventInterruptModel{WakeOverheadUS: -1}).Analyze(); err == nil {
		t.Error("negative overhead should error")
	}
	dc := DutyCycle{FrameUS: 0}
	if _, _, err := CompareModes(dc, 10, EventInterruptModel{}); err == nil {
		t.Error("bad duty cycle should propagate")
	}
}

func TestEventInterruptZeroRateSleepsFully(t *testing.T) {
	ev := EventInterruptModel{ActivePowerMW: 100, SleepPowerMW: 1}
	rep, err := ev.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SleepFraction != 1 {
		t.Errorf("no events -> full sleep, got %v", rep.SleepFraction)
	}
}
