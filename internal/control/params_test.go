package control

import (
	"strings"
	"testing"

	"ebbiot/internal/core"
	"ebbiot/internal/events"
)

func TestDefaultsValidate(t *testing.T) {
	ps := Defaults()
	if err := ps.Validate(); err != nil {
		t.Fatalf("Defaults invalid: %v", err)
	}
	if ps.Version != 1 {
		t.Fatalf("Defaults version = %d, want 1", ps.Version)
	}
	// Round trip: Defaults -> Apply over the default core config must be a
	// no-op on the tunable fields.
	cfg := ps.Apply(core.DefaultConfig())
	base := core.DefaultConfig()
	if cfg.EBBI != base.EBBI || cfg.RPN != base.RPN {
		t.Fatalf("Defaults.Apply changed the default config: %+v", cfg)
	}
}

func TestParamSetHash(t *testing.T) {
	a, b := Defaults(), Defaults()
	b.Version = 99 // version bumps must not change the fingerprint
	if a.Hash() != b.Hash() {
		t.Fatal("Hash changed with Version alone")
	}
	b.Threshold++
	if a.Hash() == b.Hash() {
		t.Fatal("Hash ignored a tuning change")
	}
}

func TestParamSetValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ParamSet)
	}{
		{"zero-frame", func(p *ParamSet) { p.FrameUS = 0 }},
		{"even-median", func(p *ParamSet) { p.MedianP = 4 }},
		{"median-above-cap", func(p *ParamSet) { p.MedianP = 65 }},
		{"zero-scale", func(p *ParamSet) { p.S1 = 0 }},
		{"negative-threshold", func(p *ParamSet) { p.Threshold = -1 }},
		{"zero-trackers", func(p *ParamSet) { p.MaxTrackers = 0 }},
		{"bad-match-fraction", func(p *ParamSet) { p.MatchFraction = 1.5 }},
		{"zero-misses", func(p *ParamSet) { p.MaxMisses = 0 }},
		{"negative-power", func(p *ParamSet) { p.ActivePowerMW = -1 }},
		{"sleep-above-active", func(p *ParamSet) { p.SleepPowerMW = p.ActivePowerMW + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps := Defaults()
			tc.mutate(&ps)
			if err := ps.Validate(); err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestParamStoreUpdateVersions(t *testing.T) {
	store, err := NewParamStore(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if store.Version() != 1 {
		t.Fatalf("initial version %d, want 1", store.Version())
	}
	next := store.Load()
	next.Threshold = 3
	next.Version = 99 // ignored: the store owns versioning
	got, err := store.Update(next)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 || store.Version() != 2 {
		t.Fatalf("updated version %d / store %d, want 2", got.Version, store.Version())
	}
	if store.Load().Threshold != 3 {
		t.Fatalf("update lost the field change")
	}

	bad := store.Load()
	bad.S2 = -1
	if _, err := store.Update(bad); err == nil {
		t.Fatal("Update accepted an invalid set")
	}
	if store.Version() != 2 || store.Load().S2 == -1 {
		t.Fatal("failed Update mutated the store")
	}
}

func TestParamStorePatch(t *testing.T) {
	store, err := NewParamStore(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Patch([]byte(`{"threshold": 2, "frame_us": 33000}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != 2 || got.FrameUS != 33000 || got.Version != 2 {
		t.Fatalf("patched set %+v", got)
	}
	// Absent fields keep their values.
	if got.S1 != Defaults().S1 || got.MedianP != Defaults().MedianP {
		t.Fatalf("patch clobbered absent fields: %+v", got)
	}

	if _, err := store.Patch([]byte(`{"frame_us": -5}`)); err == nil {
		t.Fatal("Patch accepted an invalid merge")
	}
	if _, err := store.Patch([]byte(`{"no_such_field": 1}`)); err == nil {
		t.Fatal("Patch accepted an unknown field")
	} else if !strings.Contains(err.Error(), "no_such_field") {
		t.Fatalf("unknown-field error does not name the field: %v", err)
	}
	if _, err := store.Patch([]byte(`{broken`)); err == nil {
		t.Fatal("Patch accepted malformed JSON")
	}
	if store.Version() != 2 {
		t.Fatalf("failed patches moved the version to %d", store.Version())
	}
}

func TestTunerAppliesOnVersionChange(t *testing.T) {
	store, err := NewParamStore(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewEBBIOT(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	tuner := NewTuner(store)

	// No version change: nothing applied, current tF returned.
	frameUS, version, err := tuner.Tune(0, sys)
	if err != nil {
		t.Fatal(err)
	}
	if frameUS != Defaults().FrameUS || version != 1 {
		t.Fatalf("Tune returned (%d, v%d)", frameUS, version)
	}

	next := store.Load()
	next.Threshold = 2
	next.FrameUS = 33_000
	if _, err := store.Update(next); err != nil {
		t.Fatal(err)
	}
	frameUS, version, err = tuner.Tune(0, sys)
	if err != nil {
		t.Fatal(err)
	}
	if frameUS != 33_000 || version != 2 {
		t.Fatalf("Tune after update returned (%d, v%d)", frameUS, version)
	}
	if got := sys.Config(); got.RPN.Threshold != 2 {
		t.Fatalf("Tune did not apply the new params: %+v", got)
	}
}

// TestPatchMedianPRederivesSkip retunes a live EBBIOT to p = 1 over the
// control plane: the near-empty skip bound follows the patch size down to
// one event, so windows of four events on the corners of one 3 x 3 patch
// are tracked — three boxes over four windows, where a bound left at p =
// 3's 5 would skip every window and report none.
func TestPatchMedianPRederivesSkip(t *testing.T) {
	store, err := NewParamStore(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewEBBIOT(store.Load().Apply(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	tuner := NewTuner(store)
	if _, err := store.Patch([]byte(`{"median_p": 1}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tuner.Tune(0, sys); err != nil {
		t.Fatal(err)
	}
	// The patch straddles an RPN block boundary on both axes (s1 = 6,
	// s2 = 3), so its four corners make one proposal.
	corners := []events.Event{{X: 101, Y: 62}, {X: 103, Y: 64}, {X: 103, Y: 62}, {X: 101, Y: 64}}
	boxes := 0
	for w := 0; w < 4; w++ {
		got, err := sys.ProcessWindow(corners)
		if err != nil {
			t.Fatal(err)
		}
		boxes += len(got)
	}
	if boxes != 3 {
		t.Fatalf("%d boxes over 4 windows at p = 1, want 3", boxes)
	}
	if st := sys.StageTimings(); st.Skipped != 0 {
		t.Fatalf("%d windows of four events skipped at p = 1", st.Skipped)
	}
}

// TestTunerSkipsRebuildForMonitoringOnlyChange guards live tracker state
// against tuning no-ops: a PATCH touching only the power model (or nothing)
// bumps the version but must not reset the tracker.
func TestTunerSkipsRebuildForMonitoringOnlyChange(t *testing.T) {
	store, err := NewParamStore(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewEBBIOT(store.Load().Apply(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	tuner := NewTuner(store)

	// Age the tracker a little.
	for i := 0; i < 3; i++ {
		if _, err := sys.ProcessWindow(nil); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Tracker().Frame() != 3 {
		t.Fatalf("tracker frame %d, want 3", sys.Tracker().Frame())
	}

	// Power-model-only update: version moves, tracker survives.
	if _, err := store.Patch([]byte(`{"active_power_mw": 120}`)); err != nil {
		t.Fatal(err)
	}
	if _, version, err := tuner.Tune(0, sys); err != nil || version != 2 {
		t.Fatalf("Tune = (v%d, %v)", version, err)
	}
	if sys.Tracker().Frame() != 3 {
		t.Fatalf("monitoring-only change reset the tracker (frame %d)", sys.Tracker().Frame())
	}

	// A chain change still rebuilds with clean-restart semantics.
	if _, err := store.Patch([]byte(`{"threshold": 2}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tuner.Tune(0, sys); err != nil {
		t.Fatal(err)
	}
	if sys.Tracker().Frame() != 0 {
		t.Fatalf("chain change did not reset the tracker (frame %d)", sys.Tracker().Frame())
	}

	// So does a tF change: the window loop owns the clock, but a tracker
	// stepped at another tF has no valid velocities.
	if _, err := sys.ProcessWindow(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Patch([]byte(`{"frame_us": 33000}`)); err != nil {
		t.Fatal(err)
	}
	if frameUS, _, err := tuner.Tune(0, sys); err != nil || frameUS != 33_000 {
		t.Fatalf("Tune = (%d us, %v)", frameUS, err)
	}
	if sys.Tracker().Frame() != 0 {
		t.Fatalf("tF change did not reset the tracker (frame %d)", sys.Tracker().Frame())
	}
}
