package integration_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ebbiot/internal/core"
	"ebbiot/internal/dataset"
	"ebbiot/internal/events"
	"ebbiot/internal/roe"
)

// lockWindowUS is the frame window the behaviour lock cuts its recordings
// into (the paper's tF); a 10 s replica gives lockWindows whole windows.
const (
	lockWindowUS = 66_000
	lockWindows  = 151
)

// lockRecordings are the behaviour lock's inputs: 10 s replicas of both
// presets at the seeds ebbiot-eval uses by default. want holds the SHA-256
// of each system's tracker output (see trackDigest), keyed by system name.
var lockRecordings = []struct {
	name   string
	preset dataset.Preset
	fullS  float64 // full-length recording duration in seconds
	seed   uint64
	want   map[string]string
}{
	{"ENG", dataset.ENG, 2998.4, 11, map[string]string{
		"EBBIOT":  "486ec0741ddc78aa58fa771634b681beff3e0b29f5fa49184768ae59d7f992cc",
		"EBBI+KF": "a59c9f096b81800767ecd2d11579115f82d0a52c20521954a415b499b41c00f8",
		"EBMS":    "6c9df7c420e7106aaa68c92915769680ec4a468e02eea889cedf0fa164359151",
	}},
	{"LT4", dataset.LT4, 999.5, 13, map[string]string{
		"EBBIOT":  "463f604236b0addaef98a262bacf0eab90849fc337c4571938d0cec58ab23762",
		"EBBI+KF": "88e3c3f1d8d864a52df34e74c7de085249fa6ce459f974ee118a9ef91faab2a2",
		"EBMS":    "96e37d117ba3c8e00c5d6146f10dc67baf3264ad94c8fe44eca23f4242598fd0",
	}},
}

// lockSystems builds the three systems configured as ebbiot-eval builds
// them: defaults plus the ENG tree exclusion zone on all three.
var lockSystems = []struct {
	name string
	new  func(mask *roe.Mask) (core.System, error)
}{
	{"EBBIOT", func(mask *roe.Mask) (core.System, error) {
		return core.NewEBBIOT(core.DefaultConfig().WithROE(mask))
	}},
	{"EBBI+KF", func(mask *roe.Mask) (core.System, error) {
		cfg := core.DefaultKFConfig()
		cfg.ROE = mask
		return core.NewEBBIKF(cfg)
	}},
	{"EBMS", func(mask *roe.Mask) (core.System, error) {
		cfg := core.DefaultEBMSConfig()
		cfg.ROE = mask
		return core.NewEBMS(cfg)
	}},
}

// lockInput generates a 10 s replica of the preset and cuts it into
// lockWindowUS windows straight from the simulator.
func lockInput(t *testing.T, preset dataset.Preset, fullS float64, seed uint64) (*dataset.Recording, [][]events.Event) {
	t.Helper()
	spec, err := dataset.For(preset, 10/fullS, seed)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var wins [][]events.Event
	for cursor := int64(0); cursor+lockWindowUS <= spec.DurationUS; cursor += lockWindowUS {
		evs, err := rec.Sim.Events(cursor, cursor+lockWindowUS)
		if err != nil {
			t.Fatal(err)
		}
		wins = append(wins, evs)
	}
	return rec, wins
}

// trackDigest feeds the windows through sys and hashes every reported box,
// in order, as one "window x y w h" line.
func trackDigest(t *testing.T, sys core.System, wins [][]events.Event) string {
	t.Helper()
	h := sha256.New()
	for window, evs := range wins {
		boxes, err := sys.ProcessWindow(evs)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range boxes {
			fmt.Fprintf(h, "%d %d %d %d %d\n", window, b.X, b.Y, b.W, b.H)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBehaviourLock pins the tracker output of all three systems on both
// presets to committed digests, so a change that is meant to keep behaviour
// (a refactor, a deletion, a kernel rewrite) is checked against the output
// of the tree before it rather than against itself. A mismatch prints the
// new digest; update the constant only for a change that is meant to alter
// tracking output, and say so in its description.
func TestBehaviourLock(t *testing.T) {
	mask := roe.New(dataset.TreeROEENG())
	for _, rec := range lockRecordings {
		_, wins := lockInput(t, rec.preset, rec.fullS, rec.seed)
		if len(wins) != lockWindows {
			t.Fatalf("%s: %d windows, want %d", rec.name, len(wins), lockWindows)
		}
		for _, s := range lockSystems {
			t.Run(rec.name+"/"+s.name, func(t *testing.T) {
				sys, err := s.new(mask)
				if err != nil {
					t.Fatal(err)
				}
				if got := trackDigest(t, sys, wins); got != rec.want[s.name] {
					t.Errorf("tracker output digest %s, want %s", got, rec.want[s.name])
				}
			})
		}
	}
}
