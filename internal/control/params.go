// Package control is the operator surface over the streaming pipeline: a
// versioned, validated parameter set (ParamSet) held in an atomic ParamStore,
// a per-stream Tuner that applies new versions to running systems at window
// boundaries, and an HTTP server exposing live run status, Prometheus
// metrics and GET/PATCH parameter endpoints — so an always-on deployment can
// be observed and retuned without restarting the Runner.
//
// The reconfiguration contract is inherited from core.ApplyParams: applying
// version N at a window boundary leaves the stream bit-identical to one
// freshly launched with version N at that boundary. Invalid parameter sets
// are rejected whole (HTTP 400 with the reason) and the previous version
// stays active.
package control

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"ebbiot/internal/core"
	"ebbiot/internal/pipeline"
)

// ParamSet is one versioned snapshot of every live-tunable per-stream
// parameter: the frame clock, the RPN thresholds and geometry, the overlap
// tracker's gating, and the duty-cycle power model. The frame clock goes to
// the window loop through the Tuner; the other chain fields map onto the
// ebbi/rpn/tracker configs via Apply. Sensor resolution and ROE masks are
// deployment-fixed and deliberately absent, and the near-empty window skip
// bound follows from median_p.
type ParamSet struct {
	// Version orders sets; the store assigns it monotonically on update.
	Version int64 `json:"version"`

	// FrameUS is the frame period tF in microseconds: the window loop's
	// clock, returned by Tuner.Tune.
	FrameUS int64 `json:"frame_us"`
	// MedianP is the binary median patch size (odd, at most
	// imgproc.MaxMedianP = 63).
	MedianP int `json:"median_p"`

	// RPN: downsampling factors, run threshold, gap merging, validity check
	// and minimum proposal size (see rpn.Config).
	S1             int  `json:"s1"`
	S2             int  `json:"s2"`
	Threshold      int  `json:"threshold"`
	MergeGap       int  `json:"merge_gap"`
	MinValidPixels int  `json:"min_valid_pixels"`
	MinW           int  `json:"min_w"`
	MinH           int  `json:"min_h"`
	Tighten        bool `json:"tighten"`

	// Tracker gating (see tracker.Config).
	MaxTrackers   int     `json:"max_trackers"`
	MatchFraction float64 `json:"match_fraction"`
	MinHits       int     `json:"min_hits"`
	MaxMisses     int     `json:"max_misses"`

	// Duty-cycle power model (see ebbi.DutyCycle); used by the /stats
	// endpoint to estimate live power, not by the tracking chain.
	ActivePowerMW float64 `json:"active_power_mw"`
	SleepPowerMW  float64 `json:"sleep_power_mw"`
}

// Defaults returns the paper's parameters as version 1 — tF = 66 ms and
// core.DefaultConfig's chain — with the duty-cycle power model of the
// evaluation (a Cortex-M class budget).
func Defaults() ParamSet {
	cfg := core.DefaultConfig()
	return ParamSet{
		Version:        1,
		FrameUS:        66_000,
		MedianP:        cfg.EBBI.MedianP,
		S1:             cfg.RPN.S1,
		S2:             cfg.RPN.S2,
		Threshold:      cfg.RPN.Threshold,
		MergeGap:       cfg.RPN.MergeGap,
		MinValidPixels: cfg.RPN.MinValidPixels,
		MinW:           cfg.RPN.MinW,
		MinH:           cfg.RPN.MinH,
		Tighten:        cfg.RPN.Tighten,
		MaxTrackers:    cfg.Tracker.MaxTrackers,
		MatchFraction:  cfg.Tracker.MatchFraction,
		MinHits:        cfg.Tracker.MinHits,
		MaxMisses:      cfg.Tracker.MaxMisses,
		ActivePowerMW:  90,
		SleepPowerMW:   0.5,
	}
}

// Apply overlays the tunable chain fields (all but the frame clock, which
// the window loop takes from Tune) onto a base core configuration,
// preserving its deployment-fixed parts (resolution, ROE, the tracker's
// blend weights).
func (p ParamSet) Apply(base core.Config) core.Config {
	base.EBBI.MedianP = p.MedianP
	base.RPN.S1 = p.S1
	base.RPN.S2 = p.S2
	base.RPN.Threshold = p.Threshold
	base.RPN.MergeGap = p.MergeGap
	base.RPN.MinValidPixels = p.MinValidPixels
	base.RPN.MinW = p.MinW
	base.RPN.MinH = p.MinH
	base.RPN.Tighten = p.Tighten
	base.Tracker.MaxTrackers = p.MaxTrackers
	base.Tracker.MatchFraction = p.MatchFraction
	base.Tracker.MinHits = p.MinHits
	base.Tracker.MaxMisses = p.MaxMisses
	return base
}

// ApplyKF overlays the shared fields onto an EBBI+KF configuration; the
// OT-specific gating maps onto the KF's pool and lifecycle counters.
func (p ParamSet) ApplyKF(base core.KFConfig) core.KFConfig {
	base.EBBI.MedianP = p.MedianP
	base.RPN.S1 = p.S1
	base.RPN.S2 = p.S2
	base.RPN.Threshold = p.Threshold
	base.RPN.MergeGap = p.MergeGap
	base.RPN.MinValidPixels = p.MinValidPixels
	base.RPN.MinW = p.MinW
	base.RPN.MinH = p.MinH
	base.RPN.Tighten = p.Tighten
	base.Tracker.MaxTracks = p.MaxTrackers
	base.Tracker.MinHits = p.MinHits
	base.Tracker.MaxMisses = p.MaxMisses
	return base
}

// SameChain reports whether two sets agree on every field that affects the
// tracking chain — everything except the version and the power model, which
// only feed the /stats duty-cycle estimate. Tuners use it so a
// monitoring-only update never resets live tracker state.
func (p ParamSet) SameChain(o ParamSet) bool {
	p.Version, o.Version = 0, 0
	p.ActivePowerMW, o.ActivePowerMW = 0, 0
	p.SleepPowerMW, o.SleepPowerMW = 0, 0
	return p == o
}

// Hash fingerprints the parameter set for run manifests: sha256 over the
// canonical JSON encoding with Version zeroed, so two runs recorded under
// the same tuning hash identically regardless of how many monitoring-only
// version bumps separated them. Recorded by ebbiot-run into the store's
// run manifest and shown by ebbiot-query list.
func (p ParamSet) Hash() [32]byte {
	p.Version = 0
	raw, err := json.Marshal(p)
	if err != nil {
		// ParamSet is a flat struct of scalars; Marshal cannot fail.
		panic(err)
	}
	return sha256.Sum256(raw)
}

// Validate checks every field through the underlying config validators (the
// same ones construction uses), plus the frame clock and the
// control-plane-only power model.
func (p ParamSet) Validate() error {
	if p.FrameUS <= 0 {
		return fmt.Errorf("control: frame_us must be positive, got %d", p.FrameUS)
	}
	cfg := p.Apply(core.DefaultConfig())
	if err := cfg.EBBI.Validate(); err != nil {
		return fmt.Errorf("control: %w", err)
	}
	if err := cfg.RPN.Validate(); err != nil {
		return fmt.Errorf("control: %w", err)
	}
	if err := cfg.Tracker.Validate(); err != nil {
		return fmt.Errorf("control: %w", err)
	}
	if p.ActivePowerMW < 0 || p.SleepPowerMW < 0 {
		return fmt.Errorf("control: negative power model (%v active, %v sleep)", p.ActivePowerMW, p.SleepPowerMW)
	}
	if p.SleepPowerMW > p.ActivePowerMW {
		return fmt.Errorf("control: sleep power %v exceeds active power %v", p.SleepPowerMW, p.ActivePowerMW)
	}
	return nil
}

// ParamStore is the atomic holder every stream consults at window
// boundaries. Readers (one Tuner per stream, on worker goroutines) never
// block; updates validate first and then publish a new version, so a
// rejected set can never become visible.
type ParamStore struct {
	mu  sync.Mutex // serialises updates; reads go through cur
	cur atomic.Pointer[ParamSet]
}

// NewParamStore validates the initial set and returns a store holding it as
// the current version (forced to at least 1).
func NewParamStore(ps ParamSet) (*ParamStore, error) {
	if ps.Version < 1 {
		ps.Version = 1
	}
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	s := &ParamStore{}
	s.cur.Store(&ps)
	return s, nil
}

// Load returns the current parameter set.
func (s *ParamStore) Load() ParamSet { return *s.cur.Load() }

// Version returns the current version.
func (s *ParamStore) Version() int64 { return s.cur.Load().Version }

// Update validates next and publishes it as the new current set with a
// version one past the current one (any version in next is ignored). The
// published set is returned; on validation failure the store is untouched.
func (s *ParamStore) Update(next ParamSet) (ParamSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updateLocked(next)
}

func (s *ParamStore) updateLocked(next ParamSet) (ParamSet, error) {
	next.Version = s.cur.Load().Version + 1
	if err := next.Validate(); err != nil {
		return ParamSet{}, err
	}
	s.cur.Store(&next)
	return next, nil
}

// Patch merges a partial JSON object over the current set and publishes the
// result — the PATCH /params semantics: absent fields keep their current
// values, unknown fields are rejected, and an invalid result leaves the
// current version active. The read-merge-publish is atomic with respect to
// concurrent updates.
func (s *ParamStore) Patch(body []byte) (ParamSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := *s.cur.Load()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&next); err != nil {
		return ParamSet{}, fmt.Errorf("control: bad params patch: %w", err)
	}
	return s.updateLocked(next)
}

// Tuner adapts a ParamStore to pipeline.Stream.Tuner for one stream: at
// each window boundary it compares the store's version with the last
// version applied to this stream and, when newer, rebuilds the stream's
// System through its ApplyParams hook — unless the new version changes no
// tracking-chain field (SameChain), in which case live tracker state is
// left alone: a PATCH that only recalibrates the power model must not
// cause a tracking blackout. The frame period goes to the window loop as
// Tune's result, for every system; EBBIOT and EBBI+KF systems are rebuilt
// with the other chain fields, which no other system (EBMS, custom) takes.
//
// Each stream needs its own Tuner (the applied cursor is per-stream);
// construct with NewTuner.
type Tuner struct {
	store *ParamStore
	// applied is the set already reflected in the stream's System.
	applied ParamSet
}

// NewTuner returns a tuner whose stream's System was built from the store's
// current set — the first Tune call therefore applies nothing until the
// store moves past it.
func NewTuner(store *ParamStore) *Tuner {
	return &Tuner{store: store, applied: store.Load()}
}

// Tune implements pipeline.Tuner.
func (t *Tuner) Tune(sensor int, sys core.System) (frameUS, version int64, err error) {
	ps := t.store.Load()
	if ps.Version != t.applied.Version {
		if !ps.SameChain(t.applied) {
			switch s := sys.(type) {
			case *core.EBBIOT:
				if err := s.ApplyParams(ps.Apply(s.Config())); err != nil {
					return 0, 0, fmt.Errorf("control: apply params v%d: %w", ps.Version, err)
				}
			case *core.EBBIKF:
				if err := s.ApplyParams(ps.ApplyKF(s.Config())); err != nil {
					return 0, 0, fmt.Errorf("control: apply params v%d: %w", ps.Version, err)
				}
			}
		}
		t.applied = ps
	}
	return ps.FrameUS, ps.Version, nil
}

// Attach installs one fresh Tuner per stream, sharing the store.
func Attach(streams []pipeline.Stream, store *ParamStore) {
	for i := range streams {
		streams[i].Tuner = NewTuner(store)
	}
}
