package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"ebbiot/internal/core"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/ingest"
	"ebbiot/internal/pipeline"
)

// TestMain lets the test binary serve as the ingest generator, the way
// the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "generator" {
		if err := generatorMain(); err != nil {
			fmt.Fprintln(os.Stderr, "generator:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny is a run at self-test size: 3 s segments, one set-up, one second
// of phases.
func tiny(t *testing.T, workload string, trace bool, f fault) result {
	t.Helper()
	res, err := run(config{workload: workload, seed: 3, seconds: 1, trace: trace, segment: 45, setups: 1, work: t.TempDir(), fault: f})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			res := tiny(t, w.Name, trace, noFault)
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if trace && res.Metrics["failed_ratio"].Value != 0 {
				t.Errorf("%s: failed_ratio = %v", w.Name, res.Metrics["failed_ratio"].Value)
			}
		}
	}
}

func TestInjectedFaultsAreCounted(t *testing.T) {
	for _, f := range []fault{dropWindow, alterBox} {
		for _, w := range []string{"replay-eng", "ingest-eng"} {
			res := tiny(t, w, true, f)
			if res.Correct || res.Failed == 0 || res.Metrics["failed_ratio"].Value <= 0 {
				t.Errorf("%s fault %d: correct=%v failed=%d failed_ratio=%v", w, f, res.Correct, res.Failed, res.Metrics["failed_ratio"].Value)
			}
		}
	}
}

type plainSource struct{}

func (plainSource) NextWindow(buf []events.Event, _, _ int64) ([]events.Event, error) {
	return buf, nil
}

type meterSource struct{ plainSource }

func (meterSource) SourceStats() pipeline.SourceStats { return pipeline.SourceStats{Batches: 7} }

type restartSource struct{ plainSource }

func (restartSource) Restart() error { return nil }

type meterRestartSource struct{ plainSource }

func (meterRestartSource) SourceStats() pipeline.SourceStats { return pipeline.SourceStats{Batches: 7} }
func (meterRestartSource) Restart() error                    { return nil }

type plainSystem struct{}

func (plainSystem) Name() string                                         { return "plain" }
func (plainSystem) ProcessWindow([]events.Event) ([]geometry.Box, error) { return nil, nil }

type timerSystem struct{ plainSystem }

func (timerSystem) StageTimings() core.StageTimings { return core.StageTimings{Windows: 7} }

type batchSystem struct{ plainSystem }

func (batchSystem) ProcessWindowBatch(w [][]events.Event) ([][]geometry.Box, error) {
	return make([][]geometry.Box, len(w)), nil
}

type timerBatchSystem struct{ batchSystem }

func (timerBatchSystem) StageTimings() core.StageTimings { return core.StageTimings{Windows: 7} }

// The traced run's wrappers, and the hand-over stamps of saturated passes,
// must implement exactly the optional interfaces the Runner type-asserts
// that the wrapped value implements, and forward them.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer(1, "source")
	eb, err := core.NewEBBIOT(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eb.Close()
	srcs := []pipeline.EventSource{plainSource{}, meterSource{}, restartSource{}, meterRestartSource{},
		ingest.NewNetSource(ingest.NetSourceConfig{})}
	var at []int64
	wraps := map[string]func(pipeline.EventSource) pipeline.EventSource{
		"trace": func(src pipeline.EventSource) pipeline.EventSource { return tr.traceSource(0, src) },
		"handover": func(src pipeline.EventSource) pipeline.EventSource {
			return keepSourceInterfaces(handover{src, &at}, src)
		},
	}
	for name, wrap := range wraps {
		for _, src := range srcs {
			w := wrap(src)
			m, wm := w.(pipeline.SourceMeter)
			im, sm := src.(pipeline.SourceMeter)
			_, wr := w.(pipeline.RestartableSource)
			_, sr := src.(pipeline.RestartableSource)
			if wm != sm || wr != sr {
				t.Errorf("%s %T: wrapper meter=%v restartable=%v, want %v %v", name, src, wm, wr, sm, sr)
			}
			if wm && m.SourceStats() != im.SourceStats() {
				t.Errorf("%s %T: SourceStats not forwarded", name, src)
			}
		}
	}
	for _, sys := range []core.System{plainSystem{}, timerSystem{}, batchSystem{}, timerBatchSystem{}, eb} {
		w := tr.traceSystem(0, sys)
		tw, wt := w.(core.StageTimer)
		ts, st := sys.(core.StageTimer)
		_, wb := w.(core.WindowBatcher)
		_, sb := sys.(core.WindowBatcher)
		if wt != st || wb != sb {
			t.Errorf("%T: wrapper timer=%v batcher=%v, want %v %v", sys, wt, wb, st, sb)
		}
		if wt && tw.StageTimings() != ts.StageTimings() {
			t.Errorf("%T: StageTimings not forwarded", sys)
		}
	}
}
