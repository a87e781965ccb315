package control

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/imgproc"
	"ebbiot/internal/pipeline"
)

// countSystem is a minimal deterministic core.System for server tests.
type countSystem struct{ windows int }

func (c *countSystem) Name() string { return "count" }

func (c *countSystem) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	c.windows++
	if len(evs) == 0 {
		return nil, nil
	}
	return []geometry.Box{geometry.NewBox(len(evs), c.windows, 2, 2)}, nil
}

// runOnce drives a short two-stream run so the server has real status.
func runOnce(t *testing.T, runner *pipeline.Runner, tuner func(i int) pipeline.Tuner) {
	t.Helper()
	streams := make([]pipeline.Stream, 2)
	for i := range streams {
		var evs []events.Event
		for ts := int64(0); ts < 500_000; ts += 1000 {
			evs = append(evs, events.Event{X: int16(i + 1), Y: 2, T: ts, P: events.On})
		}
		src, err := pipeline.NewSliceSource(evs)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = pipeline.Stream{Name: fmt.Sprintf("cam%d", i), Source: src, System: &countSystem{}}
		if tuner != nil {
			streams[i].Tuner = tuner(i)
		}
	}
	if _, err := runner.Run(context.Background(), streams, nil); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func patchParams(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, url+"/params", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, string(b)
}

func TestServerEndpoints(t *testing.T) {
	store, err := NewParamStore(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := pipeline.NewRunner(pipeline.Config{FrameUS: 66_000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(store, runner).Handler())
	defer srv.Close()

	// Before any run: healthz is idle, stats empty, streams 404.
	var health map[string]any
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health["status"] != "ok" || health["phase"] != "idle" {
		t.Fatalf("healthz %v", health)
	}
	var empty pipeline.StatusSnapshot
	getJSON(t, srv.URL+"/stats", &empty)
	if empty.Running || empty.Streams != 0 {
		t.Fatalf("pre-run stats %+v", empty)
	}
	if resp := getJSON(t, srv.URL+"/streams/0", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-run stream status %d", resp.StatusCode)
	}

	runOnce(t, runner, func(int) pipeline.Tuner { return NewTuner(store) })

	// healthz now reports done.
	getJSON(t, srv.URL+"/healthz", &health)
	if health["phase"] != "done" {
		t.Fatalf("post-run healthz %v", health)
	}

	// /stats: totals and per-stream counters for both streams, plus the
	// active kernel dispatch report.
	var stats struct {
		pipeline.StatusSnapshot
		ParamVersion int64 `json:"param_version"`
		Kernels      struct {
			CPU  string `json:"cpu"`
			Impl string `json:"impl"`
		} `json:"kernels"`
	}
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Running {
		t.Fatal("stats still running after Run returned")
	}
	if k := imgproc.KernelInfo(); stats.Kernels.Impl == "" ||
		stats.Kernels.CPU != k.CPU || stats.Kernels.Impl != k.Impl {
		t.Fatalf("stats kernels %+v, want %+v", stats.Kernels, k)
	}
	if stats.Streams != 2 || stats.Windows != 16 { // 2 streams x 8 windows of 66 ms over 0.5 s
		t.Fatalf("stats totals %+v", stats.StatusSnapshot)
	}
	if stats.ParamVersion != 1 {
		t.Fatalf("stats param_version %d", stats.ParamVersion)
	}
	if len(stats.PerStream) != 2 {
		t.Fatalf("per-stream count %d", len(stats.PerStream))
	}
	for _, ss := range stats.PerStream {
		if ss.State != "done" || ss.Windows != 8 || ss.Events != 500 {
			t.Fatalf("stream %d snapshot %+v", ss.Sensor, ss)
		}
		if ss.FrameUS != 66_000 || ss.ParamVersion != 1 {
			t.Fatalf("stream %d tuning (%d us, v%d)", ss.Sensor, ss.FrameUS, ss.ParamVersion)
		}
	}

	// /streams/{id} by index and by name; unknown id 404s.
	var one pipeline.StreamSnapshot
	if resp := getJSON(t, srv.URL+"/streams/1", &one); resp.StatusCode != http.StatusOK {
		t.Fatalf("stream by index status %d", resp.StatusCode)
	}
	if one.Name != "cam1" || one.Windows != 8 {
		t.Fatalf("stream 1 snapshot %+v", one)
	}
	var byName pipeline.StreamSnapshot
	getJSON(t, srv.URL+"/streams/cam0", &byName)
	if byName.Sensor != 0 {
		t.Fatalf("stream by name snapshot %+v", byName)
	}
	if resp := getJSON(t, srv.URL+"/streams/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream status %d", resp.StatusCode)
	}

	// /params GET.
	var ps ParamSet
	getJSON(t, srv.URL+"/params", &ps)
	if ps.Version != 1 || ps.FrameUS != Defaults().FrameUS {
		t.Fatalf("params %+v", ps)
	}

	// PATCH applies and bumps the version.
	resp, body := patchParams(t, srv.URL, `{"threshold": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch status %d: %s", resp.StatusCode, body)
	}
	var patched ParamSet
	if err := json.Unmarshal([]byte(body), &patched); err != nil {
		t.Fatal(err)
	}
	if patched.Version != 2 || patched.Threshold != 2 {
		t.Fatalf("patched %+v", patched)
	}

	// Invalid PATCH: 400 with a reason, old version stays active.
	resp, body = patchParams(t, srv.URL, `{"median_p": 4}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid patch status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "median") {
		t.Fatalf("rejection reason missing: %s", body)
	}
	if store.Version() != 2 {
		t.Fatalf("invalid patch moved the store to v%d", store.Version())
	}
	resp, body = patchParams(t, srv.URL, `{"frame_us": 0}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "frame_us") {
		t.Fatalf("zero frame_us patch: %d %s", resp.StatusCode, body)
	}
	// skip_events_below is no parameter: the skip bound follows median_p.
	for _, field := range []string{"bogus_knob", "skip_events_below"} {
		resp, body = patchParams(t, srv.URL, `{"`+field+`": 1}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, field) {
			t.Fatalf("unknown-field patch: %d %s", resp.StatusCode, body)
		}
	}
	if store.Version() != 2 {
		t.Fatalf("rejected patches moved the store to v%d", store.Version())
	}

	// Wrong method on /params.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/params", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /params status %d", dresp.StatusCode)
	}

	// /metrics: Prometheus text with per-stream series.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	metrics := string(mb)
	k := imgproc.KernelInfo()
	for _, want := range []string{
		"ebbiot_param_version 2",
		"ebbiot_run_running 0",
		`ebbiot_windows_total{stream="cam0"} 8`,
		`ebbiot_events_total{stream="cam1"} 500`,
		`ebbiot_frame_us{stream="cam0"} 66000`,
		"ebbiot_sink_lag",
		fmt.Sprintf("ebbiot_kernel_info{cpu=%q,impl=%q} 1", k.CPU, k.Impl),
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestServerWithoutParams(t *testing.T) {
	// A replay server has status but no live parameters.
	rs := pipeline.NewRunStatus(1)
	srv := httptest.NewServer(NewServer(nil, rs).Handler())
	defer srv.Close()

	if resp := getJSON(t, srv.URL+"/params", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /params status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPatch, srv.URL+"/params", bytes.NewReader([]byte(`{}`)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PATCH /params status %d", resp.StatusCode)
	}
	var health map[string]any
	getJSON(t, srv.URL+"/healthz", &health)
	if health["phase"] != "running" {
		t.Fatalf("healthz with bare status %v", health)
	}
}
