package control

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ebbiot/internal/ebbi"
	"ebbiot/internal/imgproc"
	"ebbiot/internal/pipeline"
)

// StatusProvider supplies the live run to serve. pipeline.Runner implements
// it directly (Status returns the current run), and so does a bare
// pipeline.RunStatus (for store replays and custom drivers). A nil return
// means no run has started yet.
type StatusProvider interface {
	Status() *pipeline.RunStatus
}

// Server is the control plane's HTTP surface:
//
//	GET   /healthz       liveness + run phase
//	GET   /stats         full StatusSnapshot (totals + per-stream)
//	GET   /streams/{id}  one stream by index or name
//	GET   /params        current ParamSet
//	PATCH /params        merge a partial ParamSet; 400 + reason on invalid,
//	                     previous version stays active
//	GET   /metrics       Prometheus text format
//
// Params may be nil (a replay has no live parameters): /params then answers
// 404 and /stats omits the power estimate.
type Server struct {
	params *ParamStore
	status StatusProvider
	start  time.Time
	mux    *http.ServeMux
}

// NewServer builds the server; either argument may be nil (the matching
// endpoints degrade as documented).
func NewServer(params *ParamStore, status StatusProvider) *Server {
	s := &Server{params: params, status: status, start: time.Now(), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /streams/{id}", s.handleStream)
	s.mux.HandleFunc("GET /params", s.handleGetParams)
	s.mux.HandleFunc("PATCH /params", s.handlePatchParams)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the root handler, for mounting on any http.Server (or an
// httptest one).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve listens on addr and serves handler in a background goroutine — the
// bootstrap the CLIs share. It returns the bound address (useful with
// ":0") and a shutdown function that gives in-flight requests a 2 s grace.
// Serve errors other than graceful close are passed to onErr (may be nil).
func Serve(addr string, handler http.Handler, onErr func(error)) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("control: listen: %w", err)
	}
	hs := &http.Server{Handler: handler}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed && onErr != nil {
			onErr(err)
		}
	}()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}
	return ln.Addr(), shutdown, nil
}

// run returns the current RunStatus, or nil when none exists yet.
func (s *Server) run() *pipeline.RunStatus {
	if s.status == nil {
		return nil
	}
	return s.status.Status()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	phase := "idle"
	if rs := s.run(); rs != nil {
		if rs.Running() {
			phase = "running"
		} else {
			phase = "done"
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"phase":     phase,
		"uptime_us": time.Since(s.start).Microseconds(),
	})
}

// statsResponse is the /stats payload: the pipeline's live snapshot plus
// the control plane's own view (parameter version, duty-cycle estimate).
type statsResponse struct {
	pipeline.StatusSnapshot
	ParamVersion int64           `json:"param_version,omitempty"`
	Duty         []dutyEstimate  `json:"duty,omitempty"`
	Kernels      imgproc.Kernels `json:"kernels"`
}

// dutyEstimate is the live per-stream duty-cycle power estimate, computed
// from the measured mean active time and the ParamSet's power model.
type dutyEstimate struct {
	Sensor        int     `json:"sensor"`
	MeanActiveUS  float64 `json:"mean_active_us"`
	SleepFraction float64 `json:"sleep_fraction"`
	AvgPowerMW    float64 `json:"avg_power_mw"`
	Savings       float64 `json:"savings"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rs := s.run()
	if rs == nil {
		writeJSON(w, http.StatusOK, statsResponse{Kernels: imgproc.KernelInfo()})
		return
	}
	resp := statsResponse{StatusSnapshot: rs.Snapshot(), Kernels: imgproc.KernelInfo()}
	if s.params != nil {
		ps := s.params.Load()
		resp.ParamVersion = ps.Version
		dc := ebbi.DutyCycle{FrameUS: ps.FrameUS, ActivePowerMW: ps.ActivePowerMW, SleepPowerMW: ps.SleepPowerMW}
		for _, ss := range resp.PerStream {
			if ss.Windows == 0 {
				continue
			}
			mean := float64(ss.ProcUS) / float64(ss.Windows)
			rep, err := dc.Analyze(int64(mean))
			if err != nil {
				continue
			}
			resp.Duty = append(resp.Duty, dutyEstimate{
				Sensor:        ss.Sensor,
				MeanActiveUS:  mean,
				SleepFraction: rep.SleepFraction,
				AvgPowerMW:    rep.AvgPowerMW,
				Savings:       rep.Savings,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	rs := s.run()
	if rs == nil {
		writeError(w, http.StatusNotFound, "no run in progress")
		return
	}
	id := r.PathValue("id")
	var ss *pipeline.StreamStatus
	if idx, err := strconv.Atoi(id); err == nil {
		ss = rs.Stream(idx)
	}
	if ss == nil {
		ss = rs.StreamByName(id)
	}
	if ss == nil {
		writeError(w, http.StatusNotFound, "unknown stream %q", id)
		return
	}
	writeJSON(w, http.StatusOK, ss.Snapshot(rs.Elapsed()))
}

func (s *Server) handleGetParams(w http.ResponseWriter, r *http.Request) {
	if s.params == nil {
		writeError(w, http.StatusNotFound, "no live parameters (replay or untuned run)")
		return
	}
	writeJSON(w, http.StatusOK, s.params.Load())
}

func (s *Server) handlePatchParams(w http.ResponseWriter, r *http.Request) {
	if s.params == nil {
		writeError(w, http.StatusNotFound, "no live parameters (replay or untuned run)")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	next, err := s.params.Patch(body)
	if err != nil {
		// Invalid set rejected whole: the previous version stays active.
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, next)
}

// handleMetrics renders the Prometheus text exposition format by hand —
// counters and gauges only, no client library dependency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	k := imgproc.KernelInfo()
	fmt.Fprintf(w, "# HELP ebbiot_kernel_info Active imgproc kernel dispatch (1 = the labelled configuration is in effect).\n# TYPE ebbiot_kernel_info gauge\nebbiot_kernel_info{cpu=%q,impl=%q} 1\n",
		k.CPU, k.Impl)
	if s.params != nil {
		fmt.Fprintf(w, "# HELP ebbiot_param_version Currently published ParamSet version.\n# TYPE ebbiot_param_version gauge\nebbiot_param_version %d\n", s.params.Version())
	}
	rs := s.run()
	if rs == nil {
		return
	}
	snap := rs.Snapshot()
	running := 0
	if snap.Running {
		running = 1
	}
	fmt.Fprintf(w, "# HELP ebbiot_run_running Whether a run is in flight.\n# TYPE ebbiot_run_running gauge\nebbiot_run_running %d\n", running)
	fmt.Fprintf(w, "# HELP ebbiot_run_elapsed_seconds Wall-clock since the run started.\n# TYPE ebbiot_run_elapsed_seconds gauge\nebbiot_run_elapsed_seconds %g\n", float64(snap.ElapsedUS)/1e6)
	fmt.Fprintf(w, "# HELP ebbiot_sink_seconds_total Cumulative wall-clock inside Sink.Consume.\n# TYPE ebbiot_sink_seconds_total counter\nebbiot_sink_seconds_total %g\n", float64(snap.SinkUS)/1e6)
	fmt.Fprintf(w, "# HELP ebbiot_sink_lag Workers waiting to hand a snapshot to the sink.\n# TYPE ebbiot_sink_lag gauge\nebbiot_sink_lag %d\n", snap.SinkLag)

	// Deterministic stream order for scrape friendliness.
	streams := append([]pipeline.StreamSnapshot(nil), snap.PerStream...)
	sort.Slice(streams, func(i, j int) bool { return streams[i].Sensor < streams[j].Sensor })
	emit := func(name, help, typ string, value func(ss pipeline.StreamSnapshot) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, ss := range streams {
			fmt.Fprintf(w, "%s{stream=%q} %s\n", name, ss.Name, value(ss))
		}
	}
	emit("ebbiot_windows_total", "Windows processed per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(ss.Windows, 10) })
	emit("ebbiot_events_total", "Events consumed per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(ss.Events, 10) })
	emit("ebbiot_boxes_total", "Track boxes reported per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(ss.Boxes, 10) })
	emit("ebbiot_windows_skipped_total", "Windows bypassed by the near-empty fast path per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string {
			if ss.Stages == nil {
				return "0"
			}
			return strconv.FormatInt(ss.Stages.WindowsSkipped, 10)
		})
	emit("ebbiot_proc_seconds_total", "Cumulative ProcessWindow wall-clock per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string {
			return strconv.FormatFloat(float64(ss.ProcUS)/1e6, 'g', -1, 64)
		})
	emit("ebbiot_active_tracks", "Tracks reported at the last window (live NT).", "gauge",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(ss.LastBoxes, 10) })
	emit("ebbiot_frame_us", "Frame period tF in effect.", "gauge",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(ss.FrameUS, 10) })
	emit("ebbiot_source_errors_total", "Source/windower failures per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(ss.SourceErrors, 10) })
	emit("ebbiot_stream_stalls_total", "Watchdog trips (no window progress within the deadline) per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(ss.Stalls, 10) })
	emit("ebbiot_stream_stalled", "Whether the stream is currently stalled (no window progress).", "gauge",
		func(ss pipeline.StreamSnapshot) string {
			if ss.State == pipeline.StreamStalled.String() {
				return "1"
			}
			return "0"
		})

	// Network-ingest counters: emitted only when at least one stream is fed
	// by a metered source, so local-file runs stay noise-free.
	hasIngest := false
	for _, ss := range streams {
		if ss.Source != nil {
			hasIngest = true
			break
		}
	}
	if !hasIngest {
		return
	}
	src := func(ss pipeline.StreamSnapshot) pipeline.SourceStats {
		if ss.Source == nil {
			return pipeline.SourceStats{}
		}
		return *ss.Source
	}
	emit("ebbiot_ingest_connected", "Whether the stream's sensor connection is live.", "gauge",
		func(ss pipeline.StreamSnapshot) string {
			if src(ss).Connected {
				return "1"
			}
			return "0"
		})
	emit("ebbiot_ingest_batches_total", "Event batches accepted off the wire per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).Batches, 10) })
	emit("ebbiot_ingest_events_total", "Events accepted off the wire per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).Events, 10) })
	emit("ebbiot_ingest_dropped_batches_total", "Batches shed by the queue drop policy per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).DroppedBatches, 10) })
	emit("ebbiot_ingest_dropped_events_total", "Events shed by the queue drop policy per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).DroppedEvents, 10) })
	emit("ebbiot_ingest_dup_batches_total", "Duplicate/reordered batches rejected per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).DupBatches, 10) })
	emit("ebbiot_ingest_dup_events_total", "Events of duplicate/reordered batches rejected per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).DupEvents, 10) })
	emit("ebbiot_ingest_seq_gaps_total", "Skipped batch sequence numbers per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).SeqGaps, 10) })
	emit("ebbiot_ingest_queued_batches", "Batches waiting in the stream's ingest queue.", "gauge",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).QueuedBatches, 10) })
	emit("ebbiot_ingest_faults_total", "Mid-stream transport/protocol faults per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).Faults, 10) })
	emit("ebbiot_ingest_epoch", "Ingest session epoch (1 = first connection, +1 per accepted resume).", "gauge",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).Epoch, 10) })
	emit("ebbiot_ingest_resumes_total", "Accepted session resumes per stream.", "counter",
		func(ss pipeline.StreamSnapshot) string { return strconv.FormatInt(src(ss).Resumes, 10) })
	emit("ebbiot_ingest_resumable", "Whether the stream is disconnected but inside its resume grace window.", "gauge",
		func(ss pipeline.StreamSnapshot) string {
			if src(ss).Resumable {
				return "1"
			}
			return "0"
		})
}
