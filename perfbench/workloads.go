package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ebbiot/internal/aedat"
	"ebbiot/internal/dataset"
	"ebbiot/internal/events"
	"ebbiot/internal/ingest"
	"ebbiot/internal/pipeline"
)

const (
	// frameUS is tF, the paper's 66 ms frame.
	frameUS = 66_000
	// liveSpeed is the open-loop rate of ingest-eng's live phase, in
	// multiples of recorded time per stream: under a fifth of the
	// workload's capacity, so latency measures the path and not a growing
	// backlog, and fast enough that a traced run holds several live passes
	// to take each window's median latency over.
	liveSpeed = 40.0
)

// workload is one set of inputs and the way each pass feeds them to the
// program.
type workload struct {
	name string
	// source names the layer that serves windows in this workload.
	source string
	// workers is the Runner's worker count in saturated phases; a live
	// phase gives every stream its own worker, as a deployment must.
	workers int
	// live marks a workload whose traced runs add an open-loop live
	// phase, timing latency from each input's due time into the
	// ingest.live_latency metrics. The end-to-end latency of every workload
	// is timed instead in untraced saturated passes, from the moment the
	// source hands a window over to the moment its snapshot reaches the
	// sink: open-loop latency measured the hypervisor, since every window
	// wakes an idle vCPU. On identical code (shared 2-vCPU VM), paced
	// phases' pooled p99 read 2.4–7.6 ms on replay-eng and 5.3–9.5 ms on
	// fleet-lt4, with 1–14% of windows over 2.5 ms late; on ingest-eng the
	// medians over ten seeds of the live p50 and p99 moved from 0.81 and
	// 1.33 ms to 1.03 and 3.27 ms between two sets an hour apart.
	live bool
	// synth makes the workload's streams (inputs may repeat) in dir from
	// segments of frames windows.
	synth func(dir string, seed uint64, frames int) ([]*input, error)
	// open builds the sources of one pass.
	open func(b *bench, ctx context.Context, live bool) (*sources, error)
}

// sources is one pass's event sources and the hooks around its run.
type sources struct {
	srcs []pipeline.EventSource
	// due returns the Unix ns from which the latency of window frame of
	// stream i counts: in a live pass, when the input that completes it was
	// due; in a saturated pass, when its source handed it over.
	due func(i, frame int) int64
	// start runs just before the Runner; finish just after it returns.
	start  func() error
	finish func() (genReport, error)
	close  func()
}

// engScenes are the traffic scenes of the ENG input, one segment each:
// 1130 windows, so the latency p99 over windows has 11 beyond it.
var engScenes = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

var workloads = map[string]*workload{
	// Decode-bound dense path: one ENG replica replayed from an AEDAT file
	// the way `ebbiot-run -in` does, with one worker, so there are no
	// scheduling effects and a decode change shows in full.
	"replay-eng": {
		name:    "replay-eng",
		source:  "aedat.decode",
		workers: 1,
		synth: func(dir string, seed uint64, frames int) ([]*input, error) {
			in, err := synthesize("eng", dataset.ENG, engScenes, frames, seed, filepath.Join(dir, "eng.aer"))
			return []*input{in}, err
		},
		open: openFiles,
	},
	// Runtime-overhead path: eight light LT4 replicas decoded once into
	// SliceSources (`ebbiot-run -sensors`), each feeding two of sixteen
	// streams, two workers and one store sink. No decode runs, so a decode
	// change must read as no change here.
	"fleet-lt4": {
		name:    "fleet-lt4",
		source:  "pipeline.source",
		workers: 2,
		synth: func(dir string, seed uint64, frames int) ([]*input, error) {
			// One scene per stream, four segments long: LT4 is light, and
			// longer scenes keep its tracking scores steadier.
			ins := make([]*input, 8)
			for i := range ins {
				var err error
				name := fmt.Sprintf("lt4-%d", i)
				if ins[i], err = synthesize(name, dataset.LT4, []uint64{uint64(i + 1)}, 4*frames, seed*8+uint64(i), filepath.Join(dir, name+".aer")); err != nil {
					return nil, err
				}
			}
			// Two streams per replica make a pass ~0.1 s long, so its fixed
			// costs (Runner start-up, the store's fsync at Flush) weigh half
			// as much, without more synthesis.
			return append(ins, ins...), nil
		},
		open: openSlices,
	},
	// Network path: one ENG replica sent by a generator process over two
	// loopback connections into the ingest server — wire encode/decode,
	// the NetSource queue and the ACK/replay-ring machinery.
	"ingest-eng": {
		name:    "ingest-eng",
		source:  "ingest.queue_wait",
		workers: 2,
		live:    true,
		synth: func(dir string, seed uint64, frames int) ([]*input, error) {
			in, err := synthesize("eng", dataset.ENG, engScenes, frames, seed, filepath.Join(dir, "eng.aer"))
			return []*input{in, in}, err
		},
		open: openIngest,
	},
}

func noStart() error               { return nil }
func noFinish() (genReport, error) { return genReport{}, nil }

func openFiles(b *bench, _ context.Context, _ bool) (*sources, error) {
	s := &sources{start: noStart, finish: noFinish}
	var files []*os.File
	s.close = func() {
		for _, f := range files {
			f.Close()
		}
	}
	for _, in := range b.streams {
		f, err := os.Open(in.path)
		if err != nil {
			s.close()
			return nil, err
		}
		files = append(files, f)
		r, err := aedat.NewReader(f)
		if err != nil {
			s.close()
			return nil, err
		}
		s.srcs = append(s.srcs, pipeline.NewAEDATSource(r))
	}
	return s, nil
}

func openSlices(b *bench, _ context.Context, _ bool) (*sources, error) {
	s := &sources{start: noStart, finish: noFinish, close: func() {}}
	for _, in := range b.streams {
		src, err := pipeline.NewSliceSource(in.evs)
		if err != nil {
			return nil, err
		}
		s.srcs = append(s.srcs, src)
	}
	return s, nil
}

// openIngest starts a fresh server for the pass (a stream ends for good
// at its EOF frame) and has the generator stream into it once.
func openIngest(b *bench, ctx context.Context, live bool) (*sources, error) {
	if b.gen == nil {
		gen, err := startGenerator(b.streams[0].path)
		if err != nil {
			return nil, err
		}
		b.gen = gen
	}
	ids := make([]string, len(b.streams))
	for i := range ids {
		ids[i] = fmt.Sprintf("eng%d", i)
	}
	srv, err := ingest.Listen("127.0.0.1:0", ingest.ServerConfig{Streams: ids, Res: b.streams[0].res})
	if err != nil {
		return nil, err
	}
	// A worker blocked on a quiet connection only wakes when the server
	// closes, so a cancelled pass closes it.
	stop := context.AfterFunc(ctx, func() { srv.Close() })
	s := &sources{close: func() { stop(); srv.Close() }}
	for _, id := range ids {
		s.srcs = append(s.srcs, srv.Source(id))
	}
	cmd := genCommand{Addr: srv.Addr().String(), IDs: ids}
	if live {
		n := len(b.streams[0].ref)
		cmd.Speed = liveSpeed
		s.due = func(i, frame int) int64 {
			// Window k closes when batch k+1 arrives; the last one at EOF,
			// sent right after the last batch.
			return cmd.T0 + streamOffset(i, liveSpeed) + int64(float64(min(frame+2, n)*frameUS*1000)/liveSpeed)
		}
	}
	s.start = func() error {
		if live {
			// Leave the generator time to connect before batch 0 is due.
			cmd.T0 = nowNS() + int64(20*time.Millisecond)
		}
		return b.gen.send(cmd)
	}
	s.finish = b.gen.report
	return s, nil
}

// handover records when its source hands each window over: where a
// saturated pass's window latency counts from.
type handover struct {
	src pipeline.EventSource
	at  *[]int64
}

func (h handover) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	out, err := h.src.NextWindow(buf, start, end)
	*h.at = append(*h.at, nowNS())
	return out, err
}
