package dataset

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ebbiot/internal/aedat"
)

// benchFrameUS is the frame window the synthesis benchmark cuts its
// replicas into (the paper's tF).
const benchFrameUS = 66_000

// synthesizeFile generates one scene-per-segment replica of preset,
// AEDAT-encodes it window by window to path and decodes the file back with
// aedat.Read, as a recording reaches a replaying program. It returns the
// number of events decoded.
func synthesizeFile(preset Preset, scenes []uint64, frames int, noiseSeed uint64, path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	segUS := int64(frames) * benchFrameUS
	var w *aedat.Writer
	for j, seed := range scenes {
		spec, err := For(preset, 1, seed)
		if err != nil {
			return 0, err
		}
		spec.DurationUS, spec.Traffic.DurationUS = segUS, segUS
		spec.Sensor.Seed = noiseSeed*uint64(len(scenes)) + uint64(j)
		rec, err := Generate(spec)
		if err != nil {
			return 0, err
		}
		if w == nil {
			if w, err = aedat.NewWriter(f, spec.Sensor.Res); err != nil {
				return 0, err
			}
		}
		for start := int64(0); start < segUS; start += benchFrameUS {
			evs, err := rec.Sim.Events(start, start+benchFrameUS)
			if err != nil {
				return 0, err
			}
			for i := range evs {
				evs[i].T += int64(j) * segUS
			}
			if err := w.Append(evs); err != nil {
				return 0, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	_, evs, err := aedat.Read(f)
	return len(evs), err
}

// BenchmarkReplicaSynthesis times the input synthesis of perfbench's
// set-up, one whole set per op: ENG is one input of ten 113-window scenes
// back to back, LT4 eight inputs of one 452-window scene each. The
// events/op metric pins the work: a change that alters the replicas moves
// it.
func BenchmarkReplicaSynthesis(b *testing.B) {
	for _, bc := range []struct {
		preset         Preset
		inputs, scenes int
		frames         int
	}{
		{ENG, 1, 10, 113},
		{LT4, 8, 1, 452},
	} {
		b.Run(bc.preset.String(), func(b *testing.B) {
			dir := b.TempDir()
			total := 0
			for i := 0; i < b.N; i++ {
				for in := 0; in < bc.inputs; in++ {
					scenes := make([]uint64, bc.scenes)
					for j := range scenes {
						scenes[j] = uint64(in*bc.scenes + j + 1)
					}
					path := filepath.Join(dir, fmt.Sprintf("%s-%d.aer", bc.preset, in))
					n, err := synthesizeFile(bc.preset, scenes, bc.frames, uint64(in+1), path)
					if err != nil {
						b.Fatal(err)
					}
					total += n
				}
			}
			b.ReportMetric(float64(total)/float64(b.N), "events/op")
		})
	}
}
