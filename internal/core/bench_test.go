package core_test

import (
	"sync"
	"testing"

	"ebbiot/internal/core"
	"ebbiot/internal/dataset"
	"ebbiot/internal/events"
)

// engBench lazily generates a 2-second ENG traffic replica sliced into
// 66 ms windows, shared by every benchmark in the package.
var engBench struct {
	once sync.Once
	wins [][]events.Event
}

func engWindows(b *testing.B) [][]events.Event {
	b.Helper()
	engBench.once.Do(func() {
		spec, err := dataset.For(dataset.ENG, 2.0/2998.4, 42)
		if err != nil {
			panic(err)
		}
		rec, err := dataset.Generate(spec)
		if err != nil {
			panic(err)
		}
		for cursor := int64(0); cursor+66_000 <= rec.Scene.DurationUS; cursor += 66_000 {
			evs, err := rec.Sim.Events(cursor, cursor+66_000)
			if err != nil {
				panic(err)
			}
			engBench.wins = append(engBench.wins, evs)
		}
	})
	return engBench.wins
}

// BenchmarkProcessWindowENG is the end-to-end fused window path over the
// ENG replica: one op processes one window, cycling through the recording,
// with the near-empty fast path at its lossless default. This is the
// ProcessWindow number the CI bench-compare gate watches.
func BenchmarkProcessWindowENG(b *testing.B) {
	wins := engWindows(b)
	sys, err := core.NewEBBIOT(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ProcessWindow(wins[i%len(wins)]); err != nil {
			b.Fatal(err)
		}
	}
}
