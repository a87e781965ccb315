package integration_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ebbiot/internal/aedat"
	"ebbiot/internal/dataset"
	"ebbiot/internal/eval"
	"ebbiot/internal/events"
)

// replicaLock pins what synthesis makes of the behaviour lock's replicas,
// keyed by lockRecordings name: the SHA-256 of the event stream window by
// window (see eventDigest), of the ground-truth boxes at every window end,
// and of the replica's AEDAT encoding. Synthesis is meant to be
// byte-identical across refactors and speed-ups; update a digest only for
// a change that is meant to alter the replicas, and say so.
var replicaLock = map[string]struct{ events, truth, aedat string }{
	"ENG": {
		events: "73a5c2447c799785e8b3e070b27ecfa4d3f445af60d21ee560bcce3bcbdd3745",
		truth:  "0172b8e40c83a12389fe1bcf243b2fdd6983a11a3ad1ed30278a1dc1ea52afdf",
		aedat:  "a9cfc7ff36947867f9a80361a93ea209e280cd09548a0c8e642661f218709865",
	},
	"LT4": {
		events: "441c3bc483a7df2479092aea15b2aefd0bff6c90c2d457180cf6d4a4afbd3602",
		truth:  "19ec70e1168eb8c5515c968955bd411e6dc50ef8588a306b69f2d7f521885db2",
		aedat:  "f26cf1b9d2c0682e99eaa5b52bf9c4e58c7efdd7883980e615cb15fff14c4fd8",
	},
}

// eventDigest hashes a windowed stream: per window its index and event
// count, then each event's X, Y, T and P, little endian.
func eventDigest(wins [][]events.Event) string {
	h := sha256.New()
	var rec [13]byte
	for i, evs := range wins {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(i))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(len(evs)))
		h.Write(rec[:8])
		for _, e := range evs {
			binary.LittleEndian.PutUint16(rec[0:2], uint16(e.X))
			binary.LittleEndian.PutUint16(rec[2:4], uint16(e.Y))
			binary.LittleEndian.PutUint64(rec[4:12], uint64(e.T))
			rec[12] = byte(e.P)
			h.Write(rec[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReplicaLock pins the synthesis outputs of the behaviour lock's
// replicas: the simulator's windows, the scene's ground truth at each
// window end (at the evaluation protocol's visibility cutoff), and the
// AEDAT bytes. The Writer's per-window encoding must give Write's bytes,
// and Read must decode them back from the file into the same events.
func TestReplicaLock(t *testing.T) {
	minVisible := eval.DefaultOptions().MinVisiblePixels
	for _, lr := range lockRecordings {
		t.Run(lr.name, func(t *testing.T) {
			want := replicaLock[lr.name]
			rec, wins := lockInput(t, lr.preset, lr.fullS, lr.seed)
			if got := eventDigest(wins); got != want.events {
				t.Errorf("event digest %s, want %s", got, want.events)
			}

			h := sha256.New()
			for i := range wins {
				for _, g := range rec.Scene.GroundTruth(int64(i+1)*lockWindowUS, minVisible) {
					fmt.Fprintf(h, "%d %d %d %d %d %d %d\n", i, g.ID, g.Kind, g.Box.X, g.Box.Y, g.Box.W, g.Box.H)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want.truth {
				t.Errorf("ground-truth digest %s, want %s", got, want.truth)
			}

			all := slices.Concat(wins...)
			var buf bytes.Buffer
			if err := aedat.Write(&buf, rec.Spec.Sensor.Res, all); err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want.aedat {
				t.Errorf("AEDAT digest %s, want %s", hex.EncodeToString(sum[:]), want.aedat)
			}

			path := filepath.Join(t.TempDir(), "replica.aer")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			w, err := aedat.NewWriter(f, rec.Spec.Sensor.Res)
			if err != nil {
				t.Fatal(err)
			}
			for _, evs := range wins {
				if err := w.Append(evs); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, buf.Bytes()) {
				t.Fatalf("Writer bytes differ from Write's (read err %v)", err)
			}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			_, back, err := aedat.Read(f)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(back, all) {
				t.Errorf("Read gave %d events that differ from the %d written", len(back), len(all))
			}
		})
	}
}

// TestReplicaLockShortTicks pins a replica whose tick does not divide the
// window, so every window's last tick is cut short by the window end.
func TestReplicaLockShortTicks(t *testing.T) {
	const want = "10dc3525befeeff66e7caf03f593d56795f89a0ba1388368adb0f49fc901e80d"
	spec, err := dataset.For(dataset.ENG, 2/2998.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec.Sensor.TickUS = 700 // 66,000 = 94 × 700 + 200
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
		if !events.Sorted(evs) {
			t.Fatalf("window at %d is not in time order", cursor)
		}
		wins = append(wins, evs)
	}
	if got := eventDigest(wins); got != want {
		t.Errorf("event digest %s, want %s", got, want)
	}
}

// TestReplicaLockRecycledBuffer runs the ENG lock replica the way a
// SceneSource does, through EventsInto on one recycled buffer, but with
// the previous window's events left in front in reverse order: only the
// appended region may be ordered and filtered, so the prefix must survive
// untouched and the appended windows must digest to the locked stream.
func TestReplicaLockRecycledBuffer(t *testing.T) {
	lr := lockRecordings[0]
	spec, err := dataset.For(lr.preset, 10/lr.fullS, lr.seed)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var (
		buf    []events.Event
		prefix []events.Event
		wins   [][]events.Event
	)
	for cursor := int64(0); cursor+lockWindowUS <= spec.DurationUS; cursor += lockWindowUS {
		buf = append(buf[:0], prefix...)
		out, err := rec.Sim.EventsInto(buf, cursor, cursor+lockWindowUS)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("window at %d: the buffer's prefix changed", cursor)
		}
		win := slices.Clone(out[len(prefix):])
		wins = append(wins, win)
		prefix = slices.Clone(win)
		slices.Reverse(prefix)
		buf = out
	}
	if got, want := eventDigest(wins), replicaLock[lr.name].events; got != want {
		t.Errorf("event digest %s, want %s", got, want)
	}
}
