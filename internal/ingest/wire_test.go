package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"testing"

	"ebbiot/internal/events"
)

func mustHandshake(t *testing.T, h Hello) []byte {
	t.Helper()
	b, err := appendHandshake(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustBatch(t *testing.T, seq uint64, evs []events.Event) []byte {
	t.Helper()
	b, err := appendBatchFrame(nil, seq, evs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v1Handshake rewrites a handshake into the retired wire-v1 layout:
// version 1 and no trailing flags/lastAck extension.
func v1Handshake(hs []byte) []byte {
	v1 := append([]byte(nil), hs[:len(hs)-9]...)
	le.PutUint32(v1[4:8], 1)
	return v1
}

func testEvents(n int, t0 int64) []events.Event {
	evs := make([]events.Event, n)
	for i := range evs {
		p := events.On
		if i%2 == 1 {
			p = events.Off
		}
		evs[i] = events.Event{X: int16(i % 240), Y: int16(i % 180), T: t0 + int64(i), P: p}
	}
	return evs
}

func TestHandshakeRoundTrip(t *testing.T) {
	want := Hello{StreamID: "cam0", Token: "s3cret", Res: events.DAVIS240}
	got, err := readHandshake(bytes.NewReader(mustHandshake(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("handshake round trip: got %+v want %+v", got, want)
	}

	// No token.
	want = Hello{StreamID: "a", Res: events.Resolution{A: 640, B: 480}}
	got, err = readHandshake(bytes.NewReader(mustHandshake(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tokenless round trip: got %+v want %+v", got, want)
	}

	// A resume request carries the flag and the last-acked sequence.
	want = Hello{StreamID: "cam1", Res: events.DAVIS240, Resume: true, LastAck: 12345}
	got, err = readHandshake(bytes.NewReader(mustHandshake(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resume round trip: got %+v want %+v", got, want)
	}
}

func TestHandshakeVersionFraming(t *testing.T) {
	// A handshake is exactly its own bytes: the reader must not consume
	// past it even when more data follows (the first frame).
	v2 := mustHandshake(t, Hello{StreamID: "cam0", Token: "tok"})
	r := bytes.NewReader(append(append([]byte(nil), v2...), 0xAB))
	if _, err := readHandshake(r); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("read consumed past the handshake: %d bytes left, want 1", r.Len())
	}

	// Truncated extension is a malformed handshake, not a crash.
	if _, err := readHandshake(bytes.NewReader(v2[:len(v2)-3])); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("truncated extension: got %v, want ErrBadHandshake", err)
	}

	// Unknown flag bits are rejected so future flags can change semantics.
	bad := append([]byte(nil), v2...)
	bad[len(bad)-9] = 0x80
	if _, err := readHandshake(bytes.NewReader(bad)); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("unknown flags: got %v, want ErrBadHandshake", err)
	}
}

func TestHelloReplyRoundTrip(t *testing.T) {
	// An OK reply carries the resume point and epoch.
	want := helloReply{ResumeFrom: 42, Epoch: 5}
	b := appendHelloReply(nil, want)
	if len(b) != 17 {
		t.Fatalf("reply length %d, want 17", len(b))
	}
	rep, err := readHelloReply(bytes.NewReader(b))
	if err != nil || rep != want {
		t.Fatalf("reply: %+v err %v, want %+v", rep, err, want)
	}

	// Rejections are a bare byte and decode to ErrRejected.
	if _, err := readHelloReply(bytes.NewReader([]byte{StatusStreamBusy})); !errors.Is(err, ErrRejected) {
		t.Fatalf("rejection: got %v, want ErrRejected", err)
	}

	// A truncated suffix is a transport error, not a silent zero reply.
	if _, err := readHelloReply(bytes.NewReader(b[:5])); err == nil {
		t.Fatal("truncated reply: want an error")
	}
}

func TestAckFrameRoundTrip(t *testing.T) {
	wire := appendAckFrame(nil, 99)
	f, err := newDecoder(bytes.NewReader(wire), events.DAVIS240).next(nil)
	if err != nil || f.typ != frameAck || f.seq != 99 {
		t.Fatalf("ack frame: %+v err %v", f, err)
	}
	// Wrong payload length for a seq frame is malformed.
	bad := append([]byte(nil), wire...)
	bad = bad[:len(bad)-1]
	le.PutUint32(bad, 1+8-1)
	patchCRC(bad)
	if _, err := newDecoder(bytes.NewReader(bad), events.DAVIS240).next(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short ack payload: got %v, want ErrBadFrame", err)
	}
}

func TestHandshakeRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadHandshake},
		{"bad magic", append([]byte("NOPE"), mustHandshake(t, Hello{StreamID: "x"})[4:]...), ErrBadMagic},
		{"truncated", mustHandshake(t, Hello{StreamID: "cam0", Token: "tok"})[:10], ErrBadHandshake},
		{"short id", mustHandshake(t, Hello{StreamID: "cam0"})[:14], ErrBadHandshake},
	}
	// Wrong version.
	bad := mustHandshake(t, Hello{StreamID: "cam0"})
	bad[4] = 99
	cases = append(cases, struct {
		name string
		data []byte
		want error
	}{"bad version", bad, ErrBadVersion})
	// The retired version 1.
	cases = append(cases, struct {
		name string
		data []byte
		want error
	}{"version 1", v1Handshake(mustHandshake(t, Hello{StreamID: "cam0", Token: "tok"})), ErrBadVersion})
	// Zero-length id.
	zid := mustHandshake(t, Hello{StreamID: "x"})
	zid[12] = 0
	cases = append(cases, struct {
		name string
		data []byte
		want error
	}{"empty id", zid[:13], ErrBadHandshake})

	for _, tc := range cases {
		if _, err := readHandshake(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestHandshakeEncodeLimits(t *testing.T) {
	if _, err := appendHandshake(nil, Hello{}); !errors.Is(err, ErrBadHandshake) {
		t.Errorf("empty id: got %v", err)
	}
	long := string(make([]byte, maxStreamIDLen+1))
	if _, err := appendHandshake(nil, Hello{StreamID: long}); !errors.Is(err, ErrBadHandshake) {
		t.Errorf("oversized id: got %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	evs := testEvents(100, 5000)
	var wire []byte
	wire = append(wire, mustBatch(t, 1, evs)...)
	wire = append(wire, mustBatch(t, 2, nil)...) // heartbeat
	wire = append(wire, appendEOFFrame(nil, 3)...)

	dec := newDecoder(bytes.NewReader(wire), events.DAVIS240)
	f, err := dec.next(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != frameBatch || f.seq != 1 || len(f.evs) != len(evs) {
		t.Fatalf("batch frame: %+v", f)
	}
	for i := range evs {
		if f.evs[i] != evs[i] {
			t.Fatalf("event %d: got %v want %v", i, f.evs[i], evs[i])
		}
	}
	f, err = dec.next(nil)
	if err != nil || f.typ != frameBatch || f.seq != 2 || f.evs != nil {
		t.Fatalf("heartbeat frame: %+v err %v", f, err)
	}
	f, err = dec.next(nil)
	if err != nil || f.typ != frameEOF || f.seq != 3 {
		t.Fatalf("eof frame: %+v err %v", f, err)
	}
	if _, err = dec.next(nil); err != io.EOF {
		t.Fatalf("after eof: got %v, want io.EOF", err)
	}
}

func TestDecoderRejectsCorruption(t *testing.T) {
	evs := testEvents(10, 0)
	valid := mustBatch(t, 1, evs)

	t.Run("bit flip fails checksum", func(t *testing.T) {
		for _, i := range []int{frameHeaderLen, frameHeaderLen + 5, len(valid) - 1} {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x10
			if _, err := newDecoder(bytes.NewReader(mut), events.DAVIS240).next(nil); !errors.Is(err, ErrChecksum) {
				t.Errorf("flip at %d: got %v, want ErrChecksum", i, err)
			}
		}
	})
	t.Run("torn frame", func(t *testing.T) {
		for _, cut := range []int{1, frameHeaderLen - 1, frameHeaderLen + 3, len(valid) - 1} {
			if _, err := newDecoder(bytes.NewReader(valid[:cut]), events.DAVIS240).next(nil); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
	})
	t.Run("oversized length field", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		le.PutUint32(mut, uint32(maxFramePayload+1))
		if _, err := newDecoder(bytes.NewReader(mut), events.DAVIS240).next(nil); !errors.Is(err, ErrFrameTooBig) {
			t.Errorf("got %v, want ErrFrameTooBig", err)
		}
	})
	t.Run("count payload mismatch", func(t *testing.T) {
		// Rewrite the count field without adjusting the payload; re-CRC so
		// only the structural check can catch it.
		mut := append([]byte(nil), valid...)
		le.PutUint32(mut[frameHeaderLen+9:], 999)
		patchCRC(mut)
		if _, err := newDecoder(bytes.NewReader(mut), events.DAVIS240).next(nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("unknown frame type", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[frameHeaderLen] = 77
		patchCRC(mut)
		if _, err := newDecoder(bytes.NewReader(mut), events.DAVIS240).next(nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("invalid polarity", func(t *testing.T) {
		mut := mustBatch(t, 1, evs)
		// Polarity byte of event 0 sits at payload offset 13 + 12.
		mut[frameHeaderLen+13+12] = 0
		patchCRC(mut)
		if _, err := newDecoder(bytes.NewReader(mut), events.DAVIS240).next(nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("unsorted batch", func(t *testing.T) {
		bad := testEvents(3, 100)
		bad[2].T = 50
		mut, err := appendBatchFrame(nil, 1, bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newDecoder(bytes.NewReader(mut), events.DAVIS240).next(nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("event outside resolution", func(t *testing.T) {
		out := []events.Event{{X: 240, Y: 0, T: 1, P: events.On}}
		mut, err := appendBatchFrame(nil, 1, out)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newDecoder(bytes.NewReader(mut), events.DAVIS240).next(nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("got %v, want ErrBadFrame", err)
		}
		// With no configured resolution the address check is disabled.
		if _, err := newDecoder(bytes.NewReader(mut), events.Resolution{}).next(nil); err != nil {
			t.Errorf("unchecked resolution: got %v", err)
		}
	})
	t.Run("per-event checks", testEventChecks)
}

// testEventChecks is TestDecoderRejectsCorruption's row per event check:
// each check is applied at the first, a middle and the last event of a
// batch, decoded with and without a resolution. A failing event must yield
// ErrBadFrame naming the event and the check, with the text the per-event
// oracle gives; with no resolution the address checks are off, and the
// event decodes as sent.
func testEventChecks(t *testing.T) {
	base := testEvents(10, 100)
	last := len(base) - 1
	rows := []struct {
		name string
		// bad sets up the failing event at position i and returns the
		// index the check fails at.
		bad  func(evs []events.Event, i int) int
		addr bool // an address check: off with no resolution
		text string
	}{
		{"polarity 0", func(evs []events.Event, i int) int { evs[i].P = 0; return i }, false, "polarity 0"},
		{"polarity 2", func(evs []events.Event, i int) int { evs[i].P = 2; return i }, false, "polarity 2"},
		{"polarity -2", func(evs []events.Event, i int) int { evs[i].P = -2; return i }, false, "polarity -2"},
		{"negative T", func(evs []events.Event, i int) int { evs[i].T = -1; return i }, false, "negative timestamp"},
		{"min T", func(evs []events.Event, i int) int { evs[i].T = -1 << 63; return i }, false, "negative timestamp"},
		{"unsorted", func(evs []events.Event, i int) int {
			if i == 0 { // the first event has nothing before it: raise it past the second
				evs[0].T = evs[1].T + 1
				return 1
			}
			evs[i].T = evs[i-1].T - 1
			return i
		}, false, "after t="},
		{"x below 0", func(evs []events.Event, i int) int { evs[i].X = -1; return i }, true, "outside 240x180"},
		{"x at A", func(evs []events.Event, i int) int { evs[i].X = 240; return i }, true, "outside 240x180"},
		{"y below 0", func(evs []events.Event, i int) int { evs[i].Y = -1; return i }, true, "outside 240x180"},
		{"y at B", func(evs []events.Event, i int) int { evs[i].Y = 180; return i }, true, "outside 240x180"},
		{"x min int16", func(evs []events.Event, i int) int { evs[i].X = -1 << 15; return i }, true, "outside 240x180"},
		{"polarity before time", func(evs []events.Event, i int) int { evs[i].T, evs[i].P = -1, 0; return i }, false, "polarity 0"},
		{"polarity before address", func(evs []events.Event, i int) int { evs[i].X, evs[i].P = 240, 0; return i }, false, "polarity 0"},
		{"time before address", func(evs []events.Event, i int) int { evs[i].Y, evs[i].T = -1, -7; return i }, false, "negative timestamp"},
		{"order before address", func(evs []events.Event, i int) int {
			if i == 0 {
				evs[0].T = evs[1].T + 1
				i = 1
			} else {
				evs[i].T = evs[i-1].T - 1
			}
			evs[i].X = 240
			return i
		}, false, "after t="},
	}
	for _, res := range []events.Resolution{events.DAVIS240, {}} {
		for _, row := range rows {
			for _, i := range []int{0, len(base) / 2, last} {
				t.Run(fmt.Sprintf("%s/event %d/res %dx%d", row.name, i, res.A, res.B), func(t *testing.T) {
					evs := slices.Clone(base)
					at := row.bad(evs, i)
					wire := mustBatch(t, 1, evs)
					f, err := newDecoder(bytes.NewReader(wire), res).next(nil)
					_, werr := oracleParsePayload(wire[frameHeaderLen:], nil, res)
					if row.addr && res.A == 0 {
						if err != nil || !slices.Equal(f.evs, evs) {
							t.Fatalf("no resolution: got %v, err %v; want the batch as sent", f.evs, err)
						}
						return
					}
					if !errors.Is(err, ErrBadFrame) {
						t.Fatalf("got %v, want ErrBadFrame", err)
					}
					if !strings.Contains(err.Error(), fmt.Sprintf("event %d ", at)) || !strings.Contains(err.Error(), row.text) {
						t.Fatalf("error %q does not name event %d and %q", err, at, row.text)
					}
					if werr == nil || err.Error() != werr.Error() {
						t.Fatalf("error %q, oracle %v", err, werr)
					}
				})
			}
		}
	}

	// Every polarity byte but 1 and -1 is rejected.
	for p := -128; p < 128; p++ {
		evs := slices.Clone(base)
		evs[3].P = events.Polarity(p)
		_, err := newDecoder(bytes.NewReader(mustBatch(t, 1, evs)), events.DAVIS240).next(nil)
		if valid := p == 1 || p == -1; valid != (err == nil) {
			t.Errorf("polarity %d: err %v", p, err)
		}
	}

	// The edges of the valid range decode unchanged.
	edges := slices.Clone(base)
	edges[0].X, edges[0].Y = 0, 0
	edges[4].T = edges[3].T // a tie is in order
	edges[last].X, edges[last].Y = 239, 179
	for _, res := range []events.Resolution{events.DAVIS240, {}} {
		f, err := newDecoder(bytes.NewReader(mustBatch(t, 1, edges)), res).next(nil)
		if err != nil || !slices.Equal(f.evs, edges) {
			t.Errorf("res %v: edges of the valid range: got %v, err %v", res, f.evs, err)
		}
	}

	// A resolution wider than int16 admits every non-negative coordinate
	// and still rejects negative ones.
	wide := events.Resolution{A: 1<<16 - 1, B: 1<<16 - 1}
	big := slices.Clone(base)
	big[1].X, big[1].Y = 1<<15-1, 1<<15-1
	if f, err := newDecoder(bytes.NewReader(mustBatch(t, 1, big)), wide).next(nil); err != nil || !slices.Equal(f.evs, big) {
		t.Errorf("wide resolution, x = y = 32767: got %v, err %v", f.evs, err)
	}
	big[2].Y = -1 << 15
	if _, err := newDecoder(bytes.NewReader(mustBatch(t, 1, big)), wide).next(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("wide resolution, y = -32768: got %v, want ErrBadFrame", err)
	}

	// A resolution with no rows admits no event, as Contains does.
	if _, err := newDecoder(bytes.NewReader(mustBatch(t, 1, base)), events.Resolution{A: 240, B: -1}).next(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("resolution 240x-1: got %v, want ErrBadFrame", err)
	}
}

// patchCRC recomputes the CRC of a single mutated frame in place.
func patchCRC(frame []byte) {
	le.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[frameHeaderLen:]))
}
