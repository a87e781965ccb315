package ingest

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
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
}

// patchCRC recomputes the CRC of a single mutated frame in place.
func patchCRC(frame []byte) {
	le.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[frameHeaderLen:]))
}
