package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"ebbiot/internal/events"
)

// oracleNext reads one frame like decoder.next, then parses it with
// oracleParsePayload instead of the one-pass parsePayload.
func oracleNext(d *decoder, dst []events.Event) (frame, error) {
	p, err := d.readPayload()
	if err != nil {
		return frame{}, err
	}
	return oracleParsePayload(p, dst, d.res)
}

// oracleParsePayload is the per-event payload parser the one-pass loop
// replaced: each event is decoded whole and then run through the checks
// one at a time — polarity, negative timestamp, time order, address (when
// res is non-zero). FuzzWireDecoder holds parsePayload to it.
func oracleParsePayload(p []byte, dst []events.Event, res events.Resolution) (frame, error) {
	switch p[0] {
	case frameEOF, frameAck:
		if len(p) != 1+8 {
			return frame{}, fmt.Errorf("%w: frame type %d length %d", ErrBadFrame, p[0], len(p))
		}
		return frame{typ: p[0], seq: le.Uint64(p[1:])}, nil
	case frameBatch:
		if len(p) < 1+8+4 {
			return frame{}, fmt.Errorf("%w: batch frame length %d", ErrBadFrame, len(p))
		}
		f := frame{typ: frameBatch, seq: le.Uint64(p[1:])}
		count := int(le.Uint32(p[9:]))
		body := p[13:]
		if count > maxBatchEvents || len(body) != count*eventLen {
			return frame{}, fmt.Errorf("%w: batch count %d vs %d payload bytes", ErrBadFrame, count, len(body))
		}
		if count == 0 {
			f.evs = dst[:0]
			return f, nil
		}
		if cap(dst) < count {
			dst = make([]events.Event, 0, count)
		}
		f.evs = dst[:count]
		lastT := int64(-1)
		for i := range f.evs {
			off := i * eventLen
			e := events.Event{
				X: int16(le.Uint16(body[off:])),
				Y: int16(le.Uint16(body[off+2:])),
				T: int64(le.Uint64(body[off+4:])),
				P: events.Polarity(int8(body[off+12])),
			}
			if !e.P.Valid() {
				return frame{}, fmt.Errorf("%w: event %d polarity %d", ErrBadFrame, i, int8(e.P))
			}
			if e.T < 0 {
				return frame{}, fmt.Errorf("%w: event %d negative timestamp", ErrBadFrame, i)
			}
			if e.T < lastT {
				return frame{}, fmt.Errorf("%w: batch event %d at t=%d after t=%d: %v",
					ErrBadFrame, i, e.T, lastT, events.ErrUnsorted)
			}
			if res.A > 0 && !res.Contains(int(e.X), int(e.Y)) {
				return frame{}, fmt.Errorf("%w: event %d at (%d,%d) outside %dx%d",
					ErrBadFrame, i, e.X, e.Y, res.A, res.B)
			}
			lastT = e.T
			f.evs[i] = e
		}
		return f, nil
	default:
		return frame{}, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, p[0])
	}
}

// withEvent returns a batch frame of evs with event i replaced by e.
func withEvent(evs []events.Event, i int, e events.Event) []byte {
	evs = slices.Clone(evs)
	evs[i] = e
	b, _ := appendBatchFrame(nil, 1, evs)
	return b
}

// errUntyped is decodeErrClass's answer for an error that wraps none of
// the typed wire errors.
var errUntyped = errors.New("untyped decoder error")

// decodeErrClass maps a decoder error to the typed error the server
// classifies it by: nil, io.EOF (a clean frame boundary), or the first
// typed error it wraps.
func decodeErrClass(err error) error {
	if err == nil || err == io.EOF {
		return err
	}
	for _, c := range []error{io.ErrUnexpectedEOF, ErrFrameTooBig, ErrChecksum, ErrBadFrame} {
		if errors.Is(err, c) {
			return c
		}
	}
	return errUntyped
}

// FuzzWireDecoder feeds arbitrary byte streams to the frame decoder and the
// handshake reader. The decoder must never panic or over-read, and every
// rejection must be one of the typed wire errors (or the io sentinels for
// clean/torn stream ends) so the server can always classify what happened.
// Each frame is decoded twice: by the decoder, into a garbage-filled
// buffer of fuzzer-chosen capacity, as a recycled pool buffer arrives; and
// by the per-event oracle, into nil. Both must yield the same frame, or
// errors with the same text — so the one-pass loop names the same first
// failing event and check — and what the recycled buffer held before must
// never show in the result. The top bit of capacity switches the address
// check off (a zero resolution).
func FuzzWireDecoder(f *testing.F) {
	evs := testEvents(32, 1000)
	batch, _ := appendBatchFrame(nil, 1, evs)
	hs, _ := appendHandshake(nil, Hello{StreamID: "cam0", Token: "tok", Res: events.DAVIS240})

	f.Add([]byte{}, uint16(0))
	f.Add(batch, uint16(len(evs)))                                   // a recycled buffer that fits exactly
	f.Add(batch[:len(batch)/2], uint16(0))                           // torn frame
	f.Add(appendEOFFrame(nil, 7), uint16(0))                         // clean EOF frame
	f.Add(append(append([]byte{}, batch...), batch...), uint16(100)) // two frames back to back
	f.Add(hs, uint16(0))
	f.Add(hs[:5], uint16(0))
	flip := append([]byte(nil), batch...)
	flip[frameHeaderLen+3] ^= 0x80
	f.Add(flip, uint16(16)) // checksum failure
	huge := append([]byte(nil), batch...)
	le.PutUint32(huge, 0xFFFFFFFF)
	f.Add(huge, uint16(0)) // absurd length field

	// Session material: ACK frames, the RESUME handshake extension, the
	// 17-byte reply, and a retired version-1 handshake.
	f.Add(appendAckFrame(nil, 42), uint16(0))
	ack := appendAckFrame(nil, 42)
	f.Add(ack[:len(ack)-3], uint16(0)) // torn ACK
	v2hs, _ := appendHandshake(nil, Hello{StreamID: "cam0", Res: events.DAVIS240, Resume: true, LastAck: 9000})
	f.Add(v1Handshake(v2hs), uint16(0)) // rejected with ErrBadVersion
	f.Add(v2hs, uint16(0))
	f.Add(v2hs[:len(v2hs)-4], uint16(0)) // truncated resume extension
	badFlags := append([]byte(nil), v2hs...)
	badFlags[len(badFlags)-9] |= 0x80 // unknown hello flag bit
	f.Add(badFlags, uint16(0))
	f.Add(appendHelloReply(nil, helloReply{ResumeFrom: 7, Epoch: 3}), uint16(0))
	rej := []byte{StatusStreamBusy}
	f.Add(rej, uint16(0))

	// One failing event per check, at the first, a middle and the last
	// event, with and without the address check.
	for _, i := range []int{0, len(evs) / 2, len(evs) - 1} {
		e := evs[i]
		for _, bad := range []events.Event{
			{X: e.X, Y: e.Y, T: e.T, P: 0},
			{X: e.X, Y: e.Y, T: -5, P: e.P},
			{X: -1, Y: e.Y, T: e.T, P: e.P},
			{X: e.X, Y: 180, T: e.T, P: e.P},
		} {
			f.Add(withEvent(evs, i, bad), uint16(0))
			f.Add(withEvent(evs, i, bad), uint16(1<<15|64))
		}
	}
	f.Add(withEvent(evs, len(evs)/2, events.Event{X: 1, Y: 1, T: 2, P: events.On}), uint16(0)) // unsorted

	f.Fuzz(func(t *testing.T, data []byte, capacity uint16) {
		// Frame decoder: drain the stream, checking every error is typed,
		// with the oracle in step on a second reader.
		res := events.DAVIS240
		if capacity&(1<<15) != 0 {
			res = events.Resolution{}
		}
		dec := newDecoder(bytes.NewReader(data), res)
		oracle := newDecoder(bytes.NewReader(data), res)
		garbage := make([]events.Event, capacity%1024)
		for i := 0; i < 1+len(data)/frameHeaderLen; i++ {
			for j := range garbage {
				garbage[j] = events.Event{X: -1, Y: int16(j), T: -1 - int64(j), P: 9}
			}
			fr, err := dec.next(garbage[:0])
			want, werr := oracleNext(oracle, nil)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("decoder: %v; oracle: %v", err, werr)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				if decodeErrClass(err) == errUntyped {
					t.Fatalf("untyped decoder error: %v", err)
				}
				break
			}
			if fr.typ != want.typ || fr.seq != want.seq || !slices.Equal(fr.evs, want.evs) {
				t.Fatalf("decoder: %+v; oracle: %+v", fr, want)
			}
			if fr.typ != frameBatch && fr.typ != frameEOF && fr.typ != frameAck {
				t.Fatalf("decoder accepted unknown frame type %d", fr.typ)
			}
			if len(fr.evs) > maxBatchEvents {
				t.Fatalf("decoder produced %d events, over the batch cap", len(fr.evs))
			}
			for j, e := range fr.evs {
				if !e.P.Valid() || e.T < 0 || res.A > 0 && !res.Contains(int(e.X), int(e.Y)) {
					t.Fatalf("decoder accepted invalid event %d: %+v", j, e)
				}
			}
		}

		// Handshake reader on the same bytes: must also never panic, and
		// must not read past the handshake's own layout.
		r := bytes.NewReader(data)
		if h, err := readHandshake(r); err == nil {
			if h.StreamID == "" || len(h.StreamID) > maxStreamIDLen || len(h.Token) > maxTokenLen {
				t.Fatalf("handshake accepted out-of-spec fields: %+v", h)
			}
		} else if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("untyped handshake error: %v", err)
		}

		// Reply reader on the same bytes: rejections must carry
		// ErrRejected, anything else is a stream-end sentinel.
		if _, err := readHelloReply(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrRejected) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped hello-reply error: %v", err)
			}
		}
	})
}
