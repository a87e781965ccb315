package ingest

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"ebbiot/internal/events"
)

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
// Each frame is decoded twice, into nil and into a garbage-filled buffer
// of fuzzer-chosen capacity, as a recycled pool buffer arrives: what the
// buffer held before must never show in the result.
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

	f.Fuzz(func(t *testing.T, data []byte, capacity uint16) {
		// Frame decoder: drain the stream, checking every error is typed,
		// with a second decoder in step that decodes into garbage.
		dec := newDecoder(bytes.NewReader(data), events.DAVIS240)
		recycled := newDecoder(bytes.NewReader(data), events.DAVIS240)
		garbage := make([]events.Event, capacity%1024)
		for i := 0; i < 1+len(data)/frameHeaderLen; i++ {
			for j := range garbage {
				garbage[j] = events.Event{X: -1, Y: int16(j), T: -1 - int64(j), P: 9}
			}
			fr, err := dec.next(nil)
			fr2, err2 := recycled.next(garbage[:0])
			if decodeErrClass(err) != decodeErrClass(err2) {
				t.Fatalf("decode into nil: %v; into a recycled buffer: %v", err, err2)
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
			if fr.typ != fr2.typ || fr.seq != fr2.seq || !slices.Equal(fr.evs, fr2.evs) {
				t.Fatalf("decode into nil: %+v; into a recycled buffer: %+v", fr, fr2)
			}
			if fr.typ != frameBatch && fr.typ != frameEOF && fr.typ != frameAck {
				t.Fatalf("decoder accepted unknown frame type %d", fr.typ)
			}
			if len(fr.evs) > maxBatchEvents {
				t.Fatalf("decoder produced %d events, over the batch cap", len(fr.evs))
			}
			for j, e := range fr.evs {
				if !e.P.Valid() || e.T < 0 || !events.DAVIS240.Contains(int(e.X), int(e.Y)) {
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
