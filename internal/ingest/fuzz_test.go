package ingest

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ebbiot/internal/events"
)

// FuzzWireDecoder feeds arbitrary byte streams to the frame decoder and the
// handshake reader. The decoder must never panic or over-read, and every
// rejection must be one of the typed wire errors (or the io sentinels for
// clean/torn stream ends) so the server can always classify what happened.
func FuzzWireDecoder(f *testing.F) {
	evs := testEvents(32, 1000)
	batch, _ := appendBatchFrame(nil, 1, evs)
	hs, _ := appendHandshake(nil, Hello{StreamID: "cam0", Token: "tok", Res: events.DAVIS240})

	f.Add([]byte{})
	f.Add(batch)
	f.Add(batch[:len(batch)/2])                         // torn frame
	f.Add(appendEOFFrame(nil, 7))                       // clean EOF frame
	f.Add(append(append([]byte{}, batch...), batch...)) // two frames back to back
	f.Add(hs)
	f.Add(hs[:5])
	flip := append([]byte(nil), batch...)
	flip[frameHeaderLen+3] ^= 0x80
	f.Add(flip) // checksum failure
	huge := append([]byte(nil), batch...)
	le.PutUint32(huge, 0xFFFFFFFF)
	f.Add(huge) // absurd length field

	// Wire v2 material: ACK frames, the RESUME handshake extension, and the
	// 17-byte v2 reply.
	f.Add(appendAckFrame(nil, 42))
	ack := appendAckFrame(nil, 42)
	f.Add(ack[:len(ack)-3]) // torn ACK
	v1hs, _ := appendHandshake(nil, Hello{StreamID: "cam0", Res: events.DAVIS240, Version: 1})
	f.Add(v1hs)
	v2hs, _ := appendHandshake(nil, Hello{StreamID: "cam0", Res: events.DAVIS240, Resume: true, LastAck: 9000})
	f.Add(v2hs)
	f.Add(v2hs[:len(v2hs)-4]) // truncated resume extension
	badFlags := append([]byte(nil), v2hs...)
	badFlags[len(badFlags)-9] |= 0x80 // unknown hello flag bit
	f.Add(badFlags)
	f.Add(appendHelloReply(nil, wireVersion, helloReply{ResumeFrom: 7, Epoch: 3}))
	rej := []byte{StatusStreamBusy}
	f.Add(rej)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame decoder: drain the stream, checking every error is typed.
		dec := newDecoder(bytes.NewReader(data), events.DAVIS240)
		for i := 0; i < 1+len(data)/frameHeaderLen; i++ {
			fr, err := dec.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, io.ErrUnexpectedEOF) &&
					!errors.Is(err, ErrFrameTooBig) &&
					!errors.Is(err, ErrChecksum) &&
					!errors.Is(err, ErrBadFrame) {
					t.Fatalf("untyped decoder error: %v", err)
				}
				break
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

		// v2 reply reader on the same bytes: rejections must carry
		// ErrRejected, anything else is a stream-end sentinel.
		if _, err := readHelloReply(bytes.NewReader(data), wireVersion); err != nil {
			if !errors.Is(err, ErrRejected) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped hello-reply error: %v", err)
			}
		}
	})
}
