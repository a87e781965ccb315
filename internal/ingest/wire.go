// Package ingest is the network event-ingest layer: fleets of cameras push
// address-events to an ebbiot process over a length-framed TCP protocol
// instead of the process reading local AEDAT files.
//
// The wire protocol reuses the store's framing discipline (docs/STORE.md):
// every frame is `u32 payloadLen | u32 CRC32(payload) | payload`, so torn
// and bit-flipped frames are rejected instead of decoded into garbage. A
// connection opens with a handshake (magic, version, sensor resolution,
// stream ID, optional shared-secret token, resume request) that the server
// answers with a status byte, plus the session's resume point and epoch on
// acceptance; the client then streams sequence-numbered event batches,
// which the server acknowledges cumulatively, and finishes with an explicit
// EOF frame, so a clean end of stream is distinguishable from a mid-stream
// disconnect. The full format is specified in docs/INGEST.md; this file is
// the single source of truth for the byte layout.
//
// The receiving side is built for hostile inputs and slow consumers:
// NetSource applies per-stream backpressure through a bounded batch queue
// with selectable drop policies (Block, DropOldest, DropNewest) and
// surfaces every anomaly — queue drops, duplicate/reordered sequence
// numbers, gaps, decode faults — as counters that the pipeline publishes
// through RunStatus, /streams/{id} and /metrics.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"

	"ebbiot/internal/events"
)

// Wire constants. Bump wireVersion on any incompatible layout change.
//
// Version 2 is the only version spoken, and it carries session resume: a
// trailing handshake extension (flags + last-acked sequence), a 16-byte
// suffix on the server's OK reply (resume point + session epoch) and the
// server→client cumulative ACK frame. A handshake of any other version is
// rejected with ErrBadVersion.
const (
	handshakeMagic = "EBIN"
	wireVersion    = 2

	// frameHeaderLen is u32 payloadLen + u32 CRC32(payload).
	frameHeaderLen = 8

	// eventLen is the encoded size of one event: i16 x | i16 y | i64 t |
	// i8 p.
	eventLen = 13

	// maxBatchEvents bounds one batch; larger counts are treated as a
	// protocol violation rather than attempted as an allocation.
	maxBatchEvents = 1 << 20
	// maxFramePayload bounds a frame payload (type + seq + count + events).
	maxFramePayload = 1 + 8 + 4 + maxBatchEvents*eventLen

	maxStreamIDLen = 255
	maxTokenLen    = 255
)

// Frame payload types.
const (
	frameBatch = 1
	frameEOF   = 2
	// frameAck is the server→client cumulative acknowledgement: every
	// sequence number up to and including seq has been accepted, so the
	// client may drop those batches from its replay ring.
	frameAck = 3
)

// Handshake extension flags.
const (
	// helloFlagResume asks the server to resume a disconnected session
	// instead of claiming a fresh stream.
	helloFlagResume = 1 << 0

	helloFlagsKnown = helloFlagResume
)

// Handshake status codes: the first byte of the server's reply, and the
// whole reply to a rejected handshake.
const (
	StatusOK uint8 = iota
	StatusUnknownStream
	StatusBadToken
	StatusStreamBusy
	StatusBadHandshake
	StatusResolutionMismatch
)

// statusText maps a reply status to a human-readable reason.
func statusText(s uint8) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusUnknownStream:
		return "unknown stream id"
	case StatusBadToken:
		return "bad token"
	case StatusStreamBusy:
		return "stream already connected or finished"
	case StatusBadHandshake:
		return "malformed handshake"
	case StatusResolutionMismatch:
		return "resolution mismatch"
	default:
		return fmt.Sprintf("status %d", s)
	}
}

// Typed wire errors. Decoders return these (possibly wrapped with
// position context) so callers can distinguish protocol violations from
// transport failures.
var (
	ErrBadMagic     = errors.New("ingest: bad handshake magic")
	ErrBadVersion   = errors.New("ingest: unsupported wire version")
	ErrBadHandshake = errors.New("ingest: malformed handshake")
	ErrFrameTooBig  = errors.New("ingest: frame exceeds size limit")
	ErrChecksum     = errors.New("ingest: frame checksum mismatch")
	ErrBadFrame     = errors.New("ingest: malformed frame payload")
	ErrRejected     = errors.New("ingest: server rejected handshake")
)

var le = binary.LittleEndian

// Hello is the decoded client handshake.
type Hello struct {
	StreamID string
	Token    string
	// Res is the sensor resolution the client will emit events for; the
	// server rejects the connection when it does not match the deployment's
	// configured resolution.
	Res events.Resolution
	// Resume asks the server to resume a disconnected session: the client
	// will replay every un-ACKed batch past the server's reply point.
	// LastAck is the highest sequence number the client has seen
	// acknowledged — the server treats it as a floor for its reply so a
	// client never replays what it knows was accepted.
	Resume  bool
	LastAck uint64
}

// appendHandshake serialises h. Layout:
//
//	"EBIN" | u32 version | u16 resA | u16 resB |
//	u8 idLen | id | u8 tokenLen | token | u8 flags | u64 lastAck
func appendHandshake(dst []byte, h Hello) ([]byte, error) {
	if h.StreamID == "" || len(h.StreamID) > maxStreamIDLen {
		return dst, fmt.Errorf("%w: stream id length %d", ErrBadHandshake, len(h.StreamID))
	}
	if len(h.Token) > maxTokenLen {
		return dst, fmt.Errorf("%w: token length %d", ErrBadHandshake, len(h.Token))
	}
	dst = append(dst, handshakeMagic...)
	dst = le.AppendUint32(dst, wireVersion)
	dst = le.AppendUint16(dst, uint16(h.Res.A))
	dst = le.AppendUint16(dst, uint16(h.Res.B))
	dst = append(dst, uint8(len(h.StreamID)))
	dst = append(dst, h.StreamID...)
	dst = append(dst, uint8(len(h.Token)))
	dst = append(dst, h.Token...)
	var flags uint8
	if h.Resume {
		flags |= helloFlagResume
	}
	dst = append(dst, flags)
	dst = le.AppendUint64(dst, h.LastAck)
	return dst, nil
}

// readHandshake decodes a client handshake from r, reading exactly the
// handshake's bytes and nothing further: the length bytes of the stream
// ID and token frame it.
func readHandshake(r io.Reader) (Hello, error) {
	var h Hello
	var fixed [13]byte // magic + version + res + idLen
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if string(fixed[:4]) != handshakeMagic {
		return h, ErrBadMagic
	}
	if v := le.Uint32(fixed[4:8]); v != wireVersion {
		return h, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, v, wireVersion)
	}
	h.Res = events.Resolution{A: int(le.Uint16(fixed[8:10])), B: int(le.Uint16(fixed[10:12]))}
	idLen := int(fixed[12])
	if idLen == 0 {
		return h, fmt.Errorf("%w: empty stream id", ErrBadHandshake)
	}
	buf := make([]byte, idLen+1)
	if _, err := io.ReadFull(r, buf); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	h.StreamID = string(buf[:idLen])
	tokLen := int(buf[idLen])
	if tokLen > 0 {
		tok := make([]byte, tokLen)
		if _, err := io.ReadFull(r, tok); err != nil {
			return h, fmt.Errorf("%w: %v", ErrBadHandshake, err)
		}
		h.Token = string(tok)
	}
	var ext [9]byte // flags + lastAck
	if _, err := io.ReadFull(r, ext[:]); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if ext[0]&^uint8(helloFlagsKnown) != 0 {
		return h, fmt.Errorf("%w: unknown handshake flags %#x", ErrBadHandshake, ext[0])
	}
	h.Resume = ext[0]&helloFlagResume != 0
	h.LastAck = le.Uint64(ext[1:])
	return h, nil
}

// helloReply is the server's answer to an accepted handshake: the
// resume point (highest contiguous sequence number the server has
// accepted for the stream — the client replays everything past it) and
// the session epoch (1 on a fresh claim, bumped on every resume).
type helloReply struct {
	ResumeFrom uint64
	Epoch      uint64
}

// appendHelloReply serialises an accepted handshake's reply: the OK
// status byte, then u64 resumeFrom | u64 epoch. Rejections are the bare
// status byte.
func appendHelloReply(dst []byte, rep helloReply) []byte {
	dst = append(dst, StatusOK)
	dst = le.AppendUint64(dst, rep.ResumeFrom)
	return le.AppendUint64(dst, rep.Epoch)
}

// readHelloReply decodes the server's handshake answer on the client. A
// non-OK status is returned as ErrRejected with the decoded reason.
func readHelloReply(r io.Reader) (helloReply, error) {
	var rep helloReply
	var status [1]byte
	if _, err := io.ReadFull(r, status[:]); err != nil {
		return rep, fmt.Errorf("ingest: handshake reply: %w", err)
	}
	if status[0] != StatusOK {
		return rep, fmt.Errorf("%w: %s", ErrRejected, statusText(status[0]))
	}
	var suffix [16]byte
	if _, err := io.ReadFull(r, suffix[:]); err != nil {
		return rep, fmt.Errorf("ingest: handshake reply: %w", err)
	}
	rep.ResumeFrom = le.Uint64(suffix[0:8])
	rep.Epoch = le.Uint64(suffix[8:16])
	return rep, nil
}

// appendBatchFrame serialises one event batch as a framed payload:
//
//	u32 payloadLen | u32 CRC32 | u8 type=1 | u64 seq | u32 count |
//	count × (i16 x | i16 y | i64 t | i8 p)
//
// dst grows once, by the whole frame; each event is then written in place
// into its own 13-byte record.
func appendBatchFrame(dst []byte, seq uint64, evs []events.Event) ([]byte, error) {
	if len(evs) > maxBatchEvents {
		return dst, fmt.Errorf("%w: %d events", ErrFrameTooBig, len(evs))
	}
	payloadLen := 1 + 8 + 4 + len(evs)*eventLen
	start := len(dst)
	dst = slices.Grow(dst, frameHeaderLen+payloadLen)[:start+frameHeaderLen+payloadLen]
	f := dst[start:]
	p := f[frameHeaderLen:]
	le.PutUint32(f[0:], uint32(payloadLen))
	p[0] = frameBatch
	le.PutUint64(p[1:], seq)
	le.PutUint32(p[9:], uint32(len(evs)))
	recs := p[13:]
	for _, e := range evs {
		r := recs[:eventLen:eventLen]
		le.PutUint16(r[0:], uint16(e.X))
		le.PutUint16(r[2:], uint16(e.Y))
		le.PutUint64(r[4:], uint64(e.T))
		r[12] = byte(e.P)
		recs = recs[eventLen:]
	}
	le.PutUint32(f[4:], crc32.ChecksumIEEE(p))
	return dst, nil
}

// appendEOFFrame serialises the clean end-of-stream frame: u8 type=2 |
// u64 seq (the sender's final sequence number plus one).
func appendEOFFrame(dst []byte, seq uint64) []byte {
	return appendSeqFrame(dst, frameEOF, seq)
}

// appendAckFrame serialises the server's cumulative acknowledgement:
// u8 type=3 | u64 seq — every sequence number up to and including seq has
// been accepted.
func appendAckFrame(dst []byte, seq uint64) []byte {
	return appendSeqFrame(dst, frameAck, seq)
}

// appendSeqFrame frames the shared type+seq payload layout of the EOF and
// ACK frames.
func appendSeqFrame(dst []byte, typ uint8, seq uint64) []byte {
	dst = le.AppendUint32(dst, 1+8)
	crcAt := len(dst)
	dst = le.AppendUint32(dst, 0)
	body := len(dst)
	dst = append(dst, typ)
	dst = le.AppendUint64(dst, seq)
	le.PutUint32(dst[crcAt:], crc32.ChecksumIEEE(dst[body:]))
	return dst
}

// frame is one decoded wire frame.
type frame struct {
	typ uint8
	seq uint64
	// evs holds the batch events (typ == frameBatch), decoded into the
	// buffer passed to next.
	evs []events.Event
}

// ceilPow2 rounds n up to a power of two, capped at limit, so a buffer
// sized for one batch still fits the next, slightly larger one.
func ceilPow2(n, limit int) int {
	return min(1<<bits.Len(uint(n-1)), limit)
}

// decoder incrementally decodes frames off a byte stream. The payload
// scratch buffer is reused across frames; batch events are decoded into
// the buffer the caller passes to next. A decoder validates everything
// the bytes alone can prove: framing lengths, checksums, payload
// structure, polarity values, in-batch timestamp order and (when res is
// non-zero) pixel addresses. Cross-batch ordering and sequence-number
// discipline are NetSource's job — the decoder is stateless across
// frames so it can be fuzzed on arbitrary byte streams.
type decoder struct {
	r       io.Reader
	hdr     [frameHeaderLen]byte
	payload []byte
	res     events.Resolution // zero disables the address check
}

func newDecoder(r io.Reader, res events.Resolution) *decoder {
	return &decoder{r: r, res: res}
}

// next reads and validates one frame. A batch's events are decoded into
// dst, or into a new buffer when dst is too small; the caller owns the
// result. io.EOF is returned only on a clean frame boundary; a stream
// ending inside a frame yields io.ErrUnexpectedEOF (a torn frame, from
// the receiver's point of view). Transport errors that are not stream
// ends — a read deadline, a reset — pass through unchanged so the caller
// can classify them.
func (d *decoder) next(dst []events.Event) (frame, error) {
	p, err := d.readPayload()
	if err != nil {
		return frame{}, err
	}
	return d.parsePayload(p, dst)
}

// readPayload reads one frame off the stream and returns its payload once
// the length and checksum hold. The payload aliases the decoder's scratch
// buffer until the next read.
func (d *decoder) readPayload() ([]byte, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	payloadLen := int(le.Uint32(d.hdr[0:4]))
	wantCRC := le.Uint32(d.hdr[4:8])
	if payloadLen > maxFramePayload {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrFrameTooBig, payloadLen)
	}
	if payloadLen < 1 {
		return nil, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if cap(d.payload) < payloadLen {
		d.payload = make([]byte, ceilPow2(payloadLen, maxFramePayload))
	}
	p := d.payload[:payloadLen]
	if _, err := io.ReadFull(d.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(p) != wantCRC {
		return nil, ErrChecksum
	}
	return p, nil
}

// parsePayload decodes one checksummed payload. A batch is decoded in one
// pass: each 13-byte record is read once and passes one combined test for
// order, polarity and address; the first record that fails it goes to
// badEvent for the error.
func (d *decoder) parsePayload(p []byte, dst []events.Event) (frame, error) {
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
			f.evs = dst[:0] // a heartbeat hands dst back unused
			return f, nil
		}
		if cap(dst) < count {
			dst = make([]events.Event, 0, ceilPow2(count, maxBatchEvents))
		}
		f.evs = dst[:count]
		limX, limY := addrLimits(d.res)
		// Timestamps are never negative, so starting at 0 lets the order
		// test reject a negative first timestamp too.
		lastT := int64(0)
		for i := range f.evs {
			r := body[:eventLen:eventLen]
			body = body[eventLen:]
			x, y := uint(le.Uint16(r[0:])), uint(le.Uint16(r[2:]))
			t := int64(le.Uint64(r[4:]))
			// (p+1)&^2 is zero only for p = 1 (ON) and p = 0xFF (OFF, -1).
			if t < lastT || x >= limX || y >= limY || (r[12]+1)&^2 != 0 {
				return frame{}, d.badEvent(i, r, lastT)
			}
			f.evs[i] = events.Event{X: int16(x), Y: int16(y), T: t, P: events.Polarity(int8(r[12]))}
			lastT = t
		}
		return f, nil
	default:
		return frame{}, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, p[0])
	}
}

// addrLimits returns exclusive bounds on a record's raw u16 x and y that
// accept exactly the addresses res.Contains accepts: a raw value of 1<<15
// or more is a negative coordinate, which no bound below 1<<15 admits. A
// zero res disables the address check, so every raw value passes.
func addrLimits(res events.Resolution) (limX, limY uint) {
	if res.A <= 0 {
		return 1 << 16, 1 << 16
	}
	return uint(min(res.A, 1<<15)), uint(max(min(res.B, 1<<15), 0))
}

// badEvent returns the error for record r, batch event i, the first to
// fail parsePayload's combined test; lastT is the previous event's
// timestamp. It applies the checks one at a time, in the order polarity,
// negative timestamp, time order, address, so the error names the first
// that fails.
func (d *decoder) badEvent(i int, r []byte, lastT int64) error {
	e := events.Event{
		X: int16(le.Uint16(r[0:])),
		Y: int16(le.Uint16(r[2:])),
		T: int64(le.Uint64(r[4:])),
		P: events.Polarity(int8(r[12])),
	}
	switch {
	case !e.P.Valid():
		return fmt.Errorf("%w: event %d polarity %d", ErrBadFrame, i, int8(e.P))
	case e.T < 0:
		return fmt.Errorf("%w: event %d negative timestamp", ErrBadFrame, i)
	case e.T < lastT:
		return fmt.Errorf("%w: batch event %d at t=%d after t=%d: %v",
			ErrBadFrame, i, e.T, lastT, events.ErrUnsorted)
	default:
		return fmt.Errorf("%w: event %d at (%d,%d) outside %dx%d",
			ErrBadFrame, i, e.X, e.Y, d.res.A, d.res.B)
	}
}
