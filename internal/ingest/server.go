package ingest

import (
	"bufio"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"ebbiot/internal/events"
)

// ServerConfig parameterises a Server.
type ServerConfig struct {
	// Streams lists the stream IDs the deployment expects; each becomes a
	// NetSource with one live session. Required.
	Streams []string
	// Token, when non-empty, is the shared secret every handshake must
	// present (compared in constant time).
	Token string
	// Res is the deployment's sensor resolution; handshakes advertising a
	// different one are rejected, and decoded events are bounds-checked
	// against it. The zero value accepts any resolution and skips the
	// address check.
	Res events.Resolution
	// QueueBatches / Policy / FailFast configure every stream's NetSource
	// (see NetSourceConfig).
	QueueBatches int
	Policy       DropPolicy
	FailFast     bool
	// IdleTimeout bounds the wait for the handshake and for each
	// subsequent frame; a connection that stalls longer faults as a
	// stalled writer. 0 means 30 seconds.
	IdleTimeout time.Duration
	// ResumeGrace is how long a disconnected stream stays in the resumable
	// state before its pending fault is committed. While the grace window
	// is open the session's NetSource keeps feeding queued batches to the
	// pipeline and a RESUME handshake continues the stream where it left
	// off. 0 means 30 seconds; negative disables resume entirely (every
	// disconnect faults immediately).
	ResumeGrace time.Duration
	// AckEvery is the cadence, in received batch frames, of the cumulative
	// ACK frames sent to clients (an ACK is also sent on EOF). 0 means 8.
	AckEvery int
	// Logf, when non-nil, receives one line per connection-level event
	// (accept, reject, resume, fault, clean end).
	Logf func(format string, args ...any)
}

// ErrServerClosed is the fault recorded on streams still open when the
// server shuts down.
var ErrServerClosed = errors.New("ingest: server closed")

// defaultResumeGrace is the ResumeGrace applied when the config leaves it
// zero.
const defaultResumeGrace = 30 * time.Second

// sessState is the lifecycle of one stream's ingest session.
type sessState int

const (
	// sessIdle: no connection has claimed the stream yet.
	sessIdle sessState = iota
	// sessActive: a connection is feeding the stream.
	sessActive
	// sessGrace: the connection dropped but the session is resumable — a
	// RESUME handshake within the grace window continues it.
	sessGrace
	// sessClosed: the stream finished (clean EOF), faulted for real, or
	// the server shut down. Terminal.
	sessClosed
)

// session is the server-side state of one stream across connections: the
// NetSource survives disconnects, the epoch counts connections, and the
// grace timer bounds how long a dead connection may be resumed.
type session struct {
	id  string
	src *NetSource

	state sessState
	// epoch is 1 for the first accepted connection and bumped on every
	// accepted resume; it also guards the grace timer against firing on a
	// session that was resumed and dropped again.
	epoch uint64
	// conn is the connection currently feeding the session (nil unless
	// active). A frame-loop goroutine only transitions session state while
	// it is still the owner — a taken-over connection's death is ignored.
	conn       net.Conn
	graceTimer *time.Timer
	pendingErr error
}

// Server accepts N concurrent framed-TCP sensor connections and routes
// each authenticated stream ID to its NetSource. Build the pipeline's
// streams from Source(id) and run the Runner as usual: the run completes
// when every stream has finished (clean EOF frame) or faulted. Clients
// may disconnect and resume mid-stream (see docs/INGEST.md); the stream's
// NetSource — and with it the pipeline — never notices beyond a pause.
type Server struct {
	cfg net.ListenConfig

	scfg ServerConfig
	ln   net.Listener

	mu       sync.Mutex
	sessions map[string]*session
	conns    map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

// Listen binds addr and starts accepting connections.
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	if len(cfg.Streams) == 0 {
		return nil, fmt.Errorf("ingest: no expected streams")
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	if cfg.ResumeGrace == 0 {
		cfg.ResumeGrace = defaultResumeGrace
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 8
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen: %w", err)
	}
	s := &Server{
		scfg:     cfg,
		ln:       ln,
		sessions: make(map[string]*session, len(cfg.Streams)),
		conns:    make(map[net.Conn]struct{}),
	}
	for _, id := range cfg.Streams {
		if id == "" || len(id) > maxStreamIDLen {
			ln.Close()
			return nil, fmt.Errorf("ingest: invalid stream id %q", id)
		}
		if _, dup := s.sessions[id]; dup {
			ln.Close()
			return nil, fmt.Errorf("ingest: duplicate stream id %q", id)
		}
		s.sessions[id] = &session{
			id: id,
			src: NewNetSource(NetSourceConfig{
				QueueBatches: cfg.QueueBatches,
				Policy:       cfg.Policy,
				FailFast:     cfg.FailFast,
			}),
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Source returns the NetSource for one expected stream ID, or nil for an
// unknown ID. Wire it as the pipeline Stream's Source.
func (s *Server) Source(id string) *NetSource {
	if sess := s.sessions[id]; sess != nil {
		return sess.src
	}
	return nil
}

// Close stops accepting, severs live connections, cancels resume grace
// windows and ends every stream still open with ErrServerClosed (tolerant
// sources EOF, FailFast ones error). Safe to call more than once; blocks
// until the connection goroutines have drained.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	var sessions []*session
	if !already {
		for _, sess := range s.sessions {
			if sess.graceTimer != nil {
				sess.graceTimer.Stop()
				sess.graceTimer = nil
			}
			sess.state = sessClosed
			sessions = append(sessions, sess)
		}
	}
	s.mu.Unlock()
	if !already {
		s.ln.Close()
		// Sources are failed before their connections are severed, so the
		// recorded fault is the shutdown itself, not the read error the
		// severed connection provokes in the frame loop.
		for _, sess := range sessions {
			sess.src.setResumable(false)
			sess.src.fail(ErrServerClosed)
		}
		for _, c := range conns {
			c.Close()
		}
	}
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.scfg.Logf != nil {
		s.scfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// resumeEnabled reports whether the deployment allows session resume at
// all.
func (s *Server) resumeEnabled() bool { return s.scfg.ResumeGrace > 0 }

// claim attaches conn to the stream named in hello, fresh or resumed.
// On success it returns the session plus the reply payload (resume point
// and epoch); otherwise the rejection status.
func (s *Server) claim(hello Hello, conn net.Conn) (*session, helloReply, uint8) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, helloReply{}, StatusStreamBusy
	}
	sess, ok := s.sessions[hello.StreamID]
	if !ok {
		return nil, helloReply{}, StatusUnknownStream
	}
	resume := hello.Resume && s.resumeEnabled()
	switch sess.state {
	case sessIdle:
		// Fresh claim. A RESUME against an idle session is also accepted —
		// the client outlived a server restart; the reply's resume point
		// (its own lastAck, below) tells it where this server wants the
		// stream picked up.
		sess.state = sessActive
		sess.epoch = 1
		sess.conn = conn
	case sessActive:
		if !resume {
			return nil, helloReply{}, StatusStreamBusy
		}
		// Takeover: the client saw a connection death the server has not
		// noticed yet (half-open TCP). The epoch guard makes the old
		// frame-loop goroutine's exit a no-op.
		old := sess.conn
		sess.conn = conn
		sess.epoch++
		sess.src.noteResume()
		if old != nil {
			old.Close()
		}
	case sessGrace:
		if !resume {
			return nil, helloReply{}, StatusStreamBusy
		}
		if sess.graceTimer != nil {
			sess.graceTimer.Stop()
			sess.graceTimer = nil
		}
		sess.pendingErr = nil
		sess.state = sessActive
		sess.conn = conn
		sess.epoch++
		sess.src.noteResume()
	default: // sessClosed
		return nil, helloReply{}, StatusStreamBusy
	}
	// The resume point is the server's high-water mark, floored by what
	// the client has already seen acknowledged (a fresh server must not
	// make a long-lived client replay its whole ring into a new run).
	resumeFrom := sess.src.claim(sess.epoch)
	if hello.LastAck > resumeFrom {
		resumeFrom = hello.LastAck
		sess.src.primeSeq(resumeFrom)
	}
	return sess, helloReply{ResumeFrom: resumeFrom, Epoch: sess.epoch}, StatusOK
}

// release ends conn's ownership of sess after the frame loop exits.
// A clean end (err == nil) closes the session; a fault either opens the
// resume grace window (transport-class faults) or commits immediately.
// Stale connections — taken over by a resume — change nothing.
func (s *Server) release(sess *session, conn net.Conn, err error, resumable bool) {
	s.mu.Lock()
	if s.closed || sess.conn != conn {
		s.mu.Unlock()
		return
	}
	sess.conn = nil
	if err == nil {
		sess.state = sessClosed
		s.mu.Unlock()
		return
	}
	sess.src.setConnected(false)
	if resumable && s.resumeEnabled() {
		sess.state = sessGrace
		sess.pendingErr = err
		epoch := sess.epoch
		sess.graceTimer = time.AfterFunc(s.scfg.ResumeGrace, func() { s.expireGrace(sess, epoch) })
		sess.src.setResumable(true)
		s.mu.Unlock()
		s.logf("ingest: stream %q: resumable for %v: %v", sess.id, s.scfg.ResumeGrace, err)
		return
	}
	sess.state = sessClosed
	s.mu.Unlock()
	sess.src.fail(err)
}

// expireGrace commits the pending fault of a session whose grace window
// ran out without a resume. The epoch guard skips sessions that were
// resumed (and possibly dropped again) since the timer was armed.
func (s *Server) expireGrace(sess *session, epoch uint64) {
	s.mu.Lock()
	if s.closed || sess.state != sessGrace || sess.epoch != epoch {
		s.mu.Unlock()
		return
	}
	sess.state = sessClosed
	err := fmt.Errorf("ingest: stream %q: resume grace expired after %v: %w",
		sess.id, s.scfg.ResumeGrace, sess.pendingErr)
	sess.pendingErr = nil
	s.mu.Unlock()
	sess.src.setResumable(false)
	sess.src.fail(err)
	s.logf("ingest: stream %q: resume grace expired", sess.id)
}

// serveConn runs one connection to completion: handshake, status reply,
// then the frame loop feeding the stream's NetSource.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	_ = conn.SetReadDeadline(time.Now().Add(s.scfg.IdleTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	hello, err := readHandshake(br)
	if err != nil {
		s.logf("ingest: %s: handshake: %v", conn.RemoteAddr(), err)
		_, _ = conn.Write([]byte{StatusBadHandshake})
		return
	}
	reject := func(code uint8) {
		s.logf("ingest: %s: stream %q rejected: %s", conn.RemoteAddr(), hello.StreamID, statusText(code))
		_, _ = conn.Write([]byte{code})
	}
	if s.scfg.Token != "" &&
		subtle.ConstantTimeCompare([]byte(hello.Token), []byte(s.scfg.Token)) != 1 {
		reject(StatusBadToken)
		return
	}
	if s.scfg.Res.A > 0 && hello.Res != s.scfg.Res {
		reject(StatusResolutionMismatch)
		return
	}
	sess, rep, code := s.claim(hello, conn)
	if code != StatusOK {
		reject(code)
		return
	}
	src := sess.src
	_ = conn.SetWriteDeadline(time.Now().Add(s.scfg.IdleTimeout))
	if _, err := conn.Write(appendHelloReply(nil, rep)); err != nil {
		s.release(sess, conn, fmt.Errorf("ingest: handshake reply: %w", err), true)
		return
	}
	if hello.Resume && rep.Epoch > 1 {
		s.logf("ingest: %s: stream %q resumed (epoch %d, from seq %d)",
			conn.RemoteAddr(), hello.StreamID, rep.Epoch, rep.ResumeFrom)
	} else {
		s.logf("ingest: %s: stream %q connected", conn.RemoteAddr(), hello.StreamID)
	}
	src.setResumable(false)
	src.setConnected(true)

	// sendAck pushes a cumulative ACK to the client; an undeliverable ACK
	// means the connection is dying, which the next read surfaces.
	var ackBuf []byte
	sendAck := func(seq uint64) error {
		ackBuf = appendAckFrame(ackBuf[:0], seq)
		_ = conn.SetWriteDeadline(time.Now().Add(s.scfg.IdleTimeout))
		_, err := conn.Write(ackBuf)
		return err
	}

	dec := newDecoder(br, s.scfg.Res)
	sinceAck := 0
	for {
		_ = conn.SetReadDeadline(time.Now().Add(s.scfg.IdleTimeout))
		f, err := dec.next(getBatch())
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			// Connection closed on a frame boundary but without the EOF
			// frame: the sensor died mid-stream, not a clean finish.
			s.release(sess, conn, fmt.Errorf("ingest: stream %q: disconnect without EOF frame", hello.StreamID), true)
			s.logf("ingest: stream %q: disconnect without EOF frame", hello.StreamID)
			return
		case errors.Is(err, io.ErrUnexpectedEOF):
			s.release(sess, conn, fmt.Errorf("ingest: stream %q: torn frame: connection dropped mid-frame", hello.StreamID), true)
			s.logf("ingest: stream %q: torn frame", hello.StreamID)
			return
		case errors.Is(err, os.ErrDeadlineExceeded):
			s.release(sess, conn, fmt.Errorf("ingest: stream %q: stalled writer: no frame within %v", hello.StreamID, s.scfg.IdleTimeout), true)
			s.logf("ingest: stream %q: stalled writer", hello.StreamID)
			return
		case errors.Is(err, ErrChecksum):
			// Transit corruption: the bytes, not the sender, are suspect —
			// a resumed session replays them intact.
			s.release(sess, conn, fmt.Errorf("ingest: stream %q: %w", hello.StreamID, err), true)
			s.logf("ingest: stream %q: %v", hello.StreamID, err)
			return
		case errors.Is(err, ErrBadFrame), errors.Is(err, ErrFrameTooBig):
			// Protocol violations are sender bugs; resuming would replay
			// the same garbage, so the fault commits immediately.
			s.release(sess, conn, fmt.Errorf("ingest: stream %q: %w", hello.StreamID, err), false)
			s.logf("ingest: stream %q: %v", hello.StreamID, err)
			return
		default:
			// A transport failure, such as a connection reset when the
			// sensor closed its end with an ACK unread: a disconnect, so the
			// sensor may resume.
			s.release(sess, conn, fmt.Errorf("ingest: stream %q: %w", hello.StreamID, err), true)
			s.logf("ingest: stream %q: %v", hello.StreamID, err)
			return
		}
		switch f.typ {
		case frameEOF:
			// Acknowledge the EOF itself so the client's Close can stop
			// waiting, then finish the stream.
			_ = sendAck(f.seq)
			s.release(sess, conn, nil, false)
			src.finish()
			s.logf("ingest: stream %q: clean EOF after seq %d", hello.StreamID, f.seq)
			return
		case frameAck:
			// ACK frames only flow server→client; one arriving here is a
			// protocol violation.
			err := fmt.Errorf("%w: client sent ACK frame", ErrBadFrame)
			s.release(sess, conn, fmt.Errorf("ingest: stream %q: %w", hello.StreamID, err), false)
			s.logf("ingest: stream %q: %v", hello.StreamID, err)
			return
		}
		// offer owns f.evs from here on and returns it to batchPool.
		if err := src.offer(rep.Epoch, f.seq, f.evs); err != nil {
			if !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, errSuperseded) {
				s.release(sess, conn, err, false)
			}
			s.logf("ingest: stream %q: %v", hello.StreamID, err)
			return
		}
		if sinceAck++; sinceAck >= s.scfg.AckEvery {
			sinceAck = 0
			if err := sendAck(src.LastSeq()); err != nil {
				s.release(sess, conn, fmt.Errorf("ingest: stream %q: ack write: %w", hello.StreamID, err), true)
				s.logf("ingest: stream %q: ack write: %v", hello.StreamID, err)
				return
			}
		}
	}
}
