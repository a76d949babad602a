package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stream"
)

// The wire protocol, deliberately small enough to drive with a few dozen
// lines of client:
//
//	client → server   "open pri=<int> id=<string>\n"        (text hello)
//	server → client   "ok id=<id>\n"                        (admitted)
//	                  "reject retry_ms=<int> cause=<str>\n" (and close)
//
// then binary chunks, each a little-endian uint32 header:
//
//	0            clean end-of-stream (queued chunks still process)
//	top bit set  gap of (v & 0x7fffffff) samples (dropped audio)
//	n            n float32 samples follow (n ≤ MaxChunkSamples)
//
// and asynchronous server → client text lines at any time:
//
//	"event t=<sample> class=<int> score=<float>\n"
//	"throttle ms=<int>\n"   (chunk NOT accepted — back off and resend)
//	"bye reason=<reason>\n" (session over; connection closes)

// MaxChunkSamples bounds one wire chunk; larger headers are a protocol
// fault (a corrupt or hostile client must not make the server allocate).
const MaxChunkSamples = 1 << 16

const gapBit = 1 << 31

// TCPFront exposes a Server over TCP. One connection carries one session;
// a connection's faults (garbage framing, stalls past the read deadline,
// abrupt resets) terminate only its own session.
type TCPFront struct {
	srv         *Server
	readTimeout time.Duration

	ln     net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewTCPFront wraps srv. readTimeout bounds the wait for each chunk header
// (0 selects srv.cfg.IdleTimeout; the session-level idle reaper is then the
// effective stall bound).
func NewTCPFront(srv *Server, readTimeout time.Duration) *TCPFront {
	if readTimeout <= 0 {
		readTimeout = srv.cfg.IdleTimeout
	}
	return &TCPFront{
		srv:         srv,
		readTimeout: readTimeout,
		conns:       make(map[net.Conn]struct{}),
	}
}

// Start listens on addr and serves until Shutdown. It returns the bound
// address (useful with ":0").
func (f *TCPFront) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	f.mu.Lock()
	f.ln = ln
	f.mu.Unlock()
	f.wg.Add(1)
	go f.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (f *TCPFront) acceptLoop(ln net.Listener) {
	defer f.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conns[conn] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.serveConn(conn)
			f.mu.Lock()
			delete(f.conns, conn)
			f.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting, then waits for in-flight connections until ctx
// expires, at which point the stragglers are force-closed.
func (f *TCPFront) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.closed = true
	ln := f.ln
	f.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		f.mu.Lock()
		for c := range f.conns {
			c.Close()
		}
		f.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// connWriter serialises server→client lines. Writes carry a short deadline
// and the first failure marks the connection dead, so a client that stops
// reading can never wedge a pump goroutine inside an event callback.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
	dead bool
}

func (w *connWriter) line(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return
	}
	w.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if _, err := fmt.Fprintf(w.conn, format, args...); err != nil {
		w.dead = true
	}
}

func (f *TCPFront) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	w := &connWriter{conn: conn}

	// Hello line. ReadSlice bounds it to the reader's 64 KiB buffer: a peer
	// that never sends a newline is rejected once the buffer fills, before
	// admission, instead of growing the heap until the read deadline.
	conn.SetReadDeadline(time.Now().Add(f.readTimeout))
	hello, err := br.ReadSlice('\n')
	if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
		return
	}
	id, pri, ok := parseHello(strings.TrimSpace(string(hello)))
	if err != nil || !ok {
		w.line("reject retry_ms=0 cause=bad-hello\n")
		return
	}

	sess, err := f.srv.Open(OpenOptions{
		ID:       id,
		Priority: pri,
		OnEvent: func(ev stream.Event) {
			w.line("event t=%d class=%d score=%g\n", ev.Sample, ev.Class, ev.Score)
		},
		OnClose: func(reason CloseReason) {
			w.line("bye reason=%s\n", reason)
		},
	})
	if err != nil {
		retry := time.Duration(0)
		cause := "error"
		var rej *RejectedError
		if errors.As(err, &rej) {
			retry, cause = rej.RetryAfter, strings.ReplaceAll(rej.Cause, " ", "-")
		}
		w.line("reject retry_ms=%d cause=%s\n", retry.Milliseconds(), cause)
		return
	}
	w.line("ok id=%s\n", sess.ID())

	f.readChunks(br, conn, w, sess)

	// Hold the connection open until the pump finishes so the bye line can
	// reach the client; the pump always finishes (idle reaper, drain).
	<-sess.Done()
	time.Sleep(10 * time.Millisecond) // let the final write flush
}

// readChunks pumps wire chunks into the session until end-of-stream, a
// protocol fault, a read timeout, or a client abort — each mapped to its
// CloseReason.
func (f *TCPFront) readChunks(br *bufio.Reader, conn net.Conn, w *connWriter, sess *Session) {
	var hdr [4]byte
	for {
		conn.SetReadDeadline(time.Now().Add(f.readTimeout))
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if isTimeout(err) {
				sess.Terminate(ReasonReadTimeout)
			} else {
				sess.Terminate(ReasonClientAbort)
			}
			return
		}
		v := binary.LittleEndian.Uint32(hdr[:])
		ingress := time.Now() // header off the socket: the chunk's true ingress
		switch {
		case v == 0:
			sess.Close()
			return
		case v&gapBit != 0:
			n := int(v &^ gapBit)
			if n > MaxChunkSamples*16 {
				w.line("bye reason=%s\n", ReasonProtocol)
				sess.Terminate(ReasonProtocol)
				return
			}
			f.push(w, sess, nil, n, ingress)
		default:
			n := int(v)
			if n > MaxChunkSamples {
				w.line("bye reason=%s\n", ReasonProtocol)
				sess.Terminate(ReasonProtocol)
				return
			}
			buf := make([]byte, 4*n)
			conn.SetReadDeadline(time.Now().Add(f.readTimeout))
			if _, err := io.ReadFull(br, buf); err != nil {
				if isTimeout(err) {
					sess.Terminate(ReasonReadTimeout)
				} else {
					sess.Terminate(ReasonClientAbort)
				}
				return
			}
			samples := make([]float64, n)
			for i := 0; i < n; i++ {
				samples[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
			}
			f.push(w, sess, samples, 0, ingress)
		}
		if sess.Reason() != "" { // closed from the server side mid-read
			return
		}
	}
}

// push forwards one chunk, translating backpressure into a throttle line
// (the chunk is dropped on the wire — the client resends) and a closed
// session into returning to the caller's loop, which notices via Reason.
func (f *TCPFront) push(w *connWriter, sess *Session, samples []float64, gap int, ingress time.Time) {
	var err error
	if gap > 0 {
		err = sess.PushGap(gap)
	} else {
		err = sess.PushAt(samples, ingress)
	}
	var bp *BackpressureError
	if errors.As(err, &bp) {
		w.line("throttle ms=%d\n", bp.RetryAfter.Milliseconds())
	}
}

// parseHello parses "open pri=<int> id=<string>". The first field must be
// exactly "open"; both keys are optional and any other field rejects.
func parseHello(line string) (id string, pri int, ok bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != "open" {
		return "", 0, false
	}
	for _, f := range fields[1:] {
		switch {
		case strings.HasPrefix(f, "pri="):
			v, err := strconv.Atoi(f[4:])
			if err != nil {
				return "", 0, false
			}
			pri = v
		case strings.HasPrefix(f, "id="):
			id = f[3:]
		default:
			return "", 0, false
		}
	}
	return id, pri, true
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
