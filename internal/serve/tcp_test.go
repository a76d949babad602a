package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

func startFront(t *testing.T, cfg Config, readTimeout time.Duration) (*Server, *TCPFront, string) {
	t.Helper()
	srv := mustServer(t, cfg)
	front := NewTCPFront(srv, readTimeout)
	addr, err := front.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		front.Shutdown(ctx)
	})
	return srv, front, addr
}

// TestTCPSessionRoundTrip: a wire session end to end — hello, audio chunks,
// a gap, detection events, clean close with a bye.
func TestTCPSessionRoundTrip(t *testing.T) {
	cfg := testConfig(t)
	_, _, addr := startFront(t, cfg, 2*time.Second)

	c, err := DialSession(addr, "wire-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() != "wire-1" {
		t.Fatalf("server renamed the session to %q", c.ID())
	}
	wave := synthSeconds(21, 1.5)
	for off := 0; off+1000 <= len(wave); off += 1000 {
		if err := c.Push(wave[off : off+1000]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PushGap(500); err != nil {
		t.Fatal(err)
	}
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	if r := c.WaitClosed(10 * time.Second); r != ReasonClientClose {
		t.Fatalf("bye reason %q, want %q", r, ReasonClientClose)
	}
}

// TestTCPReject: a server at capacity rejects over the wire with a retry
// hint, and the reject arrives as *RejectedError.
func TestTCPReject(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxSessions = 1
	_, _, addr := startFront(t, cfg, 2*time.Second)

	first, err := DialSession(addr, "only", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Abort()

	_, err = DialSession(addr, "overflow", 0)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("got %v, want RejectedError", err)
	}
	if rej.RetryAfter <= 0 || rej.Cause == "" {
		t.Fatalf("reject lost its hint: %+v", rej)
	}
}

// TestTCPHelloBounded: a hello line that never ends is rejected as
// bad-hello once the reader's buffer fills, well inside the read timeout,
// instead of being buffered until the deadline.
func TestTCPHelloBounded(t *testing.T) {
	cfg := testConfig(t)
	const readTimeout = 3 * time.Second
	srv, _, addr := startFront(t, cfg, readTimeout)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		// 1 MiB with no newline. The server stops reading at its buffer
		// size and closes, so this write may fail; only the reply matters.
		conn.Write(bytes.Repeat([]byte("x"), 1<<20))
	}()
	start := time.Now()
	conn.SetReadDeadline(start.Add(readTimeout / 2))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to an unbounded hello after %v: %v", time.Since(start), err)
	}
	if line != "reject retry_ms=0 cause=bad-hello\n" {
		t.Fatalf("reply %q, want the bad-hello reject", line)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("unbounded hello opened a session (%d sessions)", n)
	}
}

// TestTCPProtocolFault: a hostile frame header terminates only that
// session, with a protocol-fault bye, and the server keeps serving.
func TestTCPProtocolFault(t *testing.T) {
	cfg := testConfig(t)
	srv, _, addr := startFront(t, cfg, 2*time.Second)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("open pri=0 id=evil\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err != nil { // "ok id=evil"
		t.Fatal(err)
	}
	// A header demanding ~2 billion samples.
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0x7f}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("hostile session still open (%d sessions)", n)
	}

	// The server shrugged it off.
	c, err := DialSession(addr, "normal", 0)
	if err != nil {
		t.Fatalf("server broken after protocol fault: %v", err)
	}
	c.End()
	if r := c.WaitClosed(10 * time.Second); r != ReasonClientClose {
		t.Fatalf("bye reason %q after empty stream", r)
	}
}

// TestTCPAbortAndTimeout: an abrupt disconnect closes as client-abort; a
// silent connection closes as read-timeout. Neither disturbs a concurrent
// clean wire session.
func TestTCPAbortAndTimeout(t *testing.T) {
	cfg := testConfig(t)
	cfg.IdleTimeout = 5 * time.Second // let the read deadline fire first
	srv, _, addr := startFront(t, cfg, 250*time.Millisecond)

	clean, err := DialSession(addr, "clean", 1)
	if err != nil {
		t.Fatal(err)
	}

	aborter, err := DialSession(addr, "aborter", 0)
	if err != nil {
		t.Fatal(err)
	}
	aborter.Push(synthSeconds(31, 0.25))
	aborter.Abort()

	silent, err := DialSession(addr, "silent", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Abort()

	// Both hostile connections must be reaped while the clean session keeps
	// streaming.
	wave := synthSeconds(32, 2)
	for off := 0; off+500 <= len(wave); off += 500 {
		if err := clean.Push(wave[off : off+500]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	clean.End()
	if r := clean.WaitClosed(10 * time.Second); r != ReasonClientClose {
		t.Fatalf("clean wire session closed %q — a neighbour's fault leaked", r)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.obs.reg.Counter("serve.sessions.closed."+string(ReasonClientAbort)).Value() >= 1 &&
			srv.obs.reg.Counter("serve.sessions.closed."+string(ReasonReadTimeout)).Value() >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("abort/timeout reaps not observed; close counters: abort=%d timeout=%d",
		srv.obs.reg.Counter("serve.sessions.closed."+string(ReasonClientAbort)).Value(),
		srv.obs.reg.Counter("serve.sessions.closed."+string(ReasonReadTimeout)).Value())
}

// TestRunLoadTCP: the load generator through the wire protocol, faults and
// all — zero clean sessions lost.
func TestRunLoadTCP(t *testing.T) {
	cfg := testConfig(t)
	cfg.IdleTimeout = 5 * time.Second
	_, _, addr := startFront(t, cfg, 5*time.Second)

	rep := RunLoad(TCPTarget{addr}, LoadConfig{
		Sessions:      12,
		FaultFraction: 0.34,
		Seconds:       1.25,
		ChunkMs:       250,
		Seed:          13,
		Fault:         faultConfigForTest(),
	})
	if rep.CleanSessionsLost != 0 {
		t.Fatalf("clean sessions lost over TCP: %d (%+v)", rep.CleanSessionsLost, rep)
	}
	if rep.SessionsSustained != rep.Sessions {
		t.Fatalf("sustained %d of %d TCP sessions: %+v", rep.SessionsSustained, rep.Sessions, rep)
	}
}

// TestParseHello: the first field must be exactly "open"; a word that only
// starts with it is not a hello.
func TestParseHello(t *testing.T) {
	for _, tc := range []struct {
		line string
		id   string
		pri  int
		ok   bool
	}{
		{"open pri=2 id=a", "a", 2, true},
		{"open id=b", "b", 0, true},
		{"open", "", 0, true},
		{"openXYZ id=a", "", 0, false},
		{"opener pri=1", "", 0, false},
		{"", "", 0, false},
		{"open pri=x", "", 0, false},
		{"open id=a extra", "", 0, false},
	} {
		id, pri, ok := parseHello(tc.line)
		if id != tc.id || pri != tc.pri || ok != tc.ok {
			t.Errorf("parseHello(%q) = (%q, %d, %v), want (%q, %d, %v)",
				tc.line, id, pri, ok, tc.id, tc.pri, tc.ok)
		}
	}
}
