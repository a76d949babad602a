package serve

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

// wireBound is how long one fuzzed connection may hold serveConn. A stream
// that stops short of end-of-stream waits out the 50 ms read deadline; a
// clean end-of-stream waits for the session to drain its bounded chunk
// queue, where each maximal gap conceals ~4 minutes of 4 kHz audio.
const wireBound = 30 * time.Second

// FuzzTCPWire feeds arbitrary bytes as one connection's whole inbound
// stream, through net.Pipe into serveConn, on one Server shared across
// iterations. Whatever the bytes, serveConn must return within wireBound,
// every line the server writes must be one of the protocol's replies, and
// no session may outlive its connection.
func FuzzTCPWire(f *testing.F) {
	hdr := func(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
	valid := []byte("open pri=1 id=fz\n")
	valid = hdr(valid, 4)
	for i := 0; i < 4; i++ {
		valid = hdr(valid, math.Float32bits(0.25))
	}
	valid = hdr(valid, gapBit|100)
	valid = hdr(valid, 0)
	f.Add(valid)
	f.Add(hdr([]byte("open id=big\n"), MaxChunkSamples+1))
	f.Add([]byte("open pri=0 id=no-newline"))

	cfg := testConfig(f)
	cfg.IdleTimeout = 2 * time.Second
	srv := mustServer(f, cfg)
	front := NewTCPFront(srv, 50*time.Millisecond)
	replies := []string{"ok ", "reject ", "event ", "throttle ", "bye "}

	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		defer client.Close()
		served := make(chan struct{})
		go func() {
			front.serveConn(server)
			close(served)
		}()
		// The write returns once the server has read everything or closed.
		go client.Write(data)
		read := make(chan string)
		go func() {
			out, _ := io.ReadAll(client)
			read <- string(out)
		}()
		select {
		case <-served:
		case <-time.After(wireBound):
			t.Fatalf("serveConn still running %v into a %d-byte stream", wireBound, len(data))
		}
		out := <-read
		for _, line := range strings.SplitAfter(out, "\n") {
			if line == "" {
				continue
			}
			known := strings.HasSuffix(line, "\n")
			if known {
				known = false
				for _, p := range replies {
					known = known || strings.HasPrefix(line, p)
				}
			}
			if !known {
				t.Fatalf("server wrote %q, not a protocol reply (full output %q)", line, out)
			}
		}
		if n := srv.SessionCount(); n != 0 {
			t.Fatalf("%d sessions outlived their connection", n)
		}
	})
}
