package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// restartableServer runs a Server on a fixed address and supports
// hard restarts (kill -9 analogue: Shutdown with a pre-cancelled
// context, which closes every connection without draining) followed
// by a re-listen on the same address.
type restartableServer struct {
	t    *testing.T
	addr string

	mu   sync.Mutex
	s    *Server
	done chan error
}

func newRestartableServer(t *testing.T) *restartableServer {
	t.Helper()
	rs := &restartableServer{t: t}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs.addr = ln.Addr().String()
	rs.serve(ln)
	t.Cleanup(func() { rs.kill() })
	return rs
}

func (rs *restartableServer) serve(ln net.Listener) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.s = New(Config{Workers: 2})
	rs.done = make(chan error, 1)
	s := rs.s
	go func(done chan error) { done <- s.Serve(ln) }(rs.done)
}

// kill hard-stops the current server instance (no drain) and waits
// for its Serve to return.
func (rs *restartableServer) kill() {
	rs.mu.Lock()
	s, done := rs.s, rs.done
	rs.s, rs.done = nil, nil
	rs.mu.Unlock()
	if s == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx) //nolint:errcheck // hard kill: context error expected
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		rs.t.Error("Serve did not return after hard shutdown")
	}
}

// restart kills the running server and brings a fresh one up on the
// same address, retrying the bind until the OS releases the port.
func (rs *restartableServer) restart() {
	rs.t.Helper()
	rs.kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", rs.addr)
		if err == nil {
			rs.serve(ln)
			return
		}
		if time.Now().After(deadline) {
			rs.t.Fatalf("rebind %s: %v", rs.addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolRedialStorm runs concurrent pipelined Go callers through one
// Pool while the server behind it is hard-killed and restarted on the
// same address, repeatedly. The invariants under the storm: every
// completion delivered to a worker is a call that worker issued and
// has not completed before (no recycled or foreign Call), results land
// in the issuing call's own Dst buffer, and an OK completion is
// bit-exact for that worker's distinct inputs (no cross-request bits).
// Run under -race: it exercises the pool's concurrent redial path
// against the client's fail/complete paths.
func TestPoolRedialStorm(t *testing.T) {
	rs := newRestartableServer(t)
	pool, err := NewPool(rs.addr, 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const workers = 4
	const perWorker = 128
	const depth = 8
	allIn, allWant := expWorkload(workers * perWorker)

	var ok, transportErrs, busy atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := allIn[w*perWorker : (w+1)*perWorker]
			want := allWant[w*perWorker : (w+1)*perWorker]
			done := make(chan *Call, depth)
			dsts := make([][]uint32, depth)
			for i := range dsts {
				dsts[i] = make([]uint32, perWorker)
			}
			issued := make(map[*Call]int, depth)
			// free is the slot free-list: a Dst buffer is reissued only
			// after the call that owned it completed, never while a prior
			// call might still write into it.
			free := make([]int, depth)
			for i := range free {
				free[i] = i
			}
			issue := func() {
				slot := free[len(free)-1]
				c, err := pool.Get()
				if err != nil {
					transportErrs.Add(1)
					time.Sleep(time.Millisecond)
					return
				}
				free = free[:len(free)-1]
				call := c.GoTagged(TFloat32, "exp", dsts[slot], in, done, uint64(slot))
				issued[call] = slot
			}
			stopping := false
			for {
				if !stopping {
					select {
					case <-stop:
						stopping = true
					default:
					}
				}
				if stopping && len(free) == depth {
					return
				}
				if !stopping && len(free) > 0 {
					issue()
					continue
				}
				call := <-done
				slot, mine := issued[call]
				if !mine {
					t.Error("received a completion for a call this worker did not issue (or a double delivery)")
					return
				}
				delete(issued, call)
				free = append(free, slot)
				if uint64(slot) != call.Tag {
					t.Errorf("call Tag %d does not match issued slot %d", call.Tag, slot)
					return
				}
				switch {
				case call.Err != nil:
					// A restart can kill an in-flight call; the contract
					// is an error, never a wrong answer.
					transportErrs.Add(1)
				case call.Status == StatusBusy || call.Status == StatusShutdown:
					busy.Add(1)
				case call.Status != StatusOK:
					t.Errorf("unexpected status %s", StatusText(call.Status))
					return
				default:
					got := call.Dst
					if &got[0] != &dsts[slot][0] {
						t.Error("OK completion did not land in the issuing call's Dst buffer")
						return
					}
					for j := range got {
						if got[j] != want[j] {
							t.Errorf("worker %d slot %d: bits[%d] = %#x, want %#x (cross-request contamination?)",
								w, slot, j, got[j], want[j])
							return
						}
					}
					ok.Add(1)
				}
			}
		}(w)
	}

	for k := 0; k < 3; k++ {
		time.Sleep(40 * time.Millisecond)
		rs.restart()
	}
	time.Sleep(60 * time.Millisecond) // let the pool redial and recover
	close(stop)
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no successful calls survived the redial storm")
	}
	t.Logf("redial storm: %d ok, %d transport errors, %d busy/shutdown across 3 hard restarts",
		ok.Load(), transportErrs.Load(), busy.Load())
}

// TestFrameScanner pins the exported framing face used by the proxy
// tier: back-to-back frames come out intact, the scanner's buffer is
// reused (the returned slice aliases it), a clean EOF at a frame
// boundary is io.EOF, a torn length prefix is ErrUnexpectedEOF, and an
// oversize length is rejected with ErrFrameSize before the body is
// consumed.
func TestFrameScanner(t *testing.T) {
	frame := func(body []byte) []byte {
		out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		return append(out, body...)
	}
	var stream bytes.Buffer
	bodies := [][]byte{
		[]byte("alpha"),
		{},
		bytes.Repeat([]byte{0xAB}, 300),
		[]byte("omega"),
	}
	for _, b := range bodies {
		stream.Write(frame(b))
	}

	sc := NewFrameScanner(&stream, 1024)
	var prev []byte
	for i, want := range bodies {
		got, err := sc.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		if i > 0 && len(got) > 0 && len(prev) > 0 && &got[0] != &prev[0] && len(want) <= cap(prev) {
			// Same-size (or smaller) frames must reuse the buffer; a
			// fresh allocation per frame defeats the zero-copy design.
			t.Errorf("frame %d: scanner did not reuse its buffer", i)
		}
		if len(got) > 0 {
			prev = got[:1]
		}
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("at stream end: err = %v, want io.EOF", err)
	}

	// Torn length prefix: not a clean EOF.
	sc = NewFrameScanner(bytes.NewReader([]byte{0x05, 0x00}), 1024)
	if _, err := sc.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn prefix: err = %v, want ErrUnexpectedEOF", err)
	}

	// Oversize length: ErrFrameSize without reading the body, so the
	// huge payload is never allocated or consumed.
	big := binary.LittleEndian.AppendUint32(nil, 1<<30)
	r := bytes.NewReader(append(big, []byte("leftover")...))
	sc = NewFrameScanner(r, 1024)
	if _, err := sc.Next(); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("oversize: err = %v, want ErrFrameSize", err)
	}
}

// TestParseRequestZeroCopy pins ParseRequest's contract: the returned
// Name and Payload alias the input frame (no copies), and malformed
// frames — bad version, unknown opcode, unknown type, inconsistent
// lengths, ping with a payload — are rejected with ErrBadFrame or
// ErrBadVersion.
func TestParseRequestZeroCopy(t *testing.T) {
	req := &Request{Op: OpEval, Type: TFloat32, ID: 7, Name: "exp", Bits: []uint32{1, 2, 3}}
	wire, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	frame := wire[4:] // strip length prefix

	pr, err := ParseRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Op != OpEval || pr.Type != TFloat32 || pr.ID != 7 || pr.Count != 3 {
		t.Fatalf("parsed header = %+v", pr)
	}
	if string(pr.Name) != "exp" {
		t.Fatalf("name = %q", pr.Name)
	}
	// Zero-copy: both views point into the frame itself.
	if &pr.Name[0] != &frame[reqHeaderLen] {
		t.Error("Name does not alias the frame")
	}
	if &pr.Payload[0] != &frame[reqHeaderLen+len(pr.Name)] {
		t.Error("Payload does not alias the frame")
	}
	var bits [3]uint32
	DecodeValuesInto(bits[:], pr.Payload, TypeWidth(pr.Type))
	if bits != [3]uint32{1, 2, 3} {
		t.Fatalf("decoded %v", bits)
	}

	// Ping: header-only frame parses; any payload is rejected.
	ping, _ := AppendRequest(nil, &Request{Op: OpPing, ID: 9})
	if pr, err := ParseRequest(ping[4:]); err != nil || pr.Op != OpPing || pr.ID != 9 {
		t.Fatalf("ping: %+v, %v", pr, err)
	}
	if _, err := ParseRequest(append(ping[4:len(ping):len(ping)], 0xFF)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("ping with payload: err = %v, want ErrBadFrame", err)
	}

	corrupt := func(mut func(f []byte) []byte) error {
		f := append([]byte(nil), frame...)
		_, err := ParseRequest(mut(f))
		return err
	}
	cases := []struct {
		name string
		mut  func(f []byte) []byte
		want error
	}{
		{"truncated header", func(f []byte) []byte { return f[:reqHeaderLen-1] }, ErrBadFrame},
		{"bad version", func(f []byte) []byte { f[0] = ProtoVersion + 1; return f }, ErrBadVersion},
		{"unknown opcode", func(f []byte) []byte { f[1] = 0xEE; return f }, ErrBadFrame},
		{"unknown type", func(f []byte) []byte { f[2] = 0xEE; return f }, ErrBadFrame},
		{"length too short", func(f []byte) []byte { return f[:len(f)-1] }, ErrBadFrame},
		{"length too long", func(f []byte) []byte { return append(f, 0) }, ErrBadFrame},
		{"count mismatch", func(f []byte) []byte { binary.LittleEndian.PutUint32(f[8:], 99); return f }, ErrBadFrame},
	}
	for _, tc := range cases {
		if err := corrupt(tc.mut); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDrainPingBurst races concurrent Pings against Shutdown. While
// draining, the server answers PING with SHUTDOWN instead of OK so
// health probes (the proxy's prober) see the drain before the listener
// is gone. Every ping outcome must be one of: nil (answered before the
// drain), StatusError{StatusShutdown} (answered during the drain), or
// a transport error (connection already torn down). Any other verdict
// is a bug.
func TestDrainPingBurst(t *testing.T) {
	s := New(Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	addr := ln.Addr().String()

	const pingers = 6
	clients := make([]*Client, pingers)
	for i := range clients {
		c, err := DialTimeout(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Ping(); err != nil {
			t.Fatalf("warmup ping: %v", err)
		}
		clients[i] = c
	}

	var okPings, shutdownPings, transportErrs atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := c.Ping()
				var se *StatusError
				switch {
				case err == nil:
					okPings.Add(1)
				case errors.As(err, &se):
					if se.Status != StatusShutdown {
						t.Errorf("ping verdict %s, want SHUTDOWN", StatusText(se.Status))
						return
					}
					shutdownPings.Add(1)
				default:
					// Transport error: the drain closed the connection.
					transportErrs.Add(1)
					return
				}
			}
		}(c)
	}

	time.Sleep(20 * time.Millisecond) // let the burst get going
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	if okPings.Load() == 0 {
		t.Error("no pings succeeded before the drain")
	}
	t.Logf("drain burst: %d ok, %d shutdown verdicts, %d transport errors",
		okPings.Load(), shutdownPings.Load(), transportErrs.Load())
}
