package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlibm32/internal/perf"
	"rlibm32/internal/telemetry"

	rlibm "rlibm32"
)

// expWorkload precomputes n exp inputs with expected output bits from
// the in-process library.
func expWorkload(n int) (in, want []uint32) {
	f, _ := rlibm.Func("exp")
	xs := perf.Float32Inputs("exp", n)
	in = make([]uint32, n)
	want = make([]uint32, n)
	for i, x := range xs {
		in[i] = math.Float32bits(x)
		want[i] = math.Float32bits(f(x))
	}
	return in, want
}

// TestClientDstContract pins EvalBits' caller-provided-buffer contract,
// mirroring rlibm32.EvalSlice: nil dst allocates, short dst fails with
// ErrShortDst before anything reaches the wire, and an adequate dst is
// written in place and returned (so steady-state callers can reuse one
// buffer with zero allocations).
func TestClientDstContract(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 2})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in, want := expWorkload(8)

	// Short dst: rejected up front, transport untouched.
	if _, _, err := c.EvalBits(TFloat32, "exp", make([]uint32, 4), in); !errors.Is(err, ErrShortDst) {
		t.Errorf("short dst: err = %v, want ErrShortDst", err)
	}
	if _, err := c.EvalFloat32("exp", make([]float32, 4), make([]float32, 8)); !errors.Is(err, ErrShortDst) {
		t.Errorf("EvalFloat32 short dst: err = %v, want ErrShortDst", err)
	}
	// The async API reports the contract violation on the call itself.
	call := c.Go(TFloat32, "exp", make([]uint32, 4), in, nil)
	select {
	case <-call.Done:
	case <-time.After(5 * time.Second):
		t.Fatal("short-dst Go call never completed")
	}
	if !errors.Is(call.Err, ErrShortDst) {
		t.Errorf("Go short dst: err = %v, want ErrShortDst", call.Err)
	}

	// Nil dst: allocated to len(src).
	got, status, err := c.EvalBits(TFloat32, "exp", nil, in)
	if err != nil || status != StatusOK {
		t.Fatalf("nil dst: status %s err %v", StatusText(status), err)
	}
	if len(got) != len(in) {
		t.Fatalf("nil dst: %d results for %d inputs", len(got), len(in))
	}

	// Provided dst: results land in the caller's buffer (same backing
	// array), oversize capacity is fine, and the buffer is reusable.
	dst := make([]uint32, 16)
	for round := 0; round < 3; round++ {
		got, status, err = c.EvalBits(TFloat32, "exp", dst, in)
		if err != nil || status != StatusOK {
			t.Fatalf("round %d: status %s err %v", round, StatusText(status), err)
		}
		if &got[0] != &dst[0] {
			t.Fatal("results did not land in the caller-provided dst")
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("round %d: bits[%d] = %#x, want %#x", round, i, got[i], want[i])
			}
		}
	}
}

// TestFrameReaderGrowthPolicy pins the connection frame buffer's
// lifecycle: oversize lengths are rejected before any allocation,
// growth rounds to powers of two so equal-sized frames reuse one
// buffer, and a one-off giant frame's buffer is dropped once smaller
// frames resume.
func TestFrameReaderGrowthPolicy(t *testing.T) {
	frame := func(n int) []byte {
		out := make([]byte, 4+n)
		binary.LittleEndian.PutUint32(out, uint32(n))
		for i := 0; i < n; i++ {
			out[4+i] = byte(i)
		}
		return out
	}
	var stream bytes.Buffer
	stream.Write(frame(10))
	stream.Write(frame(2 * frameKeep))
	stream.Write(frame(20))
	stream.Write(frame(20))

	fr := frameReader{max: DefaultMaxFrame}
	br := bufio.NewReader(&stream)

	body, err := fr.read(br)
	if err != nil || len(body) != 10 {
		t.Fatalf("small frame: len %d err %v", len(body), err)
	}
	if cap(fr.buf) != 512 {
		t.Errorf("small frame buffer cap = %d, want the 512 floor", cap(fr.buf))
	}
	if body, err = fr.read(br); err != nil || len(body) != 2*frameKeep {
		t.Fatalf("big frame: len %d err %v", len(body), err)
	}
	if cap(fr.buf) != 2*frameKeep {
		t.Errorf("big frame buffer cap = %d, want %d (power-of-two growth)", cap(fr.buf), 2*frameKeep)
	}
	if _, err = fr.read(br); err != nil {
		t.Fatal(err)
	}
	if cap(fr.buf) != 512 {
		t.Errorf("post-burst buffer cap = %d, want shrink back to 512", cap(fr.buf))
	}
	before := cap(fr.buf)
	if _, err = fr.read(br); err != nil {
		t.Fatal(err)
	}
	if cap(fr.buf) != before {
		t.Errorf("steady state reallocated: cap %d -> %d", before, cap(fr.buf))
	}

	// Oversize: rejected from the 4-byte prefix alone, without growing
	// the buffer (the body bytes are never read).
	var huge bytes.Buffer
	binary.Write(&huge, binary.LittleEndian, uint32(fr.max+1))
	if _, err := fr.read(bufio.NewReader(&huge)); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversize: err = %v, want ErrFrameSize", err)
	}
	if cap(fr.buf) != before {
		t.Errorf("oversize reject allocated: cap %d -> %d", before, cap(fr.buf))
	}

	// frameAlloc clamps to [512, max] and rounds up to powers of two.
	for _, tc := range []struct{ n, max, want int }{
		{0, 1 << 20, 512},
		{511, 1 << 20, 512},
		{513, 1 << 20, 1024},
		{1 << 20, 1 << 20, 1 << 20},
		{1<<20 - 1, 1 << 20, 1 << 20},
		{700000, 1 << 20, 1 << 20},
	} {
		if got := frameAlloc(tc.n, tc.max); got != tc.want {
			t.Errorf("frameAlloc(%d, %d) = %d, want %d", tc.n, tc.max, got, tc.want)
		}
	}
}

// TestPipelinedBitExact drives one connection with a deep window of
// interleaved async calls across two functions and checks every
// out-of-order completion against the in-process library.
func TestPipelinedBitExact(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 2, ConnInflight: 32})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type fn struct {
		name     string
		in, want []uint32
	}
	var fns []fn
	for _, name := range []string{"exp", "ln"} {
		f, ok := rlibm.Func(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		xs := perf.Float32Inputs(name, 512)
		w := fn{name: name, in: make([]uint32, len(xs)), want: make([]uint32, len(xs))}
		for i, x := range xs {
			w.in[i] = math.Float32bits(x)
			w.want[i] = math.Float32bits(f(x))
		}
		fns = append(fns, w)
	}

	const depth = 24
	const total = 600
	type slot struct {
		f   *fn
		lo  int
		dst []uint32
	}
	slots := make([]slot, depth)
	done := make(chan *Call, depth)
	rng := rand.New(rand.NewSource(1))
	issued, completed, busy := 0, 0, 0
	issue := func(si int) {
		f := &fns[issued%len(fns)]
		lo := rng.Intn(len(f.in) - 64)
		sl := &slots[si]
		if sl.dst == nil {
			sl.dst = make([]uint32, 64)
		}
		sl.f, sl.lo = f, lo
		c.Go(TFloat32, f.name, sl.dst, f.in[lo:lo+64], done).Tag = uint64(si)
		issued++
	}
	for si := 0; si < depth; si++ {
		issue(si)
	}
	inflight := depth
	for inflight > 0 {
		var call *Call
		select {
		case call = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("pipeline stalled: %d issued, %d completed", issued, completed)
		}
		inflight--
		if call.Err != nil {
			t.Fatalf("call %d: %v", call.Tag, call.Err)
		}
		sl := &slots[call.Tag]
		switch call.Status {
		case StatusOK:
			completed++
			for j := range call.Dst {
				if call.Dst[j] != sl.f.want[sl.lo+j] {
					t.Fatalf("%s bits[%d] = %#x, want %#x", sl.f.name, j, call.Dst[j], sl.f.want[sl.lo+j])
				}
			}
		case StatusBusy:
			busy++
		default:
			t.Fatalf("call %d: status %s", call.Tag, StatusText(call.Status))
		}
		if issued < total {
			issue(int(call.Tag))
			inflight++
		}
	}
	if completed == 0 {
		t.Fatal("no calls completed")
	}
	t.Logf("pipelined: %d completed, %d busy, window %d", completed, busy, depth)
}

// TestPoolReconnectSoak kills pooled connections out from under active
// pipelined traffic (simulating server-side resets) and checks that the
// pool redials and that every response that does arrive is bit-exact.
// Run under -race: it exercises the client's concurrent fail/complete
// paths.
func TestPoolReconnectSoak(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 2})
	pool, err := NewPool(addr, 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	in, want := expWorkload(256)

	var ok, transportErrs, mismatches atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]uint32, len(in))
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, status, err := pool.EvalBits(TFloat32, "exp", dst, in)
				if err != nil {
					// A kill can race an in-flight call; the contract is
					// an error, never a wrong answer.
					transportErrs.Add(1)
					continue
				}
				if status != StatusOK {
					continue
				}
				for j := range got {
					if got[j] != want[j] {
						mismatches.Add(1)
					}
				}
				ok.Add(1)
			}
		}()
	}
	// The killer closes raw sockets (not Client.Close), as a server-side
	// reset would.
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 25; k++ {
		time.Sleep(4 * time.Millisecond)
		pool.mu.Lock()
		c := pool.clients[rng.Intn(len(pool.clients))]
		pool.mu.Unlock()
		if c != nil {
			c.conn.Close()
		}
	}
	close(stop)
	wg.Wait()
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d bit mismatches across reconnects", n)
	}
	if ok.Load() == 0 {
		t.Fatal("no successful requests survived the soak")
	}
	t.Logf("reconnect soak: %d ok, %d transport errors (expected), 0 mismatches",
		ok.Load(), transportErrs.Load())
}

// FuzzPipelinedResponses throws arbitrary response byte streams —
// torn frames, truncated headers, out-of-order and unknown request
// IDs, error statuses with payloads — at a client with three calls in
// flight. The invariants: the client never panics, every call
// completes (no caller hangs), and an OK completion always carries
// exactly len(Src) results.
func FuzzPipelinedResponses(f *testing.F) {
	mk := func(status uint8, id uint32, bits []uint32) []byte {
		b := appendResponseHeader(nil, status, TFloat32, id, len(bits), 4, 0, 0, nil)
		return appendValues(b, bits, 4)
	}
	var ooo []byte // ids completed 3, 1, 2: the reorder path
	ooo = append(ooo, mk(StatusOK, 3, []uint32{7})...)
	ooo = append(ooo, mk(StatusOK, 1, []uint32{8})...)
	ooo = append(ooo, mk(StatusOK, 2, []uint32{9})...)
	f.Add(ooo)
	f.Add(mk(StatusBusy, 1, nil))
	f.Add(mk(StatusOK, 1, []uint32{5})[:7])           // torn mid-header
	f.Add(mk(StatusOK, 99, []uint32{5}))              // unknown id
	f.Add(append(mk(StatusBusy, 1, nil), 0xAA, 0xBB)) // busy then garbage
	f.Add([]byte{0xff, 0xff, 0xff})
	traced := appendResponseHeader(nil, StatusOK, TFloat32, 2, 1, 4, 0xbeef, 0,
		[]telemetry.SpanRecord{{Start: 1, Dur: 2, Proc: telemetry.ProcBackend, Stage: telemetry.StageKernel}})
	f.Add(appendValues(traced, []uint32{6}, 4)) // spans on an untraced call

	f.Fuzz(func(t *testing.T, data []byte) {
		// The accept goroutine can outlive this iteration (it lingers in
		// Write/Sleep); hand it a private copy so the fuzz engine's
		// in-place mutation of data for the next input cannot race it.
		data = append([]byte(nil), data...)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skip("listen failed")
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn) // drain the client's requests
			conn.Write(data)
			time.Sleep(20 * time.Millisecond)
			conn.Close()
		}()
		c, err := DialTimeout(ln.Addr().String(), 2*time.Second)
		if err != nil {
			t.Skip("dial failed")
		}
		defer c.Close()
		done := make(chan *Call, 3)
		calls := make([]*Call, 3)
		for i := range calls {
			calls[i] = c.Go(TFloat32, "exp", nil, []uint32{uint32(i)}, done)
		}
		for i := 0; i < len(calls); i++ {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("pipelined call never completed")
			}
		}
		for i, call := range calls {
			if call.Err == nil && call.Status == StatusOK && len(call.Dst) != len(call.Src) {
				t.Fatalf("call %d: OK with %d results for %d inputs", i, len(call.Dst), len(call.Src))
			}
		}
	})
}
