package server

import (
	"bufio"
	"context"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlibm32/internal/libm"
	"rlibm32/internal/perf"
	"rlibm32/posit32/positmath"

	rlibm "rlibm32"
)

// startServer launches an in-process server on a loopback port and
// returns it with its address and a cleanup-registered shutdown.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return s, ln.Addr().String()
}

func TestPingAndErrorStatuses(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 2})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, status, err := c.EvalBits(TFloat32, "nope", nil, []uint32{1}); err != nil || status != StatusUnknownFunc {
		t.Errorf("unknown func: status %s err %v", StatusText(status), err)
	}
	// sinpi exists for float32 but not posit32 — the registry split
	// must be visible through the wire.
	if _, status, err := c.EvalBits(TPosit32, "sinpi", nil, []uint32{1}); err != nil || status != StatusUnknownFunc {
		t.Errorf("posit32 sinpi: status %s err %v", StatusText(status), err)
	}
	if _, status, err := c.EvalBits(TFloat32, "exp", nil, nil); err != nil || status != StatusOK {
		t.Errorf("empty eval: status %s err %v", StatusText(status), err)
	}
}

func TestMalformedFrameClosesConnection(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 2})
	cases := []struct {
		name  string
		frame []byte
	}{
		// A frame too short to hold the request header.
		{"truncated header", []byte{8, 0, 0, 0, ProtoVersion, OpEval, TFloat32, 0, 0, 0, 0, 0}},
		// A complete ping in the retired version 1 layout, which had
		// no trace block: the version byte alone rejects it.
		{"v1 ping", []byte{12, 0, 0, 0, 1, OpPing, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}},
	}
	for i, tc := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write(tc.frame)
		br := bufio.NewReader(conn)
		frame, _, err := readFrame(br, nil, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("%s: expected an error frame before close: %v", tc.name, err)
		}
		resp, err := DecodeResponse(frame)
		if err != nil {
			t.Fatalf("%s: error frame malformed: %v", tc.name, err)
		}
		if resp.Status != StatusMalformed {
			t.Errorf("%s: status = %s, want MALFORMED", tc.name, StatusText(resp.Status))
		}
		if _, _, err := readFrame(br, nil, DefaultMaxFrame); err == nil {
			t.Errorf("%s: connection stayed open after malformed frame", tc.name)
		}
		if got := s.Metrics().Malformed.Load(); got != uint64(i+1) {
			t.Errorf("%s: malformed counter = %d, want %d", tc.name, got, i+1)
		}
	}
}

func TestBusyShedding(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 1, MaxInflight: 4})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A batch larger than MaxInflight is always shed, deterministically.
	_, status, err := c.EvalBits(TFloat32, "exp", nil, make([]uint32, 8))
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusBusy {
		t.Fatalf("oversized batch: status %s, want BUSY", StatusText(status))
	}
	// The server stays healthy and serves small batches afterwards.
	bits, status, err := c.EvalBits(TFloat32, "exp", nil, []uint32{math.Float32bits(1)})
	if err != nil || status != StatusOK {
		t.Fatalf("post-shed request: status %s err %v", StatusText(status), err)
	}
	if got, want := math.Float32frombits(bits[0]), rlibm.Exp(1); got != want {
		t.Errorf("post-shed exp(1) = %v, want %v", got, want)
	}
	if s.Metrics().ErrFrames.Load() == 0 {
		t.Error("busy shed not counted in error frames")
	}
}

// TestSoakConcurrentBitExact is the soak test: N goroutine clients
// hammer mixed functions and representations concurrently (run it
// under -race), asserting every returned bit pattern agrees with the
// direct in-process library call.
func TestSoakConcurrentBitExact(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 4, MaxInflight: 1 << 18})

	type job struct {
		typ  uint8
		name string
		in   []uint32
		want []uint32
	}
	var jobs []job
	for _, name := range rlibm.Names() {
		f, _ := rlibm.Func(name)
		xs := perf.Float32Inputs(name, 512)
		j := job{typ: TFloat32, name: name, in: make([]uint32, len(xs)), want: make([]uint32, len(xs))}
		for i, x := range xs {
			j.in[i] = math.Float32bits(x)
			j.want[i] = math.Float32bits(f(x))
		}
		jobs = append(jobs, j)
	}
	for _, name := range positmath.Names() {
		f, _ := positmath.Func(name)
		ps := perf.PositInputs(name, 512)
		j := job{typ: TPosit32, name: name, in: make([]uint32, len(ps)), want: make([]uint32, len(ps))}
		for i, p := range ps {
			j.in[i] = uint32(p)
			j.want[i] = uint32(f(p))
		}
		jobs = append(jobs, j)
	}
	// One 16-bit representation exercises the scalar dispatch path.
	for _, e := range libm.Registry() {
		if e.Variant != libm.VariantFloat16 || e.Name != "exp2" {
			continue
		}
		j := job{typ: TFloat16, name: e.Name, in: make([]uint32, 2048), want: make([]uint32, 2048)}
		ev := buildEvaluators()[batchKey{typ: TFloat16, name: e.Name}]
		for i := range j.in {
			j.in[i] = uint32(i * 31)
		}
		ev(j.want, j.in)
		jobs = append(jobs, j)
	}

	const clients = 8
	const reqsPerClient = 150
	var busy, mismatches atomic.Uint64
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci)))
			for r := 0; r < reqsPerClient; r++ {
				j := jobs[rng.Intn(len(jobs))]
				lo := rng.Intn(len(j.in))
				hi := lo + 1 + rng.Intn(256)
				if hi > len(j.in) {
					hi = len(j.in)
				}
				got, status, err := c.EvalBits(j.typ, j.name, nil, j.in[lo:hi])
				if err != nil {
					t.Errorf("client %d: %v", ci, err)
					return
				}
				if status == StatusBusy {
					busy.Add(1)
					continue
				}
				if status != StatusOK {
					t.Errorf("client %d: status %s", ci, StatusText(status))
					return
				}
				for i := range got {
					if got[i] != j.want[lo+i] {
						mismatches.Add(1)
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d bit mismatches against direct library calls", n)
	}
	m := s.Metrics()
	if m.Requests.Load() == 0 || m.Batches.Load() == 0 {
		t.Error("metrics recorded no traffic")
	}
	t.Logf("soak: %d requests, %d batches, %.1f values/batch, busy=%d",
		m.Requests.Load(), m.Batches.Load(),
		float64(m.BatchedValues.Load())/float64(m.Batches.Load()), busy.Load())
}

// TestShutdownDrainsInflight checks graceful drain: requests in flight
// when Shutdown is called still complete with correct results, and
// Shutdown returns once they have.
func TestShutdownDrainsInflight(t *testing.T) {
	s := New(Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	addr := ln.Addr().String()

	exp, _ := rlibm.Func("exp")
	want := math.Float32bits(exp(1))
	const clients = 6
	var ok, drained atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			<-start
			in := make([]uint32, 4096)
			for i := range in {
				in[i] = math.Float32bits(1)
			}
			for r := 0; ; r++ {
				got, status, err := c.EvalBits(TFloat32, "exp", nil, in)
				if err != nil || status == StatusShutdown {
					// Connection drained out from under us — fine,
					// as long as completed requests were correct.
					drained.Add(1)
					return
				}
				if status != StatusOK {
					continue
				}
				for i := range got {
					if got[i] != want {
						t.Errorf("mismatch during drain: %#x want %#x", got[i], want)
						return
					}
				}
				ok.Add(1)
			}
		}()
	}
	close(start)
	time.Sleep(50 * time.Millisecond) // let traffic build
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if err := <-serveDone; err != ErrServerClosed {
		t.Errorf("Serve returned %v", err)
	}
	if ok.Load() == 0 {
		t.Error("no requests completed before drain")
	}
	// New connections must be refused after shutdown.
	if c, err := Dial(addr); err == nil {
		if err := c.Ping(); err == nil {
			t.Error("server accepted traffic after Shutdown")
		}
		c.Close()
	}
	t.Logf("drain: %d ok requests, %d clients saw the drain", ok.Load(), drained.Load())
}

// TestCoalescingMergesQueuedRequests pins the coalescer's core
// behavior deterministically: while the (single-shard) worker is busy
// evaluating one batch, further submits for the same key accumulate in
// the shard queue and are dispatched together as one merged batch when
// the worker frees up.
func TestCoalescingMergesQueuedRequests(t *testing.T) {
	key := batchKey{typ: TFloat32, name: "gate"}
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	eval := map[batchKey]evalFunc{key: func(dst, src []uint32) {
		started <- struct{}{}
		<-gate
		copy(dst, src)
	}}
	m := newMetrics([]batchKey{key})
	d := newDispatcher(eval, 1, 1<<16, 1<<20, m)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.shutdown(ctx); err != nil {
			t.Errorf("dispatcher shutdown: %v", err)
		}
	}()

	inputs := [][]uint32{{1}, {2}, {3, 4}, {5}}
	results := make([][]uint32, len(inputs))
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, status := d.evalSync(key, uint32(i), inputs[i])
			if status != StatusOK {
				t.Errorf("submit %d: status %s", i, StatusText(status))
				return
			}
			results[i] = out
		}()
	}
	submit(0)
	<-started // the worker is now blocked inside eval on batch {1}
	for i := 1; i < len(inputs); i++ {
		submit(i)
	}
	// Wait for the three later submits to be queued behind the
	// blocked worker (one shard, so all land on queue 0).
	q := d.lookup(TFloat32, []byte("gate")).qs[0]
	for {
		q.mu.Lock()
		n := len(q.pend)
		q.mu.Unlock()
		if n == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if got := m.Batches.Load(); got != 2 {
		t.Errorf("batches = %d, want 2 (one solo, one coalesced from 3 requests)", got)
	}
	if got := m.BatchedValues.Load(); got != 5 {
		t.Errorf("batched values = %d, want 5", got)
	}
	for i, in := range inputs {
		for j := range in {
			if results[i][j] != in[j] {
				t.Errorf("request %d: result %v, want %v (scatter misrouted)", i, results[i], in)
			}
		}
	}
}
