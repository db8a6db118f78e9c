package server

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkProtoRoundTrip measures one synchronous request through the
// full stack — client encode, writev, server decode, sharded dispatch,
// kernel, response writev, client decode — with a caller-provided dst,
// the configuration the zero-alloc claim is made for. Allocs/op is the
// number to watch: steady state must stay at 0 on both ends.
func BenchmarkProtoRoundTrip(b *testing.B) {
	_, addr := startServer(b, Config{Workers: 2})
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	in, _ := expWorkload(256)
	dst := make([]uint32, len(in))
	// Warm the pools and arenas out of the measured region.
	for i := 0; i < 100; i++ {
		if _, _, err := c.EvalBits(TFloat32, "exp", dst, in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(in)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, status, err := c.EvalBits(TFloat32, "exp", dst, in)
		if err != nil || status != StatusOK {
			b.Fatalf("status %s err %v", StatusText(status), err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(in))*float64(b.N)/b.Elapsed().Seconds(), "values/s")
}

// benchHint hands each parallel submitter its own connection hint, the
// way distinct connections spread one hot key across shards.
var benchHint atomic.Uint32

// BenchmarkDispatchSharded measures the dispatcher alone — admission,
// shard queueing, worker wakeup, coalesced evaluation, delivery —
// with a trivial kernel, so the per-value dispatch overhead is the
// whole cost. Allocs/op must be 0: pendings, batch sources and result
// buffers all recycle.
func BenchmarkDispatchSharded(b *testing.B) {
	key := batchKey{typ: TFloat32, name: "copy"}
	eval := map[batchKey]evalFunc{key: func(dst, src []uint32) { copy(dst, src) }}
	m := newMetrics([]batchKey{key})
	d := newDispatcher(eval, 4, 1<<16, 1<<20, m)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	const batch = 256
	b.ReportAllocs()
	b.SetBytes(batch * 4)
	b.RunParallel(func(pb *testing.PB) {
		hint := benchHint.Add(1)
		ks := d.lookup(TFloat32, []byte("copy"))
		src := make([]uint32, batch)
		for i := range src {
			src[i] = uint32(i)
		}
		s := &syncSink{ch: make(chan *pending, 1)}
		for pb.Next() {
			p := getPending(len(src))
			copy(p.src, src)
			p.ks, p.out, p.start = ks, s, time.Now()
			if st := d.submit(p, hint); st != StatusOK {
				p.release()
				b.Fatalf("submit: %s", StatusText(st))
			}
			q := <-s.ch
			q.release()
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "values/s")
}

// TestPerFrameSteadyStateAllocs is the no-alloc gate for the
// per-connection frame path: with GC parked and everything warm, a
// round trip (two frames plus dispatch on the server, two frames on
// the client) must average under one allocation — i.e. the occasional
// pool refill is tolerated, per-frame garbage is not.
func TestPerFrameSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("alloc gate skipped under -race: sync.Pool drops items by design there")
	}
	_, addr := startServer(t, Config{Workers: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in, _ := expWorkload(256)
	dst := make([]uint32, len(in))
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, status, err := c.EvalBits(TFloat32, "exp", dst, in); err != nil || status != StatusOK {
				t.Fatalf("status %s err %v", StatusText(status), err)
			}
		}
	}
	run(2000) // grow every arena, pool and map to steady state
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	run(200)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const N = 2000
	run(N)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / N
	if per >= 1 {
		t.Errorf("steady-state frame path allocates: %.2f mallocs per round trip", per)
	}
	t.Logf("steady state: %.3f mallocs per round trip (%d over %d requests)",
		per, after.Mallocs-before.Mallocs, N)
}
