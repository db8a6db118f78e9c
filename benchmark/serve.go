package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sort"
	"time"

	"rlibm32/internal/server"
	"rlibm32/internal/server/proxy"
	"rlibm32/internal/telemetry"
)

// request is one pre-drawn eval request and its expected response.
type request struct {
	r    repr
	fn   string
	in   []uint32
	want []uint32
}

// drawRequests draws n requests whose (representation, function) comes
// from pick and whose size comes from size, with expected outputs from
// the scalar library.
func drawRequests(seed, salt int64, n int, pick func(i int) (repr, string), size func() int) ([]request, error) {
	rng := newRNG(seed, salt)
	out := make([]request, n)
	for i := range out {
		r, fn := pick(i)
		in := drawBits(rng, r, fn, size())
		want, err := expected(r, fn, in)
		if err != nil {
			return nil, err
		}
		out[i] = request{r: r, fn: fn, in: in, want: want}
	}
	return out, nil
}

// firstMismatch returns the first index where got differs from want,
// or -1.
func firstMismatch(got, want []uint32) int {
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// fleet is a set of in-process daemons on loopback: rlibmd backends,
// optionally behind an rlibmproxy, and the benchmark's client
// connections to the front end.
type fleet struct {
	backends []*server.Server
	proxy    *proxy.Proxy
	clients  []*server.Client
	served   chan error // one value per Serve goroutine, when it returns
	nServe   int
}

// startFleet starts nBackends rlibmd servers, a proxy in front of them
// when withProxy, and dials conns v2-negotiated connections to the
// front end.
func startFleet(nBackends int, withProxy bool, conns int) (*fleet, error) {
	f := &fleet{served: make(chan error, nBackends+1)}
	serve := func(ln net.Listener, fn func(net.Listener) error) {
		f.nServe++
		go func() { f.served <- fn(ln) }()
	}
	var addrs []string
	for i := 0; i < nBackends; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		s := server.New(server.Config{Workers: runtime.NumCPU(), BusyDumpFrac: -1})
		f.backends = append(f.backends, s)
		addrs = append(addrs, ln.Addr().String())
		serve(ln, s.Serve)
	}
	front := addrs[0]
	if withProxy {
		p, err := proxy.New(proxy.Config{Backends: addrs, BusyDumpFrac: -1,
			Logf: log.New(io.Discard, "", 0).Printf})
		if err != nil {
			f.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.proxy = p
		front = ln.Addr().String()
		serve(ln, p.Serve)
	}
	for i := 0; i < conns; i++ {
		c, err := server.Dial(front)
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
		// One ping learns the peer's protocol version, so traced
		// requests go out as v2 frames.
		if err := c.Ping(); err != nil {
			f.close()
			return nil, fmt.Errorf("ping %s: %w", front, err)
		}
	}
	return f, nil
}

// close closes the clients, drains every daemon and waits for their
// Serve goroutines to return.
func (f *fleet) close() {
	for _, c := range f.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.proxy != nil {
		f.proxy.Shutdown(ctx)
	}
	for _, s := range f.backends {
		s.Shutdown(ctx)
	}
	for i := 0; i < f.nServe; i++ {
		if err := <-f.served; err != nil && !errors.Is(err, server.ErrServerClosed) {
			log.Printf("benchmark: serve: %v", err)
		}
	}
	f.nServe = 0
}

// warmUp sends every request once through the fleet and checks it, so
// connections, coalescing lanes and lazy tables are ready before the
// timed window.
func (f *fleet) warmUp(reqs []request) error {
	const window = 64
	done := make(chan *server.Call, window)
	inflight := 0
	var firstErr error
	complete := func() {
		call := <-done
		inflight--
		q := &reqs[call.Tag]
		switch {
		case call.Err != nil:
			firstErr = call.Err
		case call.Status != server.StatusOK:
			firstErr = fmt.Errorf("status %s", server.StatusText(call.Status))
		case firstMismatch(call.Dst, q.want) >= 0:
			firstErr = fmt.Errorf("%s %s: wrong bits", q.r.name, q.fn)
		}
	}
	for i := range reqs {
		if inflight == window {
			complete()
		}
		q := &reqs[i]
		f.clients[i%len(f.clients)].GoTagged(q.r.code, q.fn, nil, q.in, done, uint64(i))
		inflight++
	}
	for inflight > 0 {
		complete()
	}
	if firstErr != nil {
		return fmt.Errorf("warm-up: %w", firstErr)
	}
	return nil
}

// layerCounters snapshots the server and proxy counters a traced run
// reports as deltas.
type layerCounters struct {
	batches, batchedValues, steals, requests, busy uint64
	proxyRequests, proxyRetries                    uint64
}

func (f *fleet) counters() layerCounters {
	var c layerCounters
	for _, s := range f.backends {
		m := s.Metrics()
		snap := m.Snapshot()
		c.batches += m.Batches.Load()
		c.batchedValues += m.BatchedValues.Load()
		c.requests += m.Requests.Load()
		if v, ok := snap["steals"].(uint64); ok {
			c.steals += v
		}
		if funcs, ok := snap["func"].(map[string]any); ok {
			for _, e := range funcs {
				if b, ok := e.(map[string]any)["busy"].(uint64); ok {
					c.busy += b
				}
			}
		}
	}
	if f.proxy != nil {
		c.proxyRequests = f.proxy.Metrics().Requests.Load()
		c.proxyRetries = f.proxy.Metrics().Retries.Load()
	}
	return c
}

// reportServerLayers sets the server.* (and, behind a proxy, proxy.*)
// counter metrics from the deltas between two snapshots.
func reportServerLayers(rep *report, a, b layerCounters, withProxy bool) {
	batches := float64(b.batches - a.batches)
	if batches > 0 {
		rep.set("server.values_per_dispatch", float64(b.batchedValues-a.batchedValues)/batches, int(batches))
		rep.set("server.steal_frac", float64(b.steals-a.steals)/batches, int(batches))
	}
	if reqs := float64(b.requests - a.requests); reqs > 0 {
		rep.set("server.busy_frac", float64(b.busy-a.busy)/reqs, int(reqs))
	}
	if withProxy {
		if reqs := float64(b.proxyRequests - a.proxyRequests); reqs > 0 {
			rep.set("proxy.retry_frac", float64(b.proxyRetries-a.proxyRetries)/reqs, int(reqs))
		}
	}
}

// spanTally collects traced requests' spans and per-stage durations.
type spanTally struct {
	spans   []telemetry.StitchedSpan
	stageUs map[string][]float64 // "client.rpc", "backend.queue", ...
	selfUs  []float64            // client.rpc time no child span covers
	childUs []float64            // client.rpc time child spans cover
}

func newSpanTally() *spanTally { return &spanTally{stageUs: map[string][]float64{}} }

// note records one traced call completed at endNs: the client.rpc and
// client.flush spans the client measured, plus every span the proxy and
// backends relayed back.
func (t *spanTally) note(call *server.Call, endNs int64) {
	if call.IssuedNs == 0 {
		return // the peer did not negotiate v2
	}
	rpc := telemetry.SpanRecord{Start: call.IssuedNs, Dur: endNs - call.IssuedNs,
		Proc: telemetry.ProcClient, Stage: telemetry.StageRPC}
	children := make([]telemetry.SpanRecord, 0, len(call.Spans)+1)
	if call.SentNs >= call.IssuedNs {
		children = append(children, telemetry.SpanRecord{Start: call.IssuedNs, Dur: call.SentNs - call.IssuedNs,
			Proc: telemetry.ProcClient, Stage: telemetry.StageFlush})
	}
	children = append(children, call.Spans...)
	t.add(call.TraceID, rpc)
	for _, sp := range children {
		t.add(call.TraceID, sp)
	}
	covered := coveredNs(rpc, children)
	t.childUs = append(t.childUs, float64(covered)/1e3)
	t.selfUs = append(t.selfUs, float64(rpc.Dur-covered)/1e3)
}

// merge appends o's samples and spans, up to maxSpans spans.
func (t *spanTally) merge(o *spanTally) {
	for k, v := range o.stageUs {
		t.stageUs[k] = append(t.stageUs[k], v...)
	}
	t.selfUs = append(t.selfUs, o.selfUs...)
	t.childUs = append(t.childUs, o.childUs...)
	room := min(maxSpans-len(t.spans), len(o.spans))
	t.spans = append(t.spans, o.spans[:room]...)
}

func (t *spanTally) add(traceID uint64, sp telemetry.SpanRecord) {
	name := telemetry.SpanName(sp.Proc, sp.Stage)
	t.stageUs[name] = append(t.stageUs[name], float64(sp.Dur)/1e3)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, telemetry.StitchedSpan{TraceID: traceID, Span: sp})
	}
}

// coveredNs is how much of parent's interval the union of children
// covers.
func coveredNs(parent telemetry.SpanRecord, children []telemetry.SpanRecord) int64 {
	lo, hi := parent.Start, parent.Start+parent.Dur
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.Start+c.Dur, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// report sets the client, server-span and proxy-span metrics.
func (t *spanTally) report(rep *report) {
	p50 := func(metric, stage string) {
		if xs := t.stageUs[stage]; len(xs) > 0 {
			rep.set(metric, quantile(xs, 0.5), len(xs))
		}
	}
	p50("client.rpc_p50_us", "client.rpc")
	p50("client.flush_p50_us", "client.flush")
	p50("server.queue_p50_us", "backend.queue")
	p50("server.coalesce_p50_us", "backend.coalesce")
	p50("server.kernel_p50_us", "backend.kernel")
	p50("proxy.admit_p50_us", "proxy.admit")
	p50("proxy.ringwalk_p50_us", "proxy.ringwalk")
	p50("proxy.forward_p50_us", "proxy.forward")
	if len(t.selfUs) > 0 {
		rep.set("client.rpc_self_p50_us", quantile(t.selfUs, 0.5), len(t.selfUs))
		rep.set("client.rpc_children_p50_us", quantile(t.childUs, 0.5), len(t.childUs))
	}
}

// replayProto times the wire codec over a workload's own frames:
// request encode and parse, response encode and decode, and the bytes
// both frames take per value.
func replayProto(reqs []request, minTime time.Duration, rep *report) error {
	var reqBuf, respBuf []byte
	vals := make([]uint32, 0, 4096)
	var encNs, decNs int64
	var frames, values, bytes int
	for start := time.Now(); frames == 0 || time.Since(start) < minTime; {
		for i := range reqs {
			q := &reqs[i]
			req := server.Request{ID: uint32(i), Op: server.OpEval, Type: q.r.code, Name: q.fn, Bits: q.in}
			resp := server.Response{ID: uint32(i), Status: server.StatusOK, Type: q.r.code, Bits: q.want}
			t0 := time.Now()
			var err error
			if reqBuf, err = server.AppendRequest(reqBuf[:0], &req); err != nil {
				return err
			}
			if respBuf, err = server.AppendResponse(respBuf[:0], &resp); err != nil {
				return err
			}
			t1 := time.Now()
			pr, err := server.ParseRequest(reqBuf[4:])
			if err != nil {
				return err
			}
			vals = vals[:pr.Count]
			server.DecodeValuesInto(vals, pr.Payload, server.TypeWidth(pr.Type))
			dr, err := server.DecodeResponse(respBuf[4:])
			if err != nil {
				return err
			}
			t2 := time.Now()
			if firstMismatch(vals, q.in) >= 0 || firstMismatch(dr.Bits, q.want) >= 0 {
				return fmt.Errorf("codec round trip changed %s %s values", q.r.name, q.fn)
			}
			encNs += t1.Sub(t0).Nanoseconds()
			decNs += t2.Sub(t1).Nanoseconds()
			frames++
			values += len(q.in)
			bytes += len(reqBuf) + len(respBuf)
		}
	}
	rep.set("proto.encode_ns_per_frame", float64(encNs)/float64(frames), frames)
	rep.set("proto.decode_ns_per_frame", float64(decNs)/float64(frames), frames)
	rep.set("proto.bytes_per_value", float64(bytes)/float64(values), values)
	return nil
}
