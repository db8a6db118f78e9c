// Command rlibmload is the load generator and correctness prober for
// rlibmd. It opens -conns connections, each sending batches of -batch
// raw bit patterns for a rotating set of functions, and reports
// throughput (values/s, requests/s) and request latency percentiles.
//
// By default each connection is synchronous: one request in flight,
// measuring unpipelined round-trip behavior. With -pipeline N each
// connection keeps N requests in flight through the client's
// multiplexed async API, which is how a throughput-oriented caller
// would drive the daemon — the summary line reports the same
// values/s and percentile fields so the two modes compare directly.
//
// With -verify (the default), every result bit pattern is compared
// against the in-process library, so a run doubles as an end-to-end
// bit-exactness check; any mismatch, protocol error or non-BUSY error
// frame makes the process exit non-zero. Mismatches are attributed to
// their (endpoint, type, function), with the first offending bit
// pattern printed, so a bad replica in a fleet is identified rather
// than drowned in a global counter. BUSY responses are counted and
// reported but are not failures — they are the server's designed load
// shedding; -max-busy-frac bounds the fraction of requests that may be
// shed before the run fails, and -min-rate sets a values/s floor for
// CI gating.
//
// -addr accepts a comma-separated list; connections round-robin across
// the endpoints, so one invocation can drive several rlibmd replicas
// or rlibmproxy front-ends and compare them in the per-endpoint
// summary.
//
// With -trace-frac F (0 < F <= 1), roughly that fraction of each
// connection's requests carries a nonzero trace id in its frame's
// trace block: the server — and, through a proxy, every backend the
// request visited — returns per-stage span events, and the run ends with an
// end-to-end latency waterfall (client issue/flush, proxy
// admit/ring-walk/forward, backend queue/coalesce/kernel).
// -trace-out writes the collected spans as one stitched Chrome-trace
// JSON (load into chrome://tracing or Perfetto; spans from every
// process in the request path share a trace id). -flight-admin lists
// admin endpoints whose flight recorders should be dumped
// (/debug/flight/trigger?reason=bit-mismatch) when the run detects a
// bit mismatch, preserving the serving-side context of the bad frame.
//
//	rlibmload -addr 127.0.0.1:7043 -duration 5s -conns 8 -batch 256
//	rlibmload -addr 127.0.0.1:7043 -pipeline 16      # 16 in flight per conn
//	rlibmload -addr 127.0.0.1:7043,127.0.0.1:7045    # two endpoints
//	rlibmload -addr 127.0.0.1:7043 -batch 1          # scalar RPC mode
//	rlibmload -addr 127.0.0.1:7043 -ping             # readiness probe (all endpoints)
//	rlibmload -addr 127.0.0.1:7050 -trace-frac 0.01 -trace-out trace.json
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rlibm32/bfloat16"
	"rlibm32/float16"
	"rlibm32/internal/libm"
	"rlibm32/internal/perf"
	"rlibm32/internal/server"
	"rlibm32/internal/telemetry"
	"rlibm32/posit16"
	"rlibm32/posit32/positmath"

	rlibm "rlibm32"
)

// workload is one function's precomputed input and expected-output bit
// arrays.
type workload struct {
	name     string
	in       []uint32
	expected []uint32
}

// buildWorkloads precomputes inputs (via the shared internal/perf
// generators for the 32-bit types; the full 2^16 input space for the
// 16-bit types) and expected outputs from direct in-process calls.
func buildWorkloads(variant string, funcs []string, n int) ([]workload, error) {
	var out []workload
	for _, name := range funcs {
		w := workload{name: name}
		switch variant {
		case libm.VariantFloat32:
			f, ok := rlibm.Func(name)
			if !ok {
				return nil, fmt.Errorf("unknown float32 function %q", name)
			}
			xs := perf.Float32Inputs(name, n)
			w.in = make([]uint32, n)
			w.expected = make([]uint32, n)
			for i, x := range xs {
				w.in[i] = math.Float32bits(x)
				w.expected[i] = math.Float32bits(f(x))
			}
		case libm.VariantPosit32:
			f, ok := positmath.Func(name)
			if !ok {
				return nil, fmt.Errorf("unknown posit32 function %q", name)
			}
			ps := perf.PositInputs(name, n)
			w.in = make([]uint32, n)
			w.expected = make([]uint32, n)
			for i, p := range ps {
				w.in[i] = uint32(p)
				w.expected[i] = uint32(f(p))
			}
		case libm.VariantBfloat16:
			f, ok := bfloat16.Func(name)
			if !ok {
				return nil, fmt.Errorf("unknown bfloat16 function %q", name)
			}
			w.in, w.expected = all16(func(b uint16) uint16 { return f(bfloat16.FromBits(b)).Bits() })
		case libm.VariantFloat16:
			f, ok := float16.Func(name)
			if !ok {
				return nil, fmt.Errorf("unknown float16 function %q", name)
			}
			w.in, w.expected = all16(func(b uint16) uint16 { return f(float16.FromBits(b)).Bits() })
		case libm.VariantPosit16:
			f, ok := posit16.Func(name)
			if !ok {
				return nil, fmt.Errorf("unknown posit16 function %q", name)
			}
			w.in, w.expected = all16(func(b uint16) uint16 { return f(posit16.FromBits(b)).Bits() })
		default:
			return nil, fmt.Errorf("unknown type %q (want one of %s)", variant, strings.Join(libm.Variants(), " "))
		}
		out = append(out, w)
	}
	return out, nil
}

// printWaterfall renders the per-stage latency waterfall from the
// collected spans: stages in pipeline order (client → proxy →
// backend), each with the spans seen, the mean offset of the stage's
// start from its trace's first span (where in the request lifetime the
// stage begins), and duration quantiles. Reading down the column is
// reading a request's journey through the fleet.
func printWaterfall(spans []telemetry.StitchedSpan, traced uint64) {
	t0 := make(map[uint64]int64, traced)
	for _, s := range spans {
		if cur, ok := t0[s.TraceID]; !ok || s.Span.Start < cur {
			t0[s.TraceID] = s.Span.Start
		}
	}
	type stageKey struct{ proc, stage uint8 }
	type stageAgg struct {
		durs      []int64
		offsetSum int64
	}
	agg := make(map[stageKey]*stageAgg)
	for _, s := range spans {
		k := stageKey{s.Span.Proc, s.Span.Stage}
		a := agg[k]
		if a == nil {
			a = &stageAgg{}
			agg[k] = a
		}
		a.durs = append(a.durs, s.Span.Dur)
		a.offsetSum += s.Span.Start - t0[s.TraceID]
	}
	keys := make([]stageKey, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].proc != keys[j].proc {
			return keys[i].proc < keys[j].proc
		}
		return keys[i].stage < keys[j].stage
	})
	fmt.Printf("  trace waterfall (%d traced requests, %d spans):\n", traced, len(spans))
	for _, k := range keys {
		a := agg[k]
		sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
		var sum int64
		for _, d := range a.durs {
			sum += d
		}
		n := len(a.durs)
		q := func(p float64) time.Duration {
			i := int(p * float64(n))
			if i >= n {
				i = n - 1
			}
			return time.Duration(a.durs[i])
		}
		fmt.Printf("    %-16s n=%-7d start=+%-12v mean=%-12v p50=%-12v p99=%v\n",
			telemetry.SpanName(k.proc, k.stage), n,
			time.Duration(a.offsetSum/int64(n)).Round(time.Microsecond),
			time.Duration(sum/int64(n)).Round(time.Microsecond),
			q(0.50).Round(time.Microsecond), q(0.99).Round(time.Microsecond))
	}
}

// all16 enumerates the full 16-bit input space with expected outputs.
func all16(f func(uint16) uint16) (in, expected []uint32) {
	in = make([]uint32, 1<<16)
	expected = make([]uint32, 1<<16)
	for b := 0; b < 1<<16; b++ {
		in[b] = uint32(b)
		expected[b] = uint32(f(uint16(b)))
	}
	return in, expected
}

// funcStats attributes one function's mismatches on one endpoint,
// keeping the first offending bit pattern for the failure report.
type funcStats struct {
	mismatches                   uint64
	firstIn, firstGot, firstWant uint32
}

// connStats accumulates one connection's counters.
type connStats struct {
	endpoint   string
	requests   uint64
	values     uint64
	busy       uint64
	errFrames  uint64 // non-OK, non-BUSY responses
	transport  uint64
	mismatches uint64
	traced     uint64                // requests that came back with stitchable spans
	byFunc     map[string]*funcStats // mismatch attribution per function
	latencies  []time.Duration
	spans      []telemetry.StitchedSpan
}

// maxTraceSpans bounds the spans one connection retains, so a long
// traced run cannot grow without bound (the waterfall and the trace
// file are both statistical views; the earliest spans are as good as
// any).
const maxTraceSpans = 50000

// Trace ids are unique across the process: a per-run base (so two runs
// do not collide in a shared trace viewer) plus a global sequence.
var (
	traceBase = uint64(time.Now().UnixNano()) << 8
	traceSeq  atomic.Uint64
)

func nextTraceID() uint64 {
	id := traceBase + traceSeq.Add(1)
	if id == 0 {
		id = 1
	}
	return id
}

// noteTrace collects one traced call's stitchable spans: a synthesized
// client.rpc span (issue to completion) and client.flush span (issue
// to the flush that put the frame on the wire), plus every span the
// response relayed from the proxy and backend. Collection stops at
// maxTraceSpans.
func (st *connStats) noteTrace(traceID uint64, call *server.Call, endNs int64) {
	if len(st.spans) >= maxTraceSpans {
		return
	}
	st.traced++
	st.spans = append(st.spans, telemetry.StitchedSpan{TraceID: traceID, Span: telemetry.SpanRecord{
		Start: call.IssuedNs, Dur: endNs - call.IssuedNs,
		Proc: telemetry.ProcClient, Stage: telemetry.StageRPC,
	}})
	if call.SentNs >= call.IssuedNs {
		st.spans = append(st.spans, telemetry.StitchedSpan{TraceID: traceID, Span: telemetry.SpanRecord{
			Start: call.IssuedNs, Dur: call.SentNs - call.IssuedNs,
			Proc: telemetry.ProcClient, Stage: telemetry.StageFlush,
		}})
	}
	for _, sp := range call.Spans {
		st.spans = append(st.spans, telemetry.StitchedSpan{TraceID: traceID, Span: sp})
	}
}

// noteMismatch records one bit mismatch against its function.
func (st *connStats) noteMismatch(name string, in, got, want uint32) {
	st.mismatches++
	if st.byFunc == nil {
		st.byFunc = make(map[string]*funcStats)
	}
	fs := st.byFunc[name]
	if fs == nil {
		fs = &funcStats{firstIn: in, firstGot: got, firstWant: want}
		st.byFunc[name] = fs
	}
	fs.mismatches++
}

// runSync drives one connection with a single request in flight —
// classic blocking RPC, measuring unpipelined round trips. Every
// traceEvery-th request (0 = never) goes out with a trace context.
func runSync(c *server.Client, st *connStats, work []workload, code uint8, batch, ci int, stop time.Time, verify bool, traceEvery int) {
	off := ci * 131 // de-phase connections across the input arrays
	done := make(chan *server.Call, 1)
	for i := 0; time.Now().Before(stop); i++ {
		w := &work[(ci+i)%len(work)]
		lo := (off + i*batch) % len(w.in)
		hi := lo + batch
		if hi > len(w.in) {
			hi = len(w.in)
		}
		in := w.in[lo:hi]
		var got []uint32
		var status uint8
		var err error
		var lat time.Duration
		if traceEvery > 0 && i%traceEvery == 0 {
			traceID := nextTraceID()
			start := time.Now()
			call := <-c.GoTraced(code, w.name, nil, in, done, 0, traceID, 0).Done
			lat = time.Since(start)
			got, status, err = call.Dst, call.Status, call.Err
			if err == nil {
				st.noteTrace(traceID, call, time.Now().UnixNano())
			}
		} else {
			start := time.Now()
			got, status, err = c.EvalBits(code, w.name, nil, in)
			lat = time.Since(start)
		}
		if err != nil {
			st.transport++
			return
		}
		switch status {
		case server.StatusOK:
			st.requests++
			st.values += uint64(len(in))
			st.latencies = append(st.latencies, lat)
			if verify {
				for j := range in {
					if got[j] != w.expected[lo+j] {
						st.noteMismatch(w.name, in[j], got[j], w.expected[lo+j])
					}
				}
			}
		case server.StatusBusy:
			st.busy++
			time.Sleep(200 * time.Microsecond)
		default:
			st.errFrames++
		}
	}
}

// runPipelined drives one connection with depth requests in flight
// through the client's async Go API: a completion immediately reissues
// its slot, so the pipe stays full until the deadline and then drains.
// Each slot owns a reusable dst buffer (the client writes results in
// place), so the steady-state loop allocates nothing per request.
func runPipelined(c *server.Client, st *connStats, work []workload, code uint8, batch, depth, ci int, stop time.Time, verify bool, traceEvery int) {
	type slot struct {
		w       *workload
		lo      int
		start   time.Time
		traceID uint64
		dst     []uint32
	}
	done := make(chan *server.Call, depth)
	slots := make([]slot, depth)
	off := ci * 131
	seq := 0
	issue := func(si int) {
		i := seq
		seq++
		w := &work[(ci+i)%len(work)]
		lo := (off + i*batch) % len(w.in)
		hi := lo + batch
		if hi > len(w.in) {
			hi = len(w.in)
		}
		sl := &slots[si]
		sl.w, sl.lo, sl.start = w, lo, time.Now()
		if cap(sl.dst) < hi-lo {
			sl.dst = make([]uint32, hi-lo)
		}
		sl.traceID = 0
		if traceEvery > 0 && i%traceEvery == 0 {
			sl.traceID = nextTraceID()
		}
		c.GoTraced(code, w.name, sl.dst[:hi-lo], w.in[lo:hi], done, uint64(si), sl.traceID, 0)
	}
	inflight := 0
	for si := 0; si < depth; si++ {
		issue(si)
		inflight++
	}
	for inflight > 0 {
		call := <-done
		inflight--
		si := int(call.Tag)
		sl := &slots[si]
		lat := time.Since(sl.start)
		if call.Err != nil {
			st.transport++
			return
		}
		if sl.traceID != 0 {
			st.noteTrace(sl.traceID, call, time.Now().UnixNano())
		}
		switch call.Status {
		case server.StatusOK:
			st.requests++
			st.values += uint64(len(call.Dst))
			st.latencies = append(st.latencies, lat)
			if verify {
				for j := range call.Dst {
					if call.Dst[j] != sl.w.expected[sl.lo+j] {
						st.noteMismatch(sl.w.name, sl.w.in[sl.lo+j], call.Dst[j], sl.w.expected[sl.lo+j])
					}
				}
			}
		case server.StatusBusy:
			st.busy++
		default:
			st.errFrames++
		}
		if time.Now().Before(stop) {
			issue(si)
			inflight++
		}
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7043", "server address(es), comma-separated; connections round-robin")
	ping := flag.Bool("ping", false, "ping every endpoint and exit (readiness probe)")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	conns := flag.Int("conns", 8, "concurrent connections")
	batch := flag.Int("batch", 256, "values per request (1 = scalar RPC mode)")
	pipeline := flag.Int("pipeline", 0, "requests in flight per connection (0 = synchronous)")
	typ := flag.String("type", "float32", "representation: "+strings.Join(libm.Variants(), " "))
	funcsFlag := flag.String("funcs", "all", "comma-separated function names, or all")
	n := flag.Int("n", 1<<16, "precomputed inputs per function (32-bit types)")
	verify := flag.Bool("verify", true, "check every result bit against the in-process library")
	minRate := flag.Float64("min-rate", 0, "fail unless throughput reaches this many values/s")
	maxBusyFrac := flag.Float64("max-busy-frac", -1, "fail if more than this fraction of requests is shed with BUSY (-1 disables)")
	quiet := flag.Bool("quiet", false, "only print the summary line")
	traceFrac := flag.Float64("trace-frac", 0, "fraction of requests to trace end-to-end (0 disables)")
	traceOut := flag.String("trace-out", "", "write collected spans as stitched Chrome-trace JSON to this file")
	flightAdmin := flag.String("flight-admin", "", "comma-separated admin addresses to flight-dump on bit mismatch")
	flag.Parse()

	traceEvery := 0
	if *traceFrac > 0 {
		traceEvery = int(1 / *traceFrac)
		if traceEvery < 1 {
			traceEvery = 1
		}
	}

	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "rlibmload: -addr is empty")
		os.Exit(2)
	}

	if *ping {
		failed := false
		for _, a := range addrs {
			c, err := server.Dial(a)
			if err == nil {
				err = c.Ping()
				c.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "rlibmload: ping %s: %v\n", a, err)
				failed = true
				continue
			}
			fmt.Printf("rlibmload: %s is up\n", a)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	code, ok := server.TypeCode(*typ)
	if !ok {
		fmt.Fprintf(os.Stderr, "rlibmload: unknown -type %q\n", *typ)
		os.Exit(2)
	}
	funcs := libm.Names(*typ)
	if *funcsFlag != "all" {
		funcs = strings.Split(*funcsFlag, ",")
	}
	if !*quiet {
		fmt.Printf("rlibmload: precomputing %s expected outputs for %s\n", *typ, strings.Join(funcs, " "))
	}
	work, err := buildWorkloads(*typ, funcs, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlibmload:", err)
		os.Exit(2)
	}

	stats := make([]connStats, *conns)
	var wg sync.WaitGroup
	stop := time.Now().Add(*duration)
	for ci := 0; ci < *conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			st := &stats[ci]
			st.endpoint = addrs[ci%len(addrs)]
			c, err := server.Dial(st.endpoint)
			if err != nil {
				st.transport++
				return
			}
			defer c.Close()
			if *pipeline > 0 {
				runPipelined(c, st, work, code, *batch, *pipeline, ci, stop, *verify, traceEvery)
			} else {
				runSync(c, st, work, code, *batch, ci, stop, *verify, traceEvery)
			}
		}(ci)
	}
	startAll := time.Now()
	wg.Wait()
	elapsed := time.Since(startAll)
	if elapsed > *duration {
		elapsed = *duration // workers stop on the shared deadline
	}

	var total connStats
	var lats []time.Duration
	var allSpans []telemetry.StitchedSpan
	perEndpoint := make(map[string]*connStats)
	badFuncs := make(map[string]map[string]*funcStats) // endpoint -> func -> attribution
	for i := range stats {
		st := &stats[i]
		total.requests += st.requests
		total.values += st.values
		total.busy += st.busy
		total.errFrames += st.errFrames
		total.transport += st.transport
		total.mismatches += st.mismatches
		total.traced += st.traced
		allSpans = append(allSpans, st.spans...)
		lats = append(lats, st.latencies...)
		ep := perEndpoint[st.endpoint]
		if ep == nil {
			ep = &connStats{endpoint: st.endpoint}
			perEndpoint[st.endpoint] = ep
		}
		ep.requests += st.requests
		ep.values += st.values
		ep.busy += st.busy
		ep.errFrames += st.errFrames
		ep.transport += st.transport
		ep.mismatches += st.mismatches
		for name, fs := range st.byFunc {
			m := badFuncs[st.endpoint]
			if m == nil {
				m = make(map[string]*funcStats)
				badFuncs[st.endpoint] = m
			}
			agg := m[name]
			if agg == nil {
				agg = &funcStats{firstIn: fs.firstIn, firstGot: fs.firstGot, firstWant: fs.firstWant}
				m[name] = agg
			}
			agg.mismatches += fs.mismatches
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)))
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}

	mode := "sync"
	if *pipeline > 0 {
		mode = fmt.Sprintf("pipeline=%d", *pipeline)
	}
	rate := float64(total.values) / elapsed.Seconds()
	fmt.Printf("rlibmload: type=%s conns=%d batch=%d %s duration=%v\n", *typ, *conns, *batch, mode, elapsed.Round(time.Millisecond))
	fmt.Printf("  requests=%d values=%d throughput=%.0f values/s (%.0f req/s)\n",
		total.requests, total.values, rate, float64(total.requests)/elapsed.Seconds())
	fmt.Printf("  latency p50=%v p99=%v busy=%d err_frames=%d transport_errs=%d mismatches=%d\n",
		q(0.50).Round(time.Microsecond), q(0.99).Round(time.Microsecond),
		total.busy, total.errFrames, total.transport, total.mismatches)
	if len(addrs) > 1 {
		eps := make([]string, 0, len(perEndpoint))
		for a := range perEndpoint {
			eps = append(eps, a)
		}
		sort.Strings(eps)
		for _, a := range eps {
			ep := perEndpoint[a]
			fmt.Printf("  endpoint %s: requests=%d values=%d (%.0f values/s) busy=%d err_frames=%d transport_errs=%d mismatches=%d\n",
				a, ep.requests, ep.values, float64(ep.values)/elapsed.Seconds(),
				ep.busy, ep.errFrames, ep.transport, ep.mismatches)
		}
	}
	if total.traced > 0 {
		printWaterfall(allSpans, total.traced)
	}
	if *traceOut != "" && len(allSpans) > 0 {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = telemetry.WriteStitchedTrace(f, allSpans)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlibmload: writing %s: %v\n", *traceOut, err)
		} else {
			fmt.Printf("  stitched trace: %d spans -> %s\n", len(allSpans), *traceOut)
		}
	}
	if total.mismatches > 0 && *flightAdmin != "" {
		// A bit mismatch is exactly the anomaly the serving-side flight
		// recorders exist for: ask each admin endpoint to dump its ring
		// before anyone restarts a process and loses the context.
		for _, a := range strings.Split(*flightAdmin, ",") {
			if a = strings.TrimSpace(a); a == "" {
				continue
			}
			resp, err := http.Get("http://" + a + "/debug/flight/trigger?reason=bit-mismatch")
			if err != nil {
				fmt.Fprintf(os.Stderr, "rlibmload: flight trigger %s: %v\n", a, err)
				continue
			}
			resp.Body.Close()
			fmt.Fprintf(os.Stderr, "rlibmload: flight dump triggered on %s\n", a)
		}
	}
	if total.mismatches > 0 {
		eps := make([]string, 0, len(badFuncs))
		for a := range badFuncs {
			eps = append(eps, a)
		}
		sort.Strings(eps)
		for _, a := range eps {
			names := make([]string, 0, len(badFuncs[a]))
			for name := range badFuncs[a] {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fs := badFuncs[a][name]
				fmt.Fprintf(os.Stderr,
					"rlibmload: MISMATCH endpoint=%s type=%s func=%s count=%d first: in=%#08x got=%#08x want=%#08x\n",
					a, *typ, name, fs.mismatches, fs.firstIn, fs.firstGot, fs.firstWant)
			}
		}
	}
	if total.mismatches > 0 || total.errFrames > 0 || total.transport > 0 {
		fmt.Fprintln(os.Stderr, "rlibmload: FAILED (mismatch or error frames)")
		os.Exit(1)
	}
	if total.requests == 0 {
		fmt.Fprintln(os.Stderr, "rlibmload: FAILED (no successful requests)")
		os.Exit(1)
	}
	if *minRate > 0 && rate < *minRate {
		fmt.Fprintf(os.Stderr, "rlibmload: FAILED (throughput %.0f values/s below floor %.0f)\n", rate, *minRate)
		os.Exit(1)
	}
	if *maxBusyFrac >= 0 {
		frac := 0.0
		if total.requests+total.busy > 0 {
			frac = float64(total.busy) / float64(total.requests+total.busy)
		}
		if frac > *maxBusyFrac {
			fmt.Fprintf(os.Stderr, "rlibmload: FAILED (busy fraction %.4f above bound %.4f)\n", frac, *maxBusyFrac)
			os.Exit(1)
		}
	}
}
