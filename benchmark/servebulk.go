package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rlibm32/internal/server"
)

// serve-bulk shape: each connection keeps bulkDepth requests of
// bulkValues values in flight; the pool holds bulkPerRepr requests per
// representation, so every representation carries an equal share.
const (
	bulkValues  = 1024
	bulkDepth   = 16
	bulkPerRepr = 64
	rateWindow  = 250 * time.Millisecond
)

type bulkState struct {
	fl   *fleet
	reqs []request
}

// bulkRequests draws the serve-bulk request pool: bulkPerRepr requests
// of bulkValues values per representation, cycling through its
// functions so each gets an even share, in seeded order.
func bulkRequests(seed int64) ([]request, error) {
	reprs := representations()
	pick := func(i int) (repr, string) {
		r := reprs[i%len(reprs)]
		return r, r.funcs[(i/len(reprs))%len(r.funcs)]
	}
	reqs, err := drawRequests(seed, 3, bulkPerRepr*len(reprs), pick, func() int { return bulkValues })
	if err != nil {
		return nil, err
	}
	order := newRNG(seed, 4)
	order.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

func buildBulk(seed int64) (*bulkState, func(), error) {
	reqs, err := bulkRequests(seed)
	if err != nil {
		return nil, nil, err
	}
	fl, err := startFleet(1, false, runtime.NumCPU())
	if err != nil {
		return nil, nil, err
	}
	if err := fl.warmUp(reqs); err != nil {
		fl.close()
		return nil, nil, err
	}
	return &bulkState{fl: fl, reqs: reqs}, fl.close, nil
}

// bulkTally is one connection's share of a closed-loop phase.
type bulkTally struct {
	attempted uint64
	latUs     [][]float64 // per rateWindow: each completed request's latency
	windows   []float64   // values completed in each rateWindow
	spans     *spanTally
	failures  []string
}

// bulkConn drives one connection: bulkDepth requests in flight, each
// completion reissuing its slot with the next request, until deadline.
// With traceEvery > 0 every traceEvery-th request carries a trace
// context.
func bulkConn(c *server.Client, ci int, reqs []request, offset int, start, deadline time.Time, traceEvery int, t *bulkTally) {
	type slot struct {
		q      *request
		issued time.Time
		dst    []uint32
	}
	done := make(chan *server.Call, bulkDepth)
	slots := make([]slot, bulkDepth)
	seq := offset
	issue := func(si int) {
		s := &slots[si]
		s.q = &reqs[seq%len(reqs)]
		if s.dst == nil {
			s.dst = make([]uint32, bulkValues)
		}
		s.issued = time.Now()
		t.attempted++
		if traceEvery > 0 && seq%traceEvery == 0 {
			c.GoTraced(s.q.r.code, s.q.fn, s.dst, s.q.in, done, uint64(si), uint64(ci)<<40|uint64(seq+1), 0)
		} else {
			c.GoTagged(s.q.r.code, s.q.fn, s.dst, s.q.in, done, uint64(si))
		}
		seq++
	}
	for si := range slots {
		issue(si)
	}
	for inflight := len(slots); inflight > 0; {
		call := <-done
		inflight--
		now := time.Now()
		s := &slots[call.Tag]
		switch {
		case call.Err != nil:
			t.failures = append(t.failures, fmt.Sprintf("%s %s: transport: %v", s.q.r.name, s.q.fn, call.Err))
		case call.Status != server.StatusOK:
			t.failures = append(t.failures, fmt.Sprintf("%s %s: status %s", s.q.r.name, s.q.fn, server.StatusText(call.Status)))
		default:
			if bad := firstMismatch(call.Dst, s.q.want); bad >= 0 {
				t.failures = append(t.failures, fmt.Sprintf("%s %s(%#x): wrong bits %#x, want %#x",
					s.q.r.name, s.q.fn, s.q.in[bad], call.Dst[bad], s.q.want[bad]))
				break
			}
			w := int(now.Sub(start) / rateWindow)
			for len(t.windows) <= w {
				t.windows = append(t.windows, 0)
				t.latUs = append(t.latUs, nil)
			}
			t.windows[w] += float64(len(s.q.in))
			t.latUs[w] = append(t.latUs[w], float64(now.Sub(s.issued).Nanoseconds())/1e3)
			if call.TraceID != 0 {
				t.spans.note(call, now.UnixNano())
			}
		}
		if call.Err == nil && now.Before(deadline) {
			issue(int(call.Tag))
			inflight++
		}
	}
}

// bulkPhase runs every connection's closed loop for dur and merges the
// results into rep; it returns the phase's values/s (see quietRate over
// windows) and its span tally.
func bulkPhase(st *bulkState, dur time.Duration, traceEvery int, rep *report) (float64, *spanTally) {
	start := time.Now()
	deadline := start.Add(dur)
	spans := newSpanTally()
	tallies := make([]bulkTally, len(st.fl.clients))
	var wg sync.WaitGroup
	for i, c := range st.fl.clients {
		tallies[i].spans = newSpanTally()
		wg.Add(1)
		go func(i int, c *server.Client) {
			defer wg.Done()
			bulkConn(c, i, st.reqs, i*len(st.reqs)/len(st.fl.clients), start, deadline, traceEvery, &tallies[i])
		}(i, c)
	}
	wg.Wait()
	var windows []float64
	var lat [][]float64
	for i := range tallies {
		t := &tallies[i]
		rep.attempted += t.attempted
		for _, f := range t.failures {
			rep.fail("%s", f)
		}
		for w, v := range t.windows {
			for len(windows) <= w {
				windows = append(windows, 0)
				lat = append(lat, nil)
			}
			windows[w] += v
			lat[w] = append(lat[w], t.latUs[w]...)
		}
		spans.merge(t.spans)
	}
	// The last window is cut short by the deadline and the drain.
	if full := int(dur / rateWindow); len(windows) > full {
		windows, lat = windows[:full], lat[:full]
	}
	rates := make([]float64, len(windows))
	for i, v := range windows {
		rates[i] = v / rateWindow.Seconds()
	}
	rate := quietRate(rates)
	rep.set("values_per_s", rate, len(rates))
	p50, n := windowQuantile(lat, 0.50)
	p99, _ := windowQuantile(lat, 0.99)
	rep.set("lat_p50_us", p50, n)
	rep.set("lat_p99_us", p99, n)
	return rate, spans
}

// bulkTraceEvery traces one request in this many in a traced phase.
const bulkTraceEvery = 4

// runServeBulk is the serve-bulk workload: one in-process rlibmd, a
// closed loop of pipelined 1024-value requests on loadConns()
// connections.
func runServeBulk(cfg runConfig, rep *report) error {
	st, err := measureSetup(rep, func() (*bulkState, func(), error) { return buildBulk(cfg.seed) })
	if err != nil {
		return err
	}
	defer st.fl.close()
	if !cfg.traced {
		bulkPhase(st, cfg.seconds, 0, rep)
		return nil
	}
	plain, _ := bulkPhase(st, cfg.seconds/2, 0, rep)
	c0 := st.fl.counters()
	traced, spans := bulkPhase(st, cfg.seconds/2, bulkTraceEvery, rep)
	reportServerLayers(rep, c0, st.fl.counters(), false)
	spans.report(rep)
	rep.set("trace.overhead_frac", overhead(plain, traced), 2)
	if err := replayProto(st.reqs, 200*time.Millisecond, rep); err != nil {
		return err
	}
	return writeStitched(cfg, spans.spans)
}
