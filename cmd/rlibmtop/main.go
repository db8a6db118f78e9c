// Command rlibmtop is a terminal dashboard for a running rlibmd: it
// polls the admin listener's /metrics endpoint (Prometheus text
// exposition) and renders live per-function throughput and latency
// percentiles, coalescing efficiency, and how the oracle decided its
// queries (tier 0 vs the Ziv ladder).
//
//	rlibmtop -addr 127.0.0.1:7044            # live, redraws every 2s
//	rlibmtop -addr 127.0.0.1:7044 -once      # one snapshot, no ANSI
//
// With several comma-separated addresses rlibmtop becomes a fleet
// dashboard: one summary row per endpoint (rlibmd backends and
// rlibmproxy front-ends are detected from their metric namespaces and
// rendered side by side), the proxy's per-backend health/ejection
// state, and a per-function values/s matrix with one column per
// endpoint. An endpoint that stops answering is shown as DOWN instead
// of killing the dashboard.
//
//	rlibmtop -addr 127.0.0.1:7051,127.0.0.1:7044,127.0.0.1:7046
//
// Rates and interval percentiles are computed from deltas between two
// consecutive scrapes, so the first live frame appears after one
// interval. Percentiles come from the server's power-of-two latency
// histograms via midpoint recovery (±50% bucket error bound — see
// internal/telemetry).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"rlibm32/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7044", "admin address(es), comma-separated (host:port or full metrics URL)")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	once := flag.Bool("once", false, "print one snapshot and exit (totals instead of rates)")
	flag.Parse()

	var urls []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a + "/metrics"
		}
		urls = append(urls, a)
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "rlibmtop: -addr is empty")
		os.Exit(1)
	}

	if len(urls) > 1 {
		fleetMain(urls, *interval, *once)
		return
	}
	url := urls[0]

	prev, err := scrape(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlibmtop: %v\n", err)
		os.Exit(1)
	}
	if *once {
		render(os.Stdout, url, prev, nil, 0)
		return
	}
	for {
		time.Sleep(*interval)
		cur, err := scrape(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlibmtop: %v\n", err)
			os.Exit(1)
		}
		fmt.Print("\x1b[H\x1b[2J") // home + clear
		render(os.Stdout, url, cur, prev, cur.at.Sub(prev.at).Seconds())
		prev = cur
	}
}

// fleetMain is the multi-endpoint loop: scrape failures mark an
// endpoint DOWN for the frame instead of exiting, and a stale prev is
// kept so rates recover over the widened window once the endpoint
// answers again.
func fleetMain(urls []string, interval time.Duration, once bool) {
	prevs := scrapeAll(urls)
	alive := 0
	for _, s := range prevs {
		if s != nil {
			alive++
		}
	}
	if alive == 0 {
		fmt.Fprintf(os.Stderr, "rlibmtop: no endpoint of %d answered\n", len(urls))
		os.Exit(1)
	}
	if once {
		renderFleet(os.Stdout, urls, prevs, make([]*snap, len(urls)))
		return
	}
	for {
		time.Sleep(interval)
		curs := scrapeAll(urls)
		fmt.Print("\x1b[H\x1b[2J") // home + clear
		renderFleet(os.Stdout, urls, curs, prevs)
		for i, s := range curs {
			if s != nil {
				prevs[i] = s
			}
		}
	}
}

// scrapeAll scrapes every URL concurrently; a failed endpoint yields
// nil (rendered as DOWN) rather than an error.
func scrapeAll(urls []string) []*snap {
	out := make([]*snap, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			s, err := scrape(u)
			if err == nil {
				out[i] = s
			}
		}(i, u)
	}
	wg.Wait()
	return out
}

// snap is one scrape, indexed by metric name.
type snap struct {
	at time.Time
	by map[string][]telemetry.Sample
}

func scrape(url string) (*snap, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	samples, err := telemetry.ParseText(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", url, err)
	}
	s := &snap{at: time.Now(), by: make(map[string][]telemetry.Sample)}
	for _, sm := range samples {
		s.by[sm.Name] = append(s.by[sm.Name], sm)
	}
	return s, nil
}

// value returns the first sample of name whose labels include match.
func (s *snap) value(name string, match map[string]string) (float64, bool) {
	for _, sm := range s.by[name] {
		if labelsMatch(sm.Labels, match) {
			return sm.Value, true
		}
	}
	return 0, false
}

// hist collects the cumulative le→count buckets of one histogram
// series (identified by its labels minus "le").
func (s *snap) hist(name string, match map[string]string) map[float64]float64 {
	buckets := make(map[float64]float64)
	for _, sm := range s.by[name+"_bucket"] {
		if !labelsMatch(sm.Labels, match) {
			continue
		}
		le, ok := parseLe(sm.Labels["le"])
		if !ok {
			continue
		}
		buckets[le] = sm.Value
	}
	return buckets
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

func parseLe(s string) (float64, bool) {
	if s == "+Inf" {
		return math.Inf(1), true
	}
	var v float64
	_, err := fmt.Sscanf(s, "%g", &v)
	return v, err == nil
}

// sub returns cur-prev bucket-wise (interval histogram); prev may be
// nil for totals.
func sub(cur, prev map[float64]float64) map[float64]float64 {
	if prev == nil {
		return cur
	}
	out := make(map[float64]float64, len(cur))
	for le, v := range cur {
		out[le] = v - prev[le]
	}
	return out
}

// funcKey identifies one per-function series.
type funcKey struct{ typ, fn string }

func render(w io.Writer, url string, cur, prev *snap, dt float64) {
	rate := func(v float64) float64 {
		if dt > 0 {
			return v / dt
		}
		return v
	}
	unit := "total"
	if dt > 0 {
		unit = "/s"
	}

	conns, _ := cur.value("rlibmd_connections", nil)
	draining, _ := cur.value("rlibmd_draining", nil)
	state := "serving"
	if draining != 0 {
		state = "DRAINING"
	}
	fmt.Fprintf(w, "rlibmd %s  %s  conns %.0f  %s\n\n",
		url, state, conns, cur.at.Format("15:04:05"))

	// Per-function table, ordered by traffic.
	keys := map[funcKey]bool{}
	for _, sm := range cur.by["rlibmd_func_values_total"] {
		keys[funcKey{sm.Labels["type"], sm.Labels["func"]}] = true
	}
	type row struct {
		k               funcKey
		req, vals, busy float64
		p50, p99        float64
		hasLat          bool
	}
	var rows []row
	for k := range keys {
		match := map[string]string{"type": k.typ, "func": k.fn}
		r := row{k: k}
		cv, _ := cur.value("rlibmd_func_values_total", match)
		cq, _ := cur.value("rlibmd_func_requests_total", match)
		cb, _ := cur.value("rlibmd_func_busy_total", match)
		if prev != nil {
			pv, _ := prev.value("rlibmd_func_values_total", match)
			pq, _ := prev.value("rlibmd_func_requests_total", match)
			pb, _ := prev.value("rlibmd_func_busy_total", match)
			cv, cq, cb = cv-pv, cq-pq, cb-pb
		}
		r.req, r.vals, r.busy = rate(cq), rate(cv), rate(cb)
		lat := cur.hist("rlibmd_request_latency_ns", match)
		if prev != nil {
			lat = sub(lat, prev.hist("rlibmd_request_latency_ns", match))
		}
		if len(lat) > 0 {
			r.p50 = telemetry.HistQuantile(lat, 0.50)
			r.p99 = telemetry.HistQuantile(lat, 0.99)
			r.hasLat = r.p50 > 0 || r.p99 > 0
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].vals != rows[j].vals {
			return rows[i].vals > rows[j].vals
		}
		ki, kj := rows[i].k, rows[j].k
		if ki.typ != kj.typ {
			return ki.typ < kj.typ
		}
		return ki.fn < kj.fn
	})
	fmt.Fprintf(w, "%-8s %-7s %12s %12s %10s %10s %10s\n",
		"func", "type", "req"+unit, "vals"+unit, "p50", "p99", "busy"+unit)
	shown := 0
	for _, r := range rows {
		if prev != nil && r.req == 0 && r.vals == 0 && shown >= 10 {
			continue // live view: hide long-idle functions past the top 10
		}
		p50, p99 := "-", "-"
		if r.hasLat {
			p50, p99 = fmtDur(r.p50), fmtDur(r.p99)
		}
		fmt.Fprintf(w, "%-8s %-7s %12s %12s %10s %10s %10s\n",
			r.k.fn, r.k.typ, fmtCount(r.req), fmtCount(r.vals), p50, p99, fmtCount(r.busy))
		shown++
	}

	// Coalescing efficiency.
	batches := delta(cur, prev, "rlibmd_batches_total")
	bvals := delta(cur, prev, "rlibmd_batched_values_total")
	shed := delta(cur, prev, "rlibmd_shed_values_total")
	avg := 0.0
	if batches > 0 {
		avg = bvals / batches
	}
	bs := cur.hist("rlibmd_batch_size", nil)
	if prev != nil {
		bs = sub(bs, prev.hist("rlibmd_batch_size", nil))
	}
	fmt.Fprintf(w, "\ncoalescing: %s batches%s, avg %.0f vals/batch (p50 %.0f, p99 %.0f)  shed %s vals%s\n",
		fmtCount(rate(batches)), unit, avg,
		telemetry.HistQuantile(bs, 0.50), telemetry.HistQuantile(bs, 0.99),
		fmtCount(rate(shed)), unit)

	// Sharded dispatch and wire batching: steals show idle shards
	// helping busy ones; shard-shed shows one shard's admission bound
	// binding before the global one; frames-per-writev is the
	// scatter-gather amortization (1.0 means no response batching).
	steals := delta(cur, prev, "rlibmd_steals_total")
	shardShed := delta(cur, prev, "rlibmd_shard_shed_values_total")
	writevs := delta(cur, prev, "rlibmd_writev_total")
	wframes := delta(cur, prev, "rlibmd_writev_frames_total")
	wbytes := delta(cur, prev, "rlibmd_writev_bytes_total")
	fpw := 0.0
	if writevs > 0 {
		fpw = wframes / writevs
	}
	fmt.Fprintf(w, "dispatch: steals %s%s  shard-shed %s vals%s   wire: %s writev%s, %.1f frames/writev, %s B%s\n",
		fmtCount(rate(steals)), unit, fmtCount(rate(shardShed)), unit,
		fmtCount(rate(writevs)), unit, fpw, fmtCount(rate(wbytes)), unit)

	// Batch-kernel health: which kernel kind serves the EvalSlice
	// traffic (simd vs go vs the scalar-loop fallback), and how wide the
	// batches actually are — narrow batches can't amortize per-batch
	// costs, so the width histogram explains throughput regressions the
	// per-function table alone can't.
	var kindTotal float64
	kinds := map[string]float64{}
	for _, sm := range cur.by["rlibm_kernel_path_batches_total"] {
		v := sm.Value
		if prev != nil {
			p, _ := prev.value("rlibm_kernel_path_batches_total", map[string]string{"path": sm.Labels["path"]})
			v -= p
		}
		kinds[sm.Labels["path"]] += v
		kindTotal += v
	}
	if kindTotal > 0 {
		var names []string
		for k := range kinds {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return kinds[names[i]] > kinds[names[j]] })
		parts := make([]string, 0, len(names))
		for _, k := range names {
			parts = append(parts, fmt.Sprintf("%s %.0f%%", k, 100*kinds[k]/kindTotal))
		}
		bw := cur.hist("rlibm_evalslice_batch_width", nil)
		if prev != nil {
			bw = sub(bw, prev.hist("rlibm_evalslice_batch_width", nil))
		}
		fmt.Fprintf(w, "kernel: %s of batches, width p50 %.0f p99 %.0f\n",
			strings.Join(parts, " / "),
			telemetry.HistQuantile(bw, 0.50), telemetry.HistQuantile(bw, 0.99))
	}

	// Oracle: queries decided by tier 0 vs run on the Ziv ladder
	// (cumulative; the ladder share is the meaningful number).
	tier0, _ := cur.value("rlibm_oracle_tier0_decided_total", nil)
	ladder, _ := cur.value("rlibm_oracle_ziv_fallback_total", nil)
	for _, sm := range cur.by["rlibm_oracle_ziv_accepts_total"] {
		ladder += sm.Value
	}
	if tier0+ladder > 0 {
		fmt.Fprintf(w, "oracle: %s tier 0, %s ladder (%.2f%% ladder)\n",
			fmtCount(tier0), fmtCount(ladder), 100*ladder/(tier0+ladder))
	} else {
		fmt.Fprintf(w, "oracle: idle\n")
	}

	// Distributed tracing and the flight recorder: how many frames
	// carried a trace context, and how many anomaly dumps have been
	// written since start (cumulative — a nonzero value is a pointer at
	// flight-*.json files worth reading).
	traced := delta(cur, prev, "rlibmd_traced_frames_total")
	dumps, _ := cur.value("rlibmd_flight_dumps_total", nil)
	fmt.Fprintf(w, "tracing: %s traced frames%s  flight dumps %.0f\n",
		fmtCount(rate(traced)), unit, dumps)
}

// ---------------------------------------------------------------------
// Fleet view.

// epShort compresses a metrics URL back to host:port for column
// headers.
func epShort(u string) string {
	u = strings.TrimPrefix(u, "http://")
	u = strings.TrimPrefix(u, "https://")
	if i := strings.IndexByte(u, '/'); i >= 0 {
		u = u[:i]
	}
	return u
}

// sumAll sums every sample of a metric across its label sets — e.g.
// rlibmd's per-function counters rolled up to an endpoint total.
func sumAll(s *snap, name string) float64 {
	var v float64
	for _, sm := range s.by[name] {
		v += sm.Value
	}
	return v
}

func sumDelta(cur, prev *snap, name string) float64 {
	v := sumAll(cur, name)
	if prev != nil {
		v -= sumAll(prev, name)
	}
	return v
}

// histAll merges every series of a histogram metric bucket-wise.
func histAll(s *snap, name string) map[float64]float64 {
	buckets := make(map[float64]float64)
	for _, sm := range s.by[name+"_bucket"] {
		le, ok := parseLe(sm.Labels["le"])
		if !ok {
			continue
		}
		buckets[le] += sm.Value
	}
	return buckets
}

// epStats is one endpoint's summary-row numbers.
type epStats struct {
	down        bool
	kind, state string
	conns       float64
	req, vals   float64
	busy, errs  float64
	p50, p99    float64
	funcMetric  string // per-function values counter in this endpoint's namespace
}

// fleetStats classifies an endpoint by its metric namespace (rlibmd
// backend vs rlibmproxy front-end) and computes rates over the scrape
// window.
func fleetStats(cur, prev *snap) epStats {
	if cur == nil {
		return epStats{down: true}
	}
	dt := 0.0
	if prev != nil {
		dt = cur.at.Sub(prev.at).Seconds()
	}
	rate := func(v float64) float64 {
		if dt > 0 {
			return v / dt
		}
		return v
	}
	var st epStats
	var lat map[float64]float64
	if len(cur.by["rlibmproxy_draining"]) > 0 {
		st.kind = "proxy"
		st.funcMetric = "rlibmproxy_func_values_total"
		st.conns, _ = cur.value("rlibmproxy_downstream_connections", nil)
		st.req = rate(sumDelta(cur, prev, "rlibmproxy_requests_total"))
		st.vals = rate(sumDelta(cur, prev, "rlibmproxy_values_total"))
		st.busy = rate(sumDelta(cur, prev, "rlibmproxy_busy_client_values_total") +
			sumDelta(cur, prev, "rlibmproxy_busy_global_values_total"))
		st.errs = rate(sumDelta(cur, prev, "rlibmproxy_backend_errors_total") +
			sumDelta(cur, prev, "rlibmproxy_busy_upstream_total"))
		lat = histAll(cur, "rlibmproxy_request_latency_ns")
		if prev != nil {
			lat = sub(lat, histAll(prev, "rlibmproxy_request_latency_ns"))
		}
		if d, _ := cur.value("rlibmproxy_draining", nil); d != 0 {
			st.state = "DRAINING"
		} else {
			st.state = "serving"
		}
	} else {
		st.kind = "rlibmd"
		st.funcMetric = "rlibmd_func_values_total"
		st.conns, _ = cur.value("rlibmd_connections", nil)
		st.req = rate(sumDelta(cur, prev, "rlibmd_requests_total"))
		st.vals = rate(sumDelta(cur, prev, "rlibmd_func_values_total"))
		st.busy = rate(sumDelta(cur, prev, "rlibmd_func_busy_total"))
		st.errs = rate(sumDelta(cur, prev, "rlibmd_error_frames_total"))
		lat = histAll(cur, "rlibmd_request_latency_ns")
		if prev != nil {
			lat = sub(lat, histAll(prev, "rlibmd_request_latency_ns"))
		}
		if d, _ := cur.value("rlibmd_draining", nil); d != 0 {
			st.state = "DRAINING"
		} else {
			st.state = "serving"
		}
	}
	if len(lat) > 0 {
		st.p50 = telemetry.HistQuantile(lat, 0.50)
		st.p99 = telemetry.HistQuantile(lat, 0.99)
	}
	return st
}

func renderFleet(w io.Writer, urls []string, curs, prevs []*snap) {
	now := time.Now()
	for _, s := range curs {
		if s != nil {
			now = s.at
			break
		}
	}
	fmt.Fprintf(w, "rlibm fleet  %d endpoints  %s\n\n", len(urls), now.Format("15:04:05"))

	stats := make([]epStats, len(urls))
	fmt.Fprintf(w, "%-26s %-7s %-9s %6s %9s %10s %9s %9s %8s %7s\n",
		"endpoint", "kind", "state", "conns", "req/s", "vals/s", "p50", "p99", "busy/s", "errs/s")
	for i, u := range urls {
		st := fleetStats(curs[i], prevs[i])
		stats[i] = st
		if st.down {
			fmt.Fprintf(w, "%-26s %-7s %-9s\n", epShort(u), "?", "DOWN")
			continue
		}
		p50, p99 := "-", "-"
		if st.p50 > 0 || st.p99 > 0 {
			p50, p99 = fmtDur(st.p50), fmtDur(st.p99)
		}
		fmt.Fprintf(w, "%-26s %-7s %-9s %6.0f %9s %10s %9s %9s %8s %7s\n",
			epShort(u), st.kind, st.state, st.conns,
			fmtCount(st.req), fmtCount(st.vals), p50, p99,
			fmtCount(st.busy), fmtCount(st.errs))
	}

	// Proxy endpoints: per-backend ring membership and health history.
	for i, u := range urls {
		cur := curs[i]
		if cur == nil || stats[i].kind != "proxy" {
			continue
		}
		var addrs []string
		for _, sm := range cur.by["rlibmproxy_backend_healthy"] {
			addrs = append(addrs, sm.Labels["backend"])
		}
		sort.Strings(addrs)
		if len(addrs) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nbackends via %s:\n", epShort(u))
		prev := prevs[i]
		dt := 0.0
		if prev != nil {
			dt = cur.at.Sub(prev.at).Seconds()
		}
		for _, a := range addrs {
			match := map[string]string{"backend": a}
			healthy, _ := cur.value("rlibmproxy_backend_healthy", match)
			vals, _ := cur.value("rlibmproxy_backend_values_total", match)
			errs, _ := cur.value("rlibmproxy_backend_errors_total", match)
			if prev != nil {
				pv, _ := prev.value("rlibmproxy_backend_values_total", match)
				pe, _ := prev.value("rlibmproxy_backend_errors_total", match)
				vals, errs = vals-pv, errs-pe
			}
			if dt > 0 {
				vals, errs = vals/dt, errs/dt
			}
			ej, _ := cur.value("rlibmproxy_backend_ejections_total", match)
			re, _ := cur.value("rlibmproxy_backend_readmissions_total", match)
			lat := cur.hist("rlibmproxy_backend_latency_ns", match)
			if prev != nil {
				lat = sub(lat, prev.hist("rlibmproxy_backend_latency_ns", match))
			}
			state := "up"
			if healthy == 0 {
				state = "EJECTED"
			}
			p99 := "-"
			if q := telemetry.HistQuantile(lat, 0.99); q > 0 {
				p99 = fmtDur(q)
			}
			fmt.Fprintf(w, "  %-22s %-8s %10s vals/s  p99 %-9s errs/s %-7s ejections %.0f readmissions %.0f\n",
				a, state, fmtCount(vals), p99, fmtCount(errs), ej, re)
		}
	}

	// Per-function values/s matrix, one column per endpoint.
	type cell struct{ vals float64 }
	keys := map[funcKey]bool{}
	for i := range urls {
		if curs[i] == nil {
			continue
		}
		for _, sm := range curs[i].by[stats[i].funcMetric] {
			keys[funcKey{sm.Labels["type"], sm.Labels["func"]}] = true
		}
	}
	if len(keys) == 0 {
		return
	}
	type mrow struct {
		k     funcKey
		cells []cell
		total float64
	}
	var rows []mrow
	for k := range keys {
		r := mrow{k: k, cells: make([]cell, len(urls))}
		match := map[string]string{"type": k.typ, "func": k.fn}
		for i := range urls {
			cur, prev := curs[i], prevs[i]
			if cur == nil {
				continue
			}
			v, _ := cur.value(stats[i].funcMetric, match)
			if prev != nil {
				pv, _ := prev.value(stats[i].funcMetric, match)
				v -= pv
				if dt := cur.at.Sub(prev.at).Seconds(); dt > 0 {
					v /= dt
				}
			}
			r.cells[i].vals = v
			r.total += v
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		ki, kj := rows[i].k, rows[j].k
		if ki.typ != kj.typ {
			return ki.typ < kj.typ
		}
		return ki.fn < kj.fn
	})
	fmt.Fprintf(w, "\n%-8s %-9s", "func", "type")
	for _, u := range urls {
		fmt.Fprintf(w, " %14s", epShort(u))
	}
	fmt.Fprintln(w, "  (vals/s)")
	shown := 0
	for _, r := range rows {
		if shown >= 12 && r.total == 0 {
			continue
		}
		fmt.Fprintf(w, "%-8s %-9s", r.k.fn, r.k.typ)
		for i := range urls {
			if curs[i] == nil {
				fmt.Fprintf(w, " %14s", "-")
				continue
			}
			fmt.Fprintf(w, " %14s", fmtCount(r.cells[i].vals))
		}
		fmt.Fprintln(w)
		shown++
	}
}

func delta(cur, prev *snap, name string) float64 {
	c, _ := cur.value(name, nil)
	if prev == nil {
		return c
	}
	p, _ := prev.value(name, nil)
	return c - p
}

// fmtCount renders a count or rate compactly (1234 -> 1.2K).
func fmtCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fK", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// fmtDur renders nanoseconds human-readably.
func fmtDur(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
