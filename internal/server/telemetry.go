// Server observability on the shared internal/telemetry registry.
//
// This replaces the ad-hoc histogram file the server started with: every counter now lives in a telemetry.Registry, which gives
// the daemon a Prometheus /metrics endpoint, midpoint-interpolated
// percentiles (the old histogram reported the bucket upper bound —
// up to 2x high; the midpoint is within −25%/+50%, documented on
// telemetry.Histogram.Quantile), and one registry that other layers
// (oracle counters, runtime kernels) can export through.
package server

import (
	"net/http"
	"net/http/pprof"
	"sort"

	"rlibm32/internal/telemetry"
)

// funcMetrics is the per-(type, function) handle block, resolved once
// at construction so the request path performs no lookups.
type funcMetrics struct {
	Requests *telemetry.Counter   // eval requests accepted for this key
	Values   *telemetry.Counter   // total values evaluated
	Busy     *telemetry.Counter   // requests shed with StatusBusy
	lat      *telemetry.Histogram // request latency ns (submit → results ready)
}

// Metrics aggregates server-wide and per-function instruments on one
// telemetry registry. The per-key map is built once at construction
// (from the libm registry), so readers never need a lock.
type Metrics struct {
	reg   *telemetry.Registry
	byKey map[batchKey]*funcMetrics

	Conns         *telemetry.Gauge   // currently open connections
	Accepted      *telemetry.Counter // connections accepted since start
	Requests      *telemetry.Counter // eval requests (all keys)
	Malformed     *telemetry.Counter // malformed frames (connection closed)
	ErrFrames     *telemetry.Counter // error responses sent (any non-OK status)
	Batches       *telemetry.Counter // coalesced batches dispatched to kernels
	BatchedValues *telemetry.Counter // values across all dispatched batches
	TracedFrames  *telemetry.Counter // request frames with a nonzero trace id

	batchSize    *telemetry.Histogram // values per coalesced batch
	shedValues   *telemetry.Counter   // values refused by admission control
	shardShed    *telemetry.Counter   // values refused by the per-shard bound
	steals       *telemetry.Counter   // batches drained by a non-home worker
	writevs      *telemetry.Counter   // scatter-gather flushes to client sockets
	writevFrames *telemetry.Counter   // response frames across all flushes
	writevBytes  *telemetry.Counter   // response bytes across all flushes
	draining     *telemetry.Gauge     // 1 while a graceful drain is running
	drains       *telemetry.Counter   // graceful drains completed
	drainNs      *telemetry.Gauge     // duration of the last completed drain
	flightDumps  *telemetry.Counter   // flight-recorder anomaly dumps written
}

func newMetrics(keys []batchKey) *Metrics {
	reg := telemetry.NewRegistry()
	m := &Metrics{
		reg:   reg,
		byKey: make(map[batchKey]*funcMetrics, len(keys)),
		Conns: reg.Gauge("rlibmd_connections",
			"currently open client connections"),
		Accepted: reg.Counter("rlibmd_connections_accepted_total",
			"connections accepted since start"),
		Requests: reg.Counter("rlibmd_requests_total",
			"eval requests across all functions"),
		Malformed: reg.Counter("rlibmd_malformed_frames_total",
			"malformed frames (connection closed)"),
		ErrFrames: reg.Counter("rlibmd_error_frames_total",
			"error responses sent (any non-OK status)"),
		Batches: reg.Counter("rlibmd_batches_total",
			"coalesced batches dispatched to the kernels"),
		BatchedValues: reg.Counter("rlibmd_batched_values_total",
			"values across all dispatched batches"),
		TracedFrames: reg.Counter("rlibmd_traced_frames_total",
			"request frames with a nonzero trace id"),
		batchSize: reg.Histogram("rlibmd_batch_size",
			"values per coalesced kernel batch (power-of-two buckets)"),
		shedValues: reg.Counter("rlibmd_shed_values_total",
			"values refused by admission control (BUSY)"),
		shardShed: reg.Counter("rlibmd_shard_shed_values_total",
			"values refused by the per-shard inflight bound (subset of shed)"),
		steals: reg.Counter("rlibmd_steals_total",
			"coalesced batches drained by a worker outside their home shard"),
		writevs: reg.Counter("rlibmd_writev_total",
			"scatter-gather flushes to client sockets"),
		writevFrames: reg.Counter("rlibmd_writev_frames_total",
			"response frames across all scatter-gather flushes"),
		writevBytes: reg.Counter("rlibmd_writev_bytes_total",
			"response bytes across all scatter-gather flushes"),
		draining: reg.Gauge("rlibmd_draining",
			"1 while a graceful drain is in progress"),
		drains: reg.Counter("rlibmd_drains_total",
			"graceful drains completed"),
		drainNs: reg.Gauge("rlibmd_drain_duration_ns",
			"duration of the last completed graceful drain"),
		flightDumps: reg.Counter("rlibmd_flight_dumps_total",
			"flight-recorder anomaly dumps written"),
	}
	for _, k := range keys {
		typ, name := TypeVariant(k.typ), k.name
		m.byKey[k] = &funcMetrics{
			Requests: reg.Counter("rlibmd_func_requests_total",
				"eval requests per function", "type", typ, "func", name),
			Values: reg.Counter("rlibmd_func_values_total",
				"values evaluated per function", "type", typ, "func", name),
			Busy: reg.Counter("rlibmd_func_busy_total",
				"requests shed with BUSY per function", "type", typ, "func", name),
			lat: reg.Histogram("rlibmd_request_latency_ns",
				"request latency, submit to results ready, in nanoseconds",
				"type", typ, "func", name),
		}
	}
	return m
}

// Registry exposes the underlying telemetry registry so the daemon can
// attach more exporters (oracle counters, runtime kernel counters)
// to the same /metrics page.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// forKey returns the handle block for a dispatch key (nil for keys
// outside the registry — callers count those under ErrFrames only).
func (m *Metrics) forKey(k batchKey) *funcMetrics { return m.byKey[k] }

// Snapshot renders every counter as a plain map, for in-process
// readers such as the benchmark harness. Percentiles are computed from the histograms at read time
// using midpoint interpolation (error bound on Histogram.Quantile).
func (m *Metrics) Snapshot() map[string]any {
	perFunc := make(map[string]any, len(m.byKey))
	keys := make([]batchKey, 0, len(m.byKey))
	for k := range m.byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].typ != keys[j].typ {
			return keys[i].typ < keys[j].typ
		}
		return keys[i].name < keys[j].name
	})
	for _, k := range keys {
		fm := m.byKey[k]
		if fm.Requests.Load() == 0 && fm.Busy.Load() == 0 {
			continue
		}
		entry := map[string]any{
			"requests": fm.Requests.Load(),
			"values":   fm.Values.Load(),
			"busy":     fm.Busy.Load(),
			"p50_ns":   uint64(fm.lat.Quantile(0.50)),
			"p99_ns":   uint64(fm.lat.Quantile(0.99)),
		}
		if n := fm.lat.Count(); n > 0 {
			entry["mean_ns"] = fm.lat.Sum() / n
		}
		perFunc[TypeVariant(k.typ)+"/"+k.name] = entry
	}
	out := map[string]any{
		"conns":          m.Conns.Load(),
		"accepted":       m.Accepted.Load(),
		"requests":       m.Requests.Load(),
		"malformed":      m.Malformed.Load(),
		"error_frames":   m.ErrFrames.Load(),
		"batches":        m.Batches.Load(),
		"batched_values": m.BatchedValues.Load(),
		"shed_values":    m.shedValues.Load(),
		"traced_frames":  m.TracedFrames.Load(),
		"flight_dumps":   m.flightDumps.Load(),
		"steals":         m.steals.Load(),
		"writevs":        m.writevs.Load(),
		"writev_frames":  m.writevFrames.Load(),
		"func":           perFunc,
	}
	if b := m.Batches.Load(); b > 0 {
		out["values_per_batch"] = float64(m.BatchedValues.Load()) / float64(b)
	}
	return out
}

// AdminHandler serves the observability surface: Prometheus text
// format at /metrics (this server's registry) and the standard
// /debug/pprof endpoints.
func (m *Metrics) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
