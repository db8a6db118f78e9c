// Proxy observability on the shared internal/telemetry registry: the
// fleet's health is a first-class export. Per-backend series (latency,
// errors, ejections, re-admissions, probe outcomes) carry a
// backend="host:port" label so one /metrics scrape shows which replica
// is slow, dead, or flapping; per-function series mirror rlibmd's so
// rlibmtop can render a proxy column next to backend columns.
package proxy

import (
	"net/http"
	"net/http/pprof"

	"rlibm32/internal/telemetry"
)

// backendMetrics is one backend's handle block, resolved once at
// construction so the forwarding path performs no lookups.
type backendMetrics struct {
	Requests     *telemetry.Counter   // frames forwarded to this backend
	Values       *telemetry.Counter   // values across forwarded frames
	Errors       *telemetry.Counter   // transport failures (dial or call)
	Busy         *telemetry.Counter   // BUSY verdicts from this backend
	Ejections    *telemetry.Counter   // healthy→ejected transitions
	Readmissions *telemetry.Counter   // ejected→healthy transitions
	ProbeFails   *telemetry.Counter   // failed health probes
	Probes       *telemetry.Counter   // health probes sent
	Healthy      *telemetry.Gauge     // 1 while in the ring, 0 while ejected
	Lat          *telemetry.Histogram // forward latency ns (issue → response)
	LatSampled   *telemetry.Counter   // observations Lat actually received
}

// keyMetrics is the per-(type, function) downstream handle block.
type keyMetrics struct {
	Requests *telemetry.Counter
	Values   *telemetry.Counter
}

// Metrics aggregates the proxy's instruments on one telemetry
// registry.
type Metrics struct {
	reg *telemetry.Registry

	Conns    *telemetry.Gauge   // open downstream connections
	Accepted *telemetry.Counter // downstream connections accepted
	Requests *telemetry.Counter // downstream eval requests admitted
	Values   *telemetry.Counter // values across admitted requests

	Malformed    *telemetry.Counter // malformed downstream frames
	BusyClient   *telemetry.Counter // values shed by the per-client fair bound
	BusyGlobal   *telemetry.Counter // values shed by the global inflight bound
	BusyUpstream *telemetry.Counter // requests failed upstream after all retries
	Retries      *telemetry.Counter // forward attempts beyond each frame's first
	Failovers    *telemetry.Counter // retries that moved to a different backend
	Unrouted     *telemetry.Counter // frames with no backend available at all

	Draining *telemetry.Gauge     // 1 while a graceful drain is running
	Lat      *telemetry.Histogram // downstream request latency ns (admit → response queued)

	TracedFrames *telemetry.Counter // downstream frames with a nonzero trace id
	LatSampled   *telemetry.Counter // observations Lat actually received
	flightDumps  *telemetry.Counter // flight-recorder anomaly dumps written
}

func newMetrics() *Metrics {
	reg := telemetry.NewRegistry()
	return &Metrics{
		reg: reg,
		Conns: reg.Gauge("rlibmproxy_downstream_connections",
			"currently open downstream client connections"),
		Accepted: reg.Counter("rlibmproxy_downstream_accepted_total",
			"downstream connections accepted since start"),
		Requests: reg.Counter("rlibmproxy_requests_total",
			"downstream eval requests admitted for forwarding"),
		Values: reg.Counter("rlibmproxy_values_total",
			"values across admitted downstream requests"),
		Malformed: reg.Counter("rlibmproxy_malformed_frames_total",
			"malformed downstream frames (connection closed)"),
		BusyClient: reg.Counter("rlibmproxy_busy_client_values_total",
			"values shed with BUSY by the per-client fair admission bound"),
		BusyGlobal: reg.Counter("rlibmproxy_busy_global_values_total",
			"values shed with BUSY by the global inflight bound"),
		BusyUpstream: reg.Counter("rlibmproxy_busy_upstream_total",
			"requests answered BUSY after exhausting upstream retries"),
		Retries: reg.Counter("rlibmproxy_retries_total",
			"forward attempts beyond each frame's first"),
		Failovers: reg.Counter("rlibmproxy_failovers_total",
			"retries that moved a frame to a different backend"),
		Unrouted: reg.Counter("rlibmproxy_unrouted_total",
			"frames that found no backend to attempt"),
		Draining: reg.Gauge("rlibmproxy_draining",
			"1 while a graceful drain is in progress"),
		Lat: reg.Histogram("rlibmproxy_request_latency_ns",
			"downstream request latency, admission to response queued, in nanoseconds"),
		TracedFrames: reg.Counter("rlibmproxy_traced_frames_total",
			"downstream request frames with a nonzero trace id"),
		LatSampled: reg.Counter("rlibmproxy_request_latency_sampled_total",
			"requests the latency histogram observed (traced frames plus the 1-in-16 sample)"),
		flightDumps: reg.Counter("rlibmproxy_flight_dumps_total",
			"flight-recorder anomaly dumps written"),
	}
}

// forBackend builds the labelled handle block for one backend address.
func (m *Metrics) forBackend(addr string) *backendMetrics {
	reg := m.reg
	return &backendMetrics{
		Requests: reg.Counter("rlibmproxy_backend_requests_total",
			"frames forwarded per backend", "backend", addr),
		Values: reg.Counter("rlibmproxy_backend_values_total",
			"values forwarded per backend", "backend", addr),
		Errors: reg.Counter("rlibmproxy_backend_errors_total",
			"transport failures per backend (dial and call)", "backend", addr),
		Busy: reg.Counter("rlibmproxy_backend_busy_total",
			"BUSY verdicts per backend", "backend", addr),
		Ejections: reg.Counter("rlibmproxy_backend_ejections_total",
			"healthy-to-ejected transitions per backend", "backend", addr),
		Readmissions: reg.Counter("rlibmproxy_backend_readmissions_total",
			"ejected-to-healthy transitions per backend", "backend", addr),
		ProbeFails: reg.Counter("rlibmproxy_backend_probe_failures_total",
			"failed health probes per backend", "backend", addr),
		Probes: reg.Counter("rlibmproxy_backend_probes_total",
			"health probes sent per backend", "backend", addr),
		Healthy: reg.Gauge("rlibmproxy_backend_healthy",
			"1 while the backend is in the ring, 0 while ejected", "backend", addr),
		Lat: reg.Histogram("rlibmproxy_backend_latency_ns",
			"forward latency per backend, issue to response, in nanoseconds", "backend", addr),
		LatSampled: reg.Counter("rlibmproxy_backend_latency_sampled_total",
			"forwards the per-backend latency histogram observed (traced plus the 1-in-16 sample)", "backend", addr),
	}
}

// forKey builds the labelled downstream handle block for one
// (type, function) routing key.
func (m *Metrics) forKey(variant, name string) *keyMetrics {
	return &keyMetrics{
		Requests: m.reg.Counter("rlibmproxy_func_requests_total",
			"downstream eval requests per function", "type", variant, "func", name),
		Values: m.reg.Counter("rlibmproxy_func_values_total",
			"downstream values per function", "type", variant, "func", name),
	}
}

// Registry exposes the underlying telemetry registry.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// AdminHandler serves the proxy's observability surface: Prometheus
// text format at /metrics and the standard pprof endpoints.
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
