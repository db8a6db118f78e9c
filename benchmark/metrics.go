package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"rlibm32/posit32/positmath"

	rlibm "rlibm32"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every untraced run prints, on every
// workload. Each workload defines them for its own caller (README.md):
// values_per_s is correctly rounded values delivered per second, and
// lat_p50_us is per operation (a kernel call, a served request, a
// generated function). The p99 latency is printed in the record and as
// a per-layer metric: on a shared two-core host it moves by more than
// any bound a regression gate could use.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_mb", "MiB", "lower"},
	{"values_per_s", "values/s", "higher"},
	{"lat_p50_us", "us", "lower"},
}

// Representations and the per-function kernel metrics follow the
// public registries, so a function added to a library adds its metric.
var reprNames = []string{"float32", "posit32", "bfloat16", "float16", "posit16"}

// perLayer are the metrics every traced run prints, on every workload.
// A layer a workload does not run reports 0: that is the prediction
// "no change here" made visible.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	// Workload-level numbers that some workloads cannot produce or that
	// can read 0.
	add("fail_frac", "ratio", "lower")
	add("lat_p99_us", "us", "lower")
	for _, r := range reprNames {
		add("values_per_s."+r, "values/s", "higher")
	}
	add("max_rate_at_slo", "req/s", "higher")
	add("gen_s", "s", "lower")
	add("verify_inputs_per_s", "inputs/s", "higher")
	// libm: the kernels, against the machine's roofline.
	for _, r := range reprNames {
		add("libm."+r+".ns_per_value", "ns", "lower")
	}
	for _, f := range rlibm.Names() {
		add("libm.float32."+f+".ns_per_value", "ns", "lower")
	}
	for _, f := range positmath.Names() {
		add("libm.posit32."+f+".ns_per_value", "ns", "lower")
	}
	add("machine.stream_ns_per_value", "ns", "lower")
	add("machine.muladd_ns", "ns", "lower")
	// proto: framing replayed over the workload's own frames.
	add("proto.encode_ns_per_frame", "ns", "lower")
	add("proto.decode_ns_per_frame", "ns", "lower")
	add("proto.bytes_per_value", "bytes", "lower")
	// client: v2 spans on traced requests.
	add("client.rpc_p50_us", "us", "lower")
	add("client.flush_p50_us", "us", "lower")
	add("client.rpc_self_p50_us", "us", "lower")
	add("client.rpc_children_p50_us", "us", "lower")
	// server: rlibmd dispatch.
	add("server.queue_p50_us", "us", "lower")
	add("server.coalesce_p50_us", "us", "lower")
	add("server.kernel_p50_us", "us", "lower")
	add("server.values_per_dispatch", "values", "higher")
	add("server.steal_frac", "ratio", "lower")
	add("server.busy_frac", "ratio", "lower")
	// proxy: the fleet hop.
	add("proxy.admit_p50_us", "us", "lower")
	add("proxy.ringwalk_p50_us", "us", "lower")
	add("proxy.forward_p50_us", "us", "lower")
	add("proxy.retry_frac", "ratio", "lower")
	// Generation and verification.
	add("oracle.s", "s", "lower")
	add("oracle.queries", "count", "lower")
	add("oracle.cache_hit_frac", "ratio", "higher")
	add("oracle.ziv_escalations", "count", "lower")
	add("polygen.s", "s", "lower")
	add("polygen.subdomains", "count", "lower")
	add("lp.calls", "count", "lower")
	add("lp.pivots", "count", "lower")
	add("lp.presolve_accept_frac", "ratio", "higher")
	add("gentool.validate_s", "s", "lower")
	add("gentool.outer_rounds", "count", "lower")
	add("exhaust.ns_per_input", "ns", "lower")
	add("exhaust.escalated_frac", "ratio", "lower")
	// Benchmark health.
	add("loadgen.lag_p99_us", "us", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	return out
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	attempted, failed uint64
	values            map[string]float64 // metric name -> value
	samples           map[string]int     // metric name -> samples behind it
	failures          []string           // first few failure descriptions
	invalid           string             // why the run cannot be trusted
	details           []any              // workload-specific detail, e.g. each rate step
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric and the number of samples it summarizes.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail counts one failed operation, keeping the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// metricsFor renders the metrics of defs from r. A metric the run did
// not measure is an error for end-to-end metrics and 0 for per-layer
// ones (the layer did no work in this workload).
func metricsFor(r *report, defs []metricDef, zeroOK bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !zeroOK {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i] + frac*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowQuantile is the 10th percentile over windows of each window's
// q-quantile, and the number of samples behind it. Interference from
// other work on the host only ever adds latency, and on a shared
// machine it comes and goes within a run; the quietest windows show the
// program's own cost, which is what a change to it moves. A window
// needs enough samples to leave ten beyond its q-quantile (at least 10
// for the median); thinner windows, such as a run's cut-short last
// one, are skipped unless no window qualifies.
func windowQuantile(windows [][]float64, q float64) (float64, int) {
	need := int(math.Ceil(10 / math.Min(q, 1-q)))
	var per []float64
	n := 0
	for pass := 0; pass < 2 && len(per) == 0; pass++ {
		for _, w := range windows {
			if len(w) > 0 && (len(w) >= need || pass == 1) {
				per = append(per, quantile(w, q))
				n += len(w)
			}
		}
	}
	return quantile(per, 0.1), n
}

// quietRate is the 90th percentile of a run's per-window rates: the
// throughput counterpart of windowQuantile.
func quietRate(rates []float64) float64 { return quantile(rates, 0.9) }

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint identifies the machine and the kernel paths a record was
// measured on. Two records are comparable only when these agree.
type fingerprint struct {
	Host        string            `json:"host"`
	NumCPU      int               `json:"nproc"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	GOAMD64     string            `json:"goamd64"`
	GoVersion   string            `json:"go_version"`
	GOARCH      string            `json:"goarch"`
	AVX2        bool              `json:"avx2"`
	KernelPath  string            `json:"kernel_path"`
	PathReason  string            `json:"kernel_path_reason"`
	KernelKinds map[string]string `json:"kernel_kinds"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		KernelKinds: map[string]string{},
	}
	fp.Host, _ = os.Hostname() // "" if the name cannot be read
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				fp.GOAMD64 = s.Value
			}
		}
	}
	fp.KernelPath, fp.PathReason = rlibm.KernelPath()
	for _, f := range rlibm.Names() {
		k := rlibm.KernelKind(f)
		fp.KernelKinds[f] = k
		if strings.HasPrefix(k, "simd") {
			fp.AVX2 = true
		}
	}
	return fp
}

// warnings lists why a record from this fingerprint may not be
// comparable with others: a kernel path that fell back from the
// fastest one this host offers, or one forced from the environment.
func (fp fingerprint) warnings() []string {
	var w []string
	if fp.PathReason == "env" {
		w = append(w, "kernel path forced by RLIBM_FMA="+fp.KernelPath)
	}
	if !fp.AVX2 && runtime.GOARCH == "amd64" {
		w = append(w, "no AVX2 kernels: float32 exp/log families run the scalar-Go fallback")
	}
	return w
}

// diff lists the fields in which two fingerprints differ.
func (fp fingerprint) diff(o fingerprint) []string {
	var d []string
	add := func(field string, a, b any) {
		if fmt.Sprint(a) != fmt.Sprint(b) {
			d = append(d, fmt.Sprintf("%s: %v vs %v", field, a, b))
		}
	}
	add("host", fp.Host, o.Host)
	add("nproc", fp.NumCPU, o.NumCPU)
	add("gomaxprocs", fp.GOMAXPROCS, o.GOMAXPROCS)
	add("goamd64", fp.GOAMD64, o.GOAMD64)
	add("go_version", fp.GoVersion, o.GoVersion)
	add("goarch", fp.GOARCH, o.GOARCH)
	add("avx2", fp.AVX2, o.AVX2)
	add("kernel_path", fp.KernelPath, o.KernelPath)
	fs := make([]string, 0, len(fp.KernelKinds))
	for f := range fp.KernelKinds {
		fs = append(fs, f)
	}
	sort.Strings(fs)
	for _, f := range fs {
		add("kernel_kind."+f, fp.KernelKinds[f], o.KernelKinds[f])
	}
	return d
}
