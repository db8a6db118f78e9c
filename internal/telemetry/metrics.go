// Package telemetry is the repo-wide observability substrate: lock-free
// counters, gauges, and power-of-two histograms behind a cheap handle
// API, hierarchical spans recorded into per-worker ring buffers with
// Chrome trace_event export (trace.go), and Prometheus text-format
// exposition (prom.go).
//
// Design rules, in priority order:
//
//  1. Hot paths pay nothing when telemetry is off. Every handle type
//     (*Counter, *Gauge, *Histogram, *Trace, *TraceContext, *Span) is
//     nil-safe: methods on a nil receiver are no-ops that inline to a
//     single predictable branch. Code holds handles unconditionally
//     and never checks an "enabled" flag itself.
//  2. Hot paths pay ~one atomic add when telemetry is on. Handles are
//     resolved once (at construction or Enable time), never per
//     operation; no map lookups, no locks, no allocation on the
//     observe path.
//  3. Everything is stdlib-only. The exposition side (registry walk,
//     Prometheus rendering) takes locks and allocates freely — it runs
//     at scrape time, not on the data path.
//
// A Registry owns metric families keyed by name; each family holds one
// metric per label set. Registration is idempotent: asking for the
// same (name, labels) twice returns the same handle, so independent
// subsystems can share series safely.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero Counter is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero Gauge is ready to
// use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta. No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Set stores the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the number of power-of-two histogram buckets. Bucket
// 0 counts observations of exactly 0; bucket i (i >= 1) counts
// observations in [2^(i-1), 2^i). The top bucket also absorbs
// everything at or above 2^(HistBuckets-2) — with nanosecond
// observations that is ~4.6 minutes, far beyond any latency this
// system reports.
const HistBuckets = 40

// Histogram is a lock-free power-of-two histogram. Observe costs three
// atomic adds and no allocation; quantiles are computed at read time.
// The zero Histogram is ready to use; a nil *Histogram is a no-op.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// bucketOf maps a value to its bucket index: the value's bit length,
// capped. v=0 -> 0, v=1 -> 1, v in [2,4) -> 2, ...
func bucketOf(v uint64) int {
	i := bits.Len64(v)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i (the
// largest integer the bucket counts): 0, 1, 3, 7, 15, ...
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d in nanoseconds (negative durations count
// as 0). No-op on a nil receiver.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.Observe(uint64(ns))
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket
// counts, reporting the *midpoint* of the bucket that contains the
// rank. With power-of-two buckets the true quantile lies in
// [2^(i-1), 2^i), so the midpoint 1.5·2^(i-1) is within −25%/+50% of
// it — versus up to +100% when reporting the bucket's upper edge (the
// bug the old server histogram had). The top (overflow) bucket has no
// midpoint; its lower edge is returned, an underestimate flagged by
// the caller-visible fact that the answer equals 2^(HistBuckets-2).
// Returns 0 on an empty or nil histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := 0; i < HistBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			switch {
			case i == 0:
				return 0
			case i == HistBuckets-1:
				return float64(uint64(1) << uint(i-1)) // overflow bucket: lower edge
			default:
				return 1.5 * float64(uint64(1)<<uint(i-1))
			}
		}
	}
	return float64(uint64(1) << uint(HistBuckets-2))
}

// Bucket returns the count in bucket i (0 on a nil receiver).
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil || i < 0 || i >= HistBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// kind is the metric family type; it drives Prometheus rendering and
// guards against registering the same name with two shapes.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one metric name with its per-label-set children.
type family struct {
	name, help string
	kind       kind
	order      []string       // label strings in registration order
	metrics    map[string]any // label string -> *Counter | *Gauge | *Histogram | func
}

// Registry owns metric families and renders them (prom.go). A nil
// *Registry hands out nil handles, which makes "telemetry off" a
// one-liner: don't build a registry.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string // family names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// labelString renders alternating key/value pairs into the canonical
// Prometheus label form, sorted by key: `{k1="v1",k2="v2"}`. Values
// are escaped per the text-format rules.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	s := "{"
	for i, p := range kvs {
		if i > 0 {
			s += ","
		}
		s += p.k + `="` + escapeLabelValue(p.v) + `"`
	}
	return s + "}"
}

func escapeLabelValue(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// register finds or creates the (name, labels) slot. mk builds the
// metric on first registration. Returns nil when r is nil.
func (r *Registry) register(name, help string, k kind, labels []string, mk func() any) any {
	if r == nil {
		return nil
	}
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, metrics: make(map[string]any)}
		r.fams[name] = f
		r.order = append(r.order, name)
	} else if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %v and %v", name, f.kind, k))
	}
	m, ok := f.metrics[ls]
	if !ok {
		m = mk()
		f.metrics[ls] = m
		f.order = append(f.order, ls)
	}
	return m
}

// Counter returns the counter for (name, labels), creating it on first
// use. labels are alternating key/value pairs. Nil-safe: a nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m := r.register(name, help, kindCounter, labels, func() any { return new(Counter) })
	if m == nil {
		return nil
	}
	return m.(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	m := r.register(name, help, kindGauge, labels, func() any { return new(Gauge) })
	if m == nil {
		return nil
	}
	return m.(*Gauge)
}

// Histogram returns the histogram for (name, labels), creating it on
// first use.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	m := r.register(name, help, kindHistogram, labels, func() any { return new(Histogram) })
	if m == nil {
		return nil
	}
	return m.(*Histogram)
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — the bridge for subsystems that already keep their own
// atomics (e.g. the oracle's Ziv-ladder counters). fn must be safe for concurrent
// calls. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	r.register(name, help, kindCounterFunc, labels, func() any { return fn })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGaugeFunc, labels, func() any { return fn })
}
