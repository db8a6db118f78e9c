package proxy

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rlibm32/internal/libm"
	"rlibm32/internal/server"
	"rlibm32/internal/telemetry"
)

// Config tunes one Proxy. Zero values take the defaults noted on each
// field; Backends is required (1..64 addresses).
type Config struct {
	// Addr is the TCP listen address for ListenAndServe
	// (default "127.0.0.1:7050").
	Addr string
	// Backends lists the rlibmd replicas (host:port). The consistent-
	// hash ring is built once from this set; health probing masks
	// members in and out at runtime.
	Backends []string
	// VNodes is the virtual nodes per backend on the ring (default 64).
	VNodes int
	// ConnsPerBackend sizes each backend's pipelined connection pool
	// (default 2).
	ConnsPerBackend int
	// Retries bounds forward attempts beyond each frame's first; a
	// retry goes to the next distinct ring replica (default: one
	// attempt per backend). Safe because evaluation is idempotent.
	Retries int
	// MaxFrame bounds a downstream frame's payload
	// (default server.DefaultMaxFrame).
	MaxFrame int
	// MaxInflight bounds the values admitted but not yet answered
	// across all downstream connections (default 1 << 21).
	MaxInflight int64
	// ClientInflight bounds the admitted values per downstream
	// connection — the fair-admission extension of rlibmd's
	// value-counted BUSY shedding: one hot client sheds against its own
	// bound before it can exhaust the global one (default
	// MaxInflight/4).
	ClientInflight int64
	// ClientRequests bounds the requests in flight per downstream
	// connection; beyond it the reader applies TCP backpressure
	// (default 256).
	ClientRequests int
	// DialTimeout is the data-path dial timeout and per-flush I/O
	// deadline for backend connections (default 2 s).
	DialTimeout time.Duration
	// ProbeInterval spaces active health probes per backend
	// (default 250 ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe's dial + round trip (default 1 s).
	ProbeTimeout time.Duration
	// FailAfter ejects a backend after this many consecutive probe
	// failures (default 3).
	FailAfter int
	// OkAfter re-admits an ejected backend after this many consecutive
	// probe successes — the hysteresis gate (default 2).
	OkAfter int
	// PassiveFailAfter ejects a backend after this many consecutive
	// data-path transport errors, without waiting for probes
	// (default 8).
	PassiveFailAfter int
	// ReadTimeout is the downstream per-frame read deadline
	// (default 2 min).
	ReadTimeout time.Duration
	// WriteTimeout is the downstream flush deadline (default 30 s).
	WriteTimeout time.Duration
	// Logf receives operational events (ejections, re-admissions);
	// defaults to log.Printf.
	Logf func(format string, args ...any)
	// FlightEvents sizes the always-on flight-recorder ring (default
	// 4096 wide events).
	FlightEvents int
	// FlightDir is where anomaly triggers dump the flight ring as JSON
	// ("" keeps the recorder in-memory only — /debug/flight still
	// serves it).
	FlightDir string
	// BusyDumpFrac is the shed fraction that fires a "busy-fraction"
	// flight dump, judged over sliding ~1s windows of admission
	// verdicts (default 0.5; negative disables the trigger).
	BusyDumpFrac float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = "127.0.0.1:7050"
	}
	if out.VNodes <= 0 {
		out.VNodes = defaultVNodes
	}
	if out.ConnsPerBackend <= 0 {
		out.ConnsPerBackend = 2
	}
	if out.Retries <= 0 {
		out.Retries = len(out.Backends) - 1
	}
	if out.MaxFrame <= 0 {
		out.MaxFrame = server.DefaultMaxFrame
	}
	if out.MaxInflight <= 0 {
		out.MaxInflight = 1 << 21
	}
	if out.ClientInflight <= 0 {
		out.ClientInflight = out.MaxInflight / 4
	}
	if out.ClientRequests <= 0 {
		out.ClientRequests = 256
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 2 * time.Second
	}
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = 250 * time.Millisecond
	}
	if out.ProbeTimeout <= 0 {
		out.ProbeTimeout = time.Second
	}
	if out.FailAfter <= 0 {
		out.FailAfter = 3
	}
	if out.OkAfter <= 0 {
		out.OkAfter = 2
	}
	if out.PassiveFailAfter <= 0 {
		out.PassiveFailAfter = 8
	}
	if out.ReadTimeout <= 0 {
		out.ReadTimeout = 2 * time.Minute
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 30 * time.Second
	}
	if out.Logf == nil {
		out.Logf = log.Printf
	}
	if out.FlightEvents <= 0 {
		out.FlightEvents = 4096
	}
	if out.BusyDumpFrac == 0 {
		out.BusyDumpFrac = 0.5
	}
	return out
}

// routeKey is one (type, function) routing entry, resolved per frame
// with an allocation-free map lookup: the interned name for upstream
// re-framing, the ring hash, and the pre-resolved metric handles.
type routeKey struct {
	typ   uint8
	name  string
	width int
	hash  uint64
	km    *keyMetrics
}

// Proxy is the routing tier: it accepts downstream connections,
// validates and routes each frame by (function, type) over the
// consistent-hash ring, forwards through per-backend pipelined client
// pools, and writes responses back under the downstream caller's
// request ids — surviving backend deaths with bounded retry-failover
// and probe-driven ring membership.
type Proxy struct {
	cfg         Config
	m           *Metrics
	flight      *telemetry.FlightRecorder
	busyW       *telemetry.BusyWatch
	backends    []*backend
	ring        *ring
	byType      [8]map[string]*routeKey
	maxAttempts int
	inflight    atomic.Int64

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	connWG   sync.WaitGroup

	probeStop chan struct{}
	probeWG   sync.WaitGroup
}

// New builds a Proxy (it does not listen or probe yet). The routing
// table is derived from the libm implementation registry — the proxy
// validates (function, type) locally and answers UNKNOWN_FUNC without
// burning a backend round trip, which is sound because every fleet
// member serves the same generated registry.
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("proxy: no backends configured")
	}
	if len(cfg.Backends) > 64 {
		return nil, fmt.Errorf("proxy: %d backends exceeds the 64-backend ring limit", len(cfg.Backends))
	}
	p := &Proxy{
		cfg:       cfg,
		m:         newMetrics(),
		flight:    telemetry.NewFlightRecorder("rlibmproxy", cfg.FlightEvents),
		ring:      buildRing(cfg.Backends, cfg.VNodes),
		conns:     make(map[net.Conn]struct{}),
		probeStop: make(chan struct{}),
	}
	p.flight.SetDump(cfg.FlightDir, 0, func(reason, path string, err error) {
		p.m.flightDumps.Inc()
	})
	if cfg.BusyDumpFrac > 0 {
		p.busyW = telemetry.NewBusyWatch(cfg.BusyDumpFrac, 1024, time.Second)
	}
	p.maxAttempts = min(len(cfg.Backends), cfg.Retries+1)
	for i, addr := range cfg.Backends {
		bk := &backend{
			addr: addr,
			idx:  i,
			pool: newClientPool(addr, cfg.ConnsPerBackend, cfg.DialTimeout),
			m:    p.m.forBackend(addr),
		}
		bk.healthy.Store(true) // optimistic: probes and the data path demote
		bk.m.Healthy.Set(1)
		p.backends = append(p.backends, bk)
	}
	for _, e := range libm.Registry() {
		code, ok := server.TypeCode(e.Variant)
		if !ok {
			continue
		}
		if p.byType[code] == nil {
			p.byType[code] = make(map[string]*routeKey)
		}
		p.byType[code][e.Name] = &routeKey{
			typ:   code,
			name:  e.Name,
			width: server.TypeWidth(code),
			hash:  hashKey(code, e.Name),
			km:    p.m.forKey(e.Variant, e.Name),
		}
	}
	return p, nil
}

// Metrics exposes the proxy's counters (for the admin listener and
// tests).
func (p *Proxy) Metrics() *Metrics { return p.m }

// Flight exposes the proxy's always-on flight recorder (for the admin
// listener, signal handlers, and tests).
func (p *Proxy) Flight() *telemetry.FlightRecorder { return p.flight }

// AdminHandler serves the full admin surface: everything
// Metrics.AdminHandler provides (/metrics, /debug/pprof/*) plus the
// flight recorder at /debug/flight and /debug/flight/trigger.
func (p *Proxy) AdminHandler() http.Handler {
	return p.flight.AdminHandler(p.m.AdminHandler())
}

func (p *Proxy) logf(format string, args ...any) { p.cfg.Logf(format, args...) }

// lookup resolves a wire (type, name) to its routing entry without
// allocating. nil means the function is not in the registry.
func (p *Proxy) lookup(typ uint8, name []byte) *routeKey {
	if int(typ) >= len(p.byType) || p.byType[typ] == nil {
		return nil
	}
	return p.byType[typ][string(name)]
}

// pick returns the next forwarding target for a key: the first healthy
// untried backend in ring-replica order, else — last resort, when
// every untried replica is ejected — the first untried backend of any
// health, so a fleet-wide brownout still attempts delivery instead of
// shedding instantly. nil means every backend has been tried.
func (p *Proxy) pick(h uint64, tried uint64) *backend {
	var out, fallback *backend
	p.ring.walk(h, func(idx int) bool {
		if tried&(1<<uint(idx)) != 0 {
			return true
		}
		bk := p.backends[idx]
		if bk.healthy.Load() {
			out = bk
			return false
		}
		if fallback == nil {
			fallback = bk
		}
		return true
	})
	if out != nil {
		return out
	}
	return fallback
}

// Addr returns the bound listen address ("" before Serve).
func (p *Proxy) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown.
func (p *Proxy) ListenAndServe() error {
	ln, err := net.Listen("tcp", p.cfg.Addr)
	if err != nil {
		return err
	}
	return p.Serve(ln)
}

// Serve accepts downstream connections on ln until Shutdown closes it.
// The health probers start with the first Serve call. Serve racing
// Shutdown either sees draining and refuses, or registers ln under the
// same mutex Shutdown closes it under (see server.Serve).
func (p *Proxy) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.draining.Load() {
		p.mu.Unlock()
		ln.Close()
		return server.ErrServerClosed
	}
	p.ln = ln
	p.mu.Unlock()
	for _, bk := range p.backends {
		p.probeWG.Add(1)
		go p.probe(bk)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if p.draining.Load() {
				return server.ErrServerClosed
			}
			return err
		}
		p.m.Accepted.Inc()
		p.mu.Lock()
		if p.draining.Load() {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.connWG.Add(1)
		go p.handleConn(conn)
	}
}

// Shutdown gracefully drains the proxy: stop accepting, wake blocked
// downstream readers, let in-flight forwards complete and their
// responses flush, then stop the probers and close the backend pools.
// ctx expiry hard-closes the remaining downstream connections.
func (p *Proxy) Shutdown(ctx context.Context) error {
	p.flight.Record(&telemetry.WideEvent{Kind: telemetry.EvDrain})
	p.m.Draining.Set(1)
	p.draining.Store(true)
	p.mu.Lock()
	if p.ln != nil {
		p.ln.Close()
	}
	now := time.Now()
	for c := range p.conns {
		c.SetReadDeadline(now)
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		<-done
		err = fmt.Errorf("proxy: drain interrupted: %w", ctx.Err())
	}
	close(p.probeStop)
	p.probeWG.Wait()
	for _, bk := range p.backends {
		bk.pool.close()
	}
	return err
}

// ---------------------------------------------------------------------
// Downstream connection handling.

// pslot is one downstream frame's journey through the proxy: decoded
// input bits, the reused result buffer the backend client decodes
// into, and the retry walk state. Slots are a fixed per-connection
// table (ClientRequests entries), recycled through a free-list
// channel, so the steady-state forward path allocates only the
// client's per-call future.
type pslot struct {
	id       uint32
	typ      uint8
	rk       *routeKey
	n        int
	src, dst []uint32
	attempts int
	tried    uint64 // bitmask of backend idx already attempted
	bk       *backend
	start    time.Time // admission (downstream latency); always set when traced
	issued   time.Time // last forward attempt (per-backend latency)

	// Trace relay state (traceID 0 = untraced). A traced slot
	// accumulates the proxy's own span events plus whatever spans each
	// backend attempt returned, and the final downstream response
	// carries them all. The spans slice is reused across the slot's
	// lifetimes, so steady-state tracing does not allocate either.
	traceID    uint64
	traceFlags uint64
	spans      []telemetry.SpanRecord
}

// localResp is a response the proxy answers without any upstream call:
// pings, admission sheds, unknown functions, malformed verdicts. It
// echoes the request's trace block, so a shed still stitches into the
// caller's trace.
type localResp struct {
	id      uint32
	typ     uint8
	status  uint8
	traceID uint64
	flags   uint64
}

// localFor answers request pr locally with status.
func localFor(pr *server.ParsedRequest, status uint8) localResp {
	return localResp{id: pr.ID, typ: pr.Type, status: status, traceID: pr.TraceID, flags: pr.TraceFlags}
}

// pconn is one downstream connection: a reader goroutine that
// validates, admits and issues frames upstream, and a writer goroutine
// that consumes upstream completions (out of order, from every
// backend) plus local verdicts, retries failures, and frames responses
// back under downstream ids.
type pconn struct {
	p    *Proxy
	conn net.Conn
	hint uint32 // connection ordinal for flight-recorder events

	slots       []pslot
	freeIdx     chan int          // slot free list; doubles as the request-count bound
	done        chan *server.Call // upstream completions (cap == len(slots), never drops)
	locals      chan localResp    // reader-generated local responses
	connVals    atomic.Int64      // per-client fair-admission bound (values)
	outstanding atomic.Int64      // slots issued and not yet finished

	readerDone chan struct{}

	// Writer-goroutine state.
	bw     *bufio.Writer
	buf    []byte
	resp   server.Response
	failed bool
}

func (p *Proxy) handleConn(conn net.Conn) {
	defer p.connWG.Done()
	p.m.Conns.Add(1)
	defer p.m.Conns.Add(-1)
	defer func() {
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
		conn.Close()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	pc := &pconn{
		p:          p,
		conn:       conn,
		hint:       uint32(p.m.Accepted.Load()),
		slots:      make([]pslot, p.cfg.ClientRequests),
		freeIdx:    make(chan int, p.cfg.ClientRequests),
		done:       make(chan *server.Call, p.cfg.ClientRequests),
		locals:     make(chan localResp, 64),
		readerDone: make(chan struct{}),
		bw:         bufio.NewWriterSize(conn, 64<<10),
	}
	for i := range pc.slots {
		pc.freeIdx <- i
	}
	writerDone := make(chan struct{})
	go func() {
		pc.writeLoop()
		close(writerDone)
	}()
	pc.readLoop()
	close(pc.readerDone)
	<-writerDone
}

// readLoop validates and admits downstream frames. Admission is
// value-counted at two levels — the global bound, then the
// per-client fair bound — and sheds with BUSY exactly like rlibmd;
// the slot free-list additionally bounds requests in flight per
// client with TCP backpressure.
func (pc *pconn) readLoop() {
	p := pc.p
	sc := server.NewFrameScanner(pc.conn, p.cfg.MaxFrame)
	nframes := 0
	for {
		// Re-arming the read deadline costs a timer syscall; at
		// millions of frames/s that dominates. Arm it every 64 frames
		// instead — the effective timeout is ReadTimeout plus however
		// long 64 frames take, which under any load is noise.
		if nframes&63 == 0 {
			pc.conn.SetReadDeadline(time.Now().Add(p.cfg.ReadTimeout))
		}
		nframes++
		if p.draining.Load() {
			return
		}
		frame, err := sc.Next()
		if err != nil {
			if errors.Is(err, server.ErrFrameSize) {
				p.m.Malformed.Inc()
				p.flight.Record(&telemetry.WideEvent{Kind: telemetry.EvMalformed, Conn: pc.hint, Note: "frame-too-large"})
				pc.locals <- localResp{status: server.StatusTooLarge}
			} else if errors.Is(err, server.ErrBadFrame) {
				p.m.Malformed.Inc()
				p.flight.Record(&telemetry.WideEvent{Kind: telemetry.EvMalformed, Conn: pc.hint, Note: "bad-frame"})
				pc.locals <- localResp{status: server.StatusMalformed}
			}
			return
		}
		pr, err := server.ParseRequest(frame)
		if err != nil {
			p.m.Malformed.Inc()
			p.flight.Record(&telemetry.WideEvent{Kind: telemetry.EvMalformed, ID: pr.ID, Conn: pc.hint, Note: "bad-header"})
			pc.locals <- localResp{id: pr.ID, status: server.StatusMalformed}
			return
		}
		if pr.TraceID != 0 {
			p.m.TracedFrames.Inc()
		}
		if pr.Op == server.OpPing {
			if p.draining.Load() {
				pc.locals <- localFor(&pr, server.StatusShutdown)
				return
			}
			pc.locals <- localFor(&pr, server.StatusOK)
			continue
		}
		rk := p.lookup(pr.Type, pr.Name)
		if rk == nil {
			p.flight.Record(&telemetry.WideEvent{
				Kind: telemetry.EvFrame, Op: pr.Op, Type: pr.Type, Status: server.StatusUnknownFunc,
				ID: pr.ID, Count: uint32(pr.Count), Conn: pc.hint, TraceID: pr.TraceID, Note: "unknown-func",
			})
			pc.locals <- localFor(&pr, server.StatusUnknownFunc)
			continue
		}
		if p.draining.Load() {
			pc.locals <- localFor(&pr, server.StatusShutdown)
			return
		}
		if pr.Count == 0 {
			rk.km.Requests.Inc()
			pc.locals <- localFor(&pr, server.StatusOK)
			continue
		}
		// A traced frame reads the clock at admission entry so the
		// admit span covers the shed checks and slot wait below;
		// untraced frames keep the hot path clock-free.
		var tRecv time.Time
		if pr.TraceID != 0 {
			tRecv = time.Now()
		}
		n := int64(pr.Count)
		if p.inflight.Add(n) > p.cfg.MaxInflight {
			p.inflight.Add(-n)
			p.m.BusyGlobal.Add(uint64(n))
			pc.shed(&pr, rk, "global-inflight")
			continue
		}
		if pc.connVals.Add(n) > p.cfg.ClientInflight {
			pc.connVals.Add(-n)
			p.inflight.Add(-n)
			p.m.BusyClient.Add(uint64(n))
			pc.shed(&pr, rk, "client-inflight")
			continue
		}
		p.busyW.ObserveOK()
		si := <-pc.freeIdx // blocks at ClientRequests in flight: TCP backpressure
		sl := &pc.slots[si]
		sl.id, sl.typ, sl.rk, sl.n = pr.ID, pr.Type, rk, pr.Count
		if cap(sl.src) < pr.Count {
			sl.src = make([]uint32, pr.Count)
		}
		sl.src = sl.src[:pr.Count]
		if cap(sl.dst) < pr.Count {
			sl.dst = make([]uint32, pr.Count)
		}
		sl.dst = sl.dst[:pr.Count]
		server.DecodeValuesInto(sl.src, pr.Payload, rk.width)
		sl.attempts, sl.tried, sl.bk = 0, 0, nil
		sl.traceID, sl.traceFlags = pr.TraceID, pr.TraceFlags
		sl.spans = sl.spans[:0]
		// Latency histograms are sampled 1-in-16: two clock reads per
		// request (admission and issue) cost more than the rest of the
		// proxy's per-request bookkeeping combined, and quantiles from
		// a 1/16 sample are statistically indistinguishable at serving
		// rates. A zero start marks an unsampled slot. Traced frames
		// are always sampled — a trace with no proxy latency would be
		// useless — and the *_sampled_total counters record how many
		// observations each histogram actually received.
		switch {
		case pr.TraceID != 0:
			now := time.Now()
			sl.start = tRecv
			sl.spans = append(sl.spans, telemetry.SpanRecord{
				Start: tRecv.UnixNano(), Dur: now.Sub(tRecv).Nanoseconds(),
				Proc: telemetry.ProcProxy, Stage: telemetry.StageAdmit,
			})
		case nframes&15 == 0:
			sl.start = time.Now()
		default:
			sl.start = time.Time{}
		}
		p.m.Requests.Inc()
		p.m.Values.Add(uint64(pr.Count))
		rk.km.Requests.Inc()
		rk.km.Values.Add(uint64(pr.Count))
		p.flight.Record(&telemetry.WideEvent{
			Kind: telemetry.EvFrame, Op: pr.Op, Type: pr.Type,
			ID: pr.ID, Count: uint32(pr.Count), Conn: pc.hint, TraceID: pr.TraceID, Name: rk.name,
		})
		pc.outstanding.Add(1)
		if !pc.tryIssue(si, sl) {
			// No backend reachable at all: shed. The slot was never
			// issued, so finish it from here via the local channel is
			// not possible (the writer owns framing) — hand the writer
			// a completed verdict through done? Simpler: mark and
			// deliver through locals after releasing the slot.
			p.m.Unrouted.Inc()
			p.m.BusyUpstream.Inc()
			p.flight.Record(&telemetry.WideEvent{
				Kind: telemetry.EvShed, Op: server.OpEval, Type: pr.Type, Status: server.StatusBusy,
				ID: pr.ID, Count: uint32(pr.Count), Conn: pc.hint, TraceID: pr.TraceID,
				Name: rk.name, Note: "unrouted",
			})
			pc.releaseSlot(si, sl)
			pc.locals <- localFor(&pr, server.StatusBusy)
		}
	}
}

// shed answers an admission-refused frame BUSY without burning a slot,
// records the wide event and feeds the BUSY-fraction anomaly trigger:
// when sheds dominate admissions over a ~1s window the flight recorder
// dumps itself, capturing the traffic that led into the overload.
func (pc *pconn) shed(pr *server.ParsedRequest, rk *routeKey, note string) {
	p := pc.p
	p.flight.Record(&telemetry.WideEvent{
		Kind: telemetry.EvShed, Op: server.OpEval, Type: pr.Type, Status: server.StatusBusy,
		ID: pr.ID, Count: uint32(pr.Count), Conn: pc.hint, TraceID: pr.TraceID,
		Name: rk.name, Note: note,
	})
	if p.busyW.ObserveShed() {
		p.flight.TriggerDump("busy-fraction")
	}
	pc.locals <- localFor(pr, server.StatusBusy)
}

// tryIssue forwards a slot to the next ring replica, walking until a
// backend accepts the frame onto a pipeline or the attempt budget is
// spent. Returns false with the slot untouched-by-upstream when no
// backend could accept (the caller sheds).
func (pc *pconn) tryIssue(si int, sl *pslot) bool {
	p := pc.p
	var tWalk time.Time
	if sl.traceID != 0 {
		tWalk = time.Now()
	}
	for sl.attempts < p.maxAttempts {
		bk := p.pick(sl.rk.hash, sl.tried)
		if bk == nil {
			return false
		}
		sl.tried |= 1 << uint(bk.idx)
		if sl.attempts > 0 {
			p.m.Retries.Inc()
			kind := telemetry.EvRetry
			if bk != sl.bk {
				p.m.Failovers.Inc()
				kind = telemetry.EvFailover
			}
			p.flight.Record(&telemetry.WideEvent{
				Kind: kind, Op: server.OpEval, Type: sl.typ, ID: sl.id,
				Count: uint32(sl.n), Conn: pc.hint, TraceID: sl.traceID,
				Name: sl.rk.name, Note: bk.addr,
			})
		}
		sl.attempts++
		sl.bk = bk
		cl, err := bk.pool.get()
		if err != nil {
			bk.reportFailure(p)
			continue
		}
		bk.m.Requests.Inc()
		bk.m.Values.Add(uint64(sl.n))
		switch {
		case sl.traceID != 0:
			// The ring-walk span absorbs backend picking plus any pool
			// dial the forward needed; its end is the issue timestamp.
			now := time.Now()
			sl.spans = append(sl.spans, telemetry.SpanRecord{
				Start: tWalk.UnixNano(), Dur: now.Sub(tWalk).Nanoseconds(),
				Proc: telemetry.ProcProxy, Stage: telemetry.StageRingWalk,
			})
			sl.issued = now
		case !sl.start.IsZero():
			sl.issued = time.Now()
		default:
			sl.issued = time.Time{}
		}
		cl.GoTraced(sl.typ, sl.rk.name, sl.dst, sl.src, pc.done, uint64(si), sl.traceID, sl.traceFlags)
		return true
	}
	return false
}

// releaseSlot returns a slot's admission tokens and free-list entry.
func (pc *pconn) releaseSlot(si int, sl *pslot) {
	n := int64(sl.n)
	pc.connVals.Add(-n)
	pc.p.inflight.Add(-n)
	sl.rk, sl.bk = nil, nil
	pc.outstanding.Add(-1)
	pc.freeIdx <- si
}

// writeLoop is the downstream writer: it consumes upstream completions
// and local verdicts, drives retries, frames responses under the
// downstream caller's ids, and flushes in bursts (everything available
// now shares one flush). After the reader exits it drains until every
// issued slot has finished, so in-flight work survives downstream
// half-closes and proxy drains.
func (pc *pconn) writeLoop() {
	draining := false
	for {
		var call *server.Call
		var l localResp
		isLocal := false
		if draining {
			if pc.outstanding.Load() == 0 && len(pc.locals) == 0 {
				pc.flush()
				return
			}
			select {
			case call = <-pc.done:
			case l = <-pc.locals:
				isLocal = true
			}
		} else {
			select {
			case call = <-pc.done:
			case l = <-pc.locals:
				isLocal = true
			case <-pc.readerDone:
				draining = true
				continue
			}
		}
		// One write deadline covers the whole burst (every buffered
		// write below plus the trailing flush): arming per response
		// costs a timer syscall each, and a burst lasts microseconds
		// against a WriteTimeout of seconds.
		pc.armWriteDeadline()
		for {
			if isLocal {
				pc.writeResp(l.id, l.typ, l.status, nil, l.traceID, l.flags, nil)
			} else {
				pc.handleCall(call)
			}
			isLocal = false
			select {
			case call = <-pc.done:
				continue
			case l = <-pc.locals:
				isLocal = true
				continue
			default:
			}
			break
		}
		pc.flush()
	}
}

// handleCall settles one upstream completion: retry-with-failover on
// transport failures and overload verdicts (safe — evaluation is
// idempotent), eject-triggering error accounting, and response framing
// on the final verdict. Exhausted retries surface as BUSY: the request
// was never half-applied (purity), so "try again later" is the exact
// truth.
func (pc *pconn) handleCall(call *server.Call) {
	p := pc.p
	si := int(call.Tag)
	sl := &pc.slots[si]
	bk := sl.bk
	if sl.traceID != 0 {
		pc.noteForward(sl, call)
	}
	if call.Err != nil {
		bk.reportFailure(p)
		if pc.tryIssue(si, sl) {
			return
		}
		p.m.BusyUpstream.Inc()
		pc.finish(si, sl, server.StatusBusy, nil)
		return
	}
	bk.reportSuccess()
	if !sl.issued.IsZero() {
		bk.m.Lat.ObserveDuration(time.Since(sl.issued))
		bk.m.LatSampled.Inc()
	}
	switch call.Status {
	case server.StatusOK:
		pc.finish(si, sl, server.StatusOK, call.Dst)
	case server.StatusBusy, server.StatusShutdown:
		bk.m.Busy.Inc()
		if call.Status == server.StatusShutdown {
			// The backend announced a drain; pull it proactively
			// rather than waiting for probes to notice.
			p.eject(bk, "announced shutdown")
		}
		if pc.tryIssue(si, sl) {
			return
		}
		p.m.BusyUpstream.Inc()
		pc.finish(si, sl, server.StatusBusy, nil)
	default:
		// Deterministic verdicts (unknown function/type): every
		// replica would answer identically; forward verbatim.
		pc.finish(si, sl, call.Status, nil)
	}
}

// noteForward closes the span for the forward attempt that just
// settled (the first attempt is a "forward", later ones "retry") and
// splices in whatever spans the backend's response carried, so the
// downstream caller receives queue/coalesce/kernel detail from every
// backend the frame visited.
func (pc *pconn) noteForward(sl *pslot, call *server.Call) {
	stage := telemetry.StageForward
	if sl.attempts > 1 {
		stage = telemetry.StageRetry
	}
	sl.spans = append(sl.spans, telemetry.SpanRecord{
		Start: sl.issued.UnixNano(), Dur: time.Since(sl.issued).Nanoseconds(),
		Proc: telemetry.ProcProxy, Stage: stage,
	})
	sl.spans = append(sl.spans, call.Spans...)
}

// finish frames a slot's final response and releases it.
func (pc *pconn) finish(si int, sl *pslot, status uint8, bits []uint32) {
	if !sl.start.IsZero() {
		lat := time.Since(sl.start)
		pc.p.m.Lat.ObserveDuration(lat)
		pc.p.m.LatSampled.Inc()
		pc.p.flight.Record(&telemetry.WideEvent{
			Kind: telemetry.EvResponse, Op: server.OpEval, Type: sl.typ, Status: status,
			ID: sl.id, Count: uint32(sl.n), Conn: pc.hint, TraceID: sl.traceID,
			LatNs: lat.Nanoseconds(), Name: sl.rk.name,
		})
	}
	pc.writeResp(sl.id, sl.typ, status, bits, sl.traceID, sl.traceFlags, sl.spans)
	pc.releaseSlot(si, sl)
}

// writeResp frames one response into the buffered writer, echoing the
// trace block and relaying the accumulated spans of a traced frame.
// Write failures poison the connection but the loop keeps consuming
// and discarding, so upstream completions are never blocked on a dead
// downstream.
func (pc *pconn) writeResp(id uint32, typ, status uint8, bits []uint32, traceID, flags uint64, spans []telemetry.SpanRecord) {
	pc.resp.ID, pc.resp.Type, pc.resp.Status, pc.resp.Bits = id, typ, status, bits
	pc.resp.TraceID, pc.resp.TraceFlags, pc.resp.Spans = traceID, flags, spans
	var err error
	pc.buf, err = server.AppendResponse(pc.buf[:0], &pc.resp)
	if err != nil || pc.failed {
		return
	}
	if _, err := pc.bw.Write(pc.buf); err != nil {
		pc.fail()
	}
}

// armWriteDeadline stamps the downstream write deadline for the burst
// about to be framed; writeResp and flush rely on it.
func (pc *pconn) armWriteDeadline() {
	if !pc.failed {
		pc.conn.SetWriteDeadline(time.Now().Add(pc.p.cfg.WriteTimeout))
	}
}

func (pc *pconn) flush() {
	if pc.failed {
		return
	}
	if err := pc.bw.Flush(); err != nil {
		pc.fail()
	}
}

func (pc *pconn) fail() {
	pc.failed = true
	pc.conn.Close()
}
