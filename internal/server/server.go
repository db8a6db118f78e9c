package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rlibm32/internal/telemetry"
)

// Config tunes one Server. Zero values take the defaults noted on each
// field.
type Config struct {
	// Addr is the TCP listen address for ListenAndServe
	// (default "127.0.0.1:7043").
	Addr string
	// Workers bounds the evaluation worker pool, which is also the
	// dispatcher's shard count — one coalescing lane per worker
	// (default GOMAXPROCS).
	Workers int
	// MaxFrame bounds a single frame's payload in bytes
	// (default DefaultMaxFrame). Oversized frames close the connection.
	MaxFrame int
	// MaxBatch caps the values in one coalesced kernel dispatch
	// (default 1 << 16).
	MaxBatch int
	// MaxInflight bounds the values admitted but not yet evaluated,
	// across all functions; beyond it requests are shed with
	// StatusBusy (default 1 << 20). Each dispatch shard additionally
	// bounds its own admissions at twice its fair share.
	MaxInflight int64
	// ConnInflight bounds the pipelined requests in flight on one
	// connection; beyond it the connection's reader stops consuming
	// frames until responses drain (default 64).
	ConnInflight int
	// ReadTimeout is the per-frame read deadline — it bounds both idle
	// connections and half-written frames (default 2 min).
	ReadTimeout time.Duration
	// WriteTimeout is the per-flush write deadline (default 30 s).
	WriteTimeout time.Duration
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
		out.Addr = "127.0.0.1:7043"
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.MaxFrame <= 0 {
		out.MaxFrame = DefaultMaxFrame
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = 1 << 16
	}
	if out.MaxInflight <= 0 {
		out.MaxInflight = 1 << 20
	}
	if out.ConnInflight <= 0 {
		out.ConnInflight = 64
	}
	if out.ReadTimeout <= 0 {
		out.ReadTimeout = 2 * time.Minute
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 30 * time.Second
	}
	if out.FlightEvents <= 0 {
		out.FlightEvents = 4096
	}
	if out.BusyDumpFrac == 0 {
		out.BusyDumpFrac = 0.5
	}
	return out
}

// Server is the rlibmd daemon: it accepts connections, decodes
// requests, funnels them through the sharded coalescing dispatcher,
// and writes bit-exact responses, out of order, with scatter-gather
// frame batching.
type Server struct {
	cfg    Config
	disp   *dispatcher
	m      *Metrics
	flight *telemetry.FlightRecorder
	busyW  *telemetry.BusyWatch

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	connWG   sync.WaitGroup
	connSeq  atomic.Uint32
}

// New builds a Server (it does not listen yet). The dispatch table is
// derived from the libm implementation registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	eval := buildEvaluators()
	keys := make([]batchKey, 0, len(eval))
	for k := range eval {
		keys = append(keys, k)
	}
	m := newMetrics(keys)
	s := &Server{
		cfg:    cfg,
		disp:   newDispatcher(eval, cfg.Workers, cfg.MaxBatch, cfg.MaxInflight, m),
		m:      m,
		flight: telemetry.NewFlightRecorder("rlibmd", cfg.FlightEvents),
		conns:  make(map[net.Conn]struct{}),
	}
	s.flight.SetDump(cfg.FlightDir, 0, func(reason, path string, err error) {
		m.flightDumps.Add(1)
	})
	if cfg.BusyDumpFrac > 0 {
		s.busyW = telemetry.NewBusyWatch(cfg.BusyDumpFrac, 1024, time.Second)
	}
	return s
}

// Metrics exposes the server's counters (for the admin listener and
// tests).
func (s *Server) Metrics() *Metrics { return s.m }

// Flight exposes the server's always-on flight recorder (for the admin
// listener, signal handlers, and tests).
func (s *Server) Flight() *telemetry.FlightRecorder { return s.flight }

// AdminHandler serves the full admin surface: everything
// Metrics.AdminHandler provides (/metrics, /debug/pprof/*) plus the
// flight recorder at /debug/flight and /debug/flight/trigger.
func (s *Server) AdminHandler() http.Handler {
	return s.flight.AdminHandler(s.m.AdminHandler())
}

// Addr returns the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ErrServerClosed is returned by Serve after Shutdown, mirroring
// net/http semantics.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on ln until Shutdown closes it. A server
// that was already shut down refuses to serve: the draining check and
// the ln registration share the mutex Shutdown closes ln under, so
// Serve racing Shutdown either sees draining and exits or registers ln
// in time for Shutdown to close it — it can never keep accepting
// after Shutdown returns.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.m.Accepted.Add(1)
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// Shutdown gracefully drains the server: stop accepting, wake blocked
// readers so connections finish their in-flight requests and close,
// wait for every connection, then stop the workers once all admitted
// batches have been evaluated. It returns ctx.Err() if the context
// expires first (remaining connections are then closed hard).
func (s *Server) Shutdown(ctx context.Context) error {
	drainStart := time.Now()
	s.flight.Record(&telemetry.WideEvent{Kind: telemetry.EvDrain})
	s.m.draining.Set(1)
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	now := time.Now()
	for c := range s.conns {
		// Wake readers blocked on the next frame; handlers that are
		// mid-request finish and write their responses first.
		c.SetReadDeadline(now)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	err := s.disp.shutdown(ctx)
	if err == nil {
		s.m.draining.Set(0)
		s.m.drains.Add(1)
		s.m.drainNs.Set(time.Since(drainStart).Nanoseconds())
	}
	return err
}

// maxFlushFrames bounds the response frames gathered into one writev
// (each frame contributes up to two iovecs; the kernel caps a writev
// at 1024).
const maxFlushFrames = 256

// connWriter drains completed pendings for one connection and writes
// their response frames with scatter-gather batching: headers land in
// a reused arena, 4-byte payloads are referenced in place straight out
// of the batch result buffers (zero copy), and everything queued at
// flush time goes to the kernel in a single writev. Admission tokens
// (sem) released only after a frame's bytes are written are what bound
// the respq, so dispatch workers never block delivering to it.
type connWriter struct {
	s           *Server
	conn        net.Conn
	respq       chan *pending
	sem         chan struct{} // cap ConnInflight; reader acquires, writer releases
	outstanding atomic.Int64
	readerDone  chan struct{}

	hdrs   []byte      // header arena, reset per flush
	arena  []byte      // 16-bit payload packing arena, reset per flush
	bufs   net.Buffers // iovec list for the next writev
	wire   net.Buffers // consumable header handed to WriteTo (a field so no flush allocates)
	sent   []*pending  // pendings whose frames are queued in bufs
	nbytes int64
	failed bool

	spanScratch [3]telemetry.SpanRecord // traced-response span staging (a field so no frame allocates)
}

func (w *connWriter) deliver(p *pending) { w.respq <- p }

// admit takes one pipelining slot; it blocks while ConnInflight
// responses are outstanding, which is the per-connection backpressure.
func (w *connWriter) admit() {
	w.sem <- struct{}{}
	w.outstanding.Add(1)
}

// add queues one response frame into the pending writev. Every frame
// echoes the request's trace block; a traced one (nonzero trace id)
// also carries the backend stage spans stamped by runBatch and leaves
// an EvResponse in the flight recorder.
func (w *connWriter) add(p *pending) {
	width := TypeWidth(p.typ)
	count := 0
	if p.status == StatusOK {
		count = len(p.dst)
	}
	off := len(w.hdrs)
	var spans []telemetry.SpanRecord
	if p.traceID != 0 {
		var lat int64
		if p.tKern1 != 0 {
			startNs := p.start.UnixNano()
			w.spanScratch[0] = telemetry.SpanRecord{Start: startNs, Dur: p.tAssemble - startNs, Proc: telemetry.ProcBackend, Stage: telemetry.StageQueue}
			w.spanScratch[1] = telemetry.SpanRecord{Start: p.tAssemble, Dur: p.tKern0 - p.tAssemble, Proc: telemetry.ProcBackend, Stage: telemetry.StageCoalesce}
			w.spanScratch[2] = telemetry.SpanRecord{Start: p.tKern0, Dur: p.tKern1 - p.tKern0, Proc: telemetry.ProcBackend, Stage: telemetry.StageKernel}
			spans = w.spanScratch[:3]
			lat = p.tKern1 - startNs
		}
		name := ""
		if p.ks != nil {
			name = p.ks.key.name
		}
		w.s.flight.Record(&telemetry.WideEvent{
			Kind: telemetry.EvResponse, Op: OpEval, Type: p.typ, Status: p.status,
			ID: p.id, Count: uint32(count), TraceID: p.traceID, LatNs: lat, Name: name,
		})
	}
	w.hdrs = appendResponseHeader(w.hdrs, p.status, p.typ, p.id, count, width, p.traceID, p.traceFlags, spans)
	w.bufs = append(w.bufs, w.hdrs[off:len(w.hdrs):len(w.hdrs)])
	w.nbytes += int64(len(w.hdrs) - off)
	if count > 0 {
		var payload []byte
		if width == 4 && hostLE {
			payload = bitsAsBytes(p.dst) // zero copy: the batch buffer is the wire payload
		} else {
			poff := len(w.arena)
			w.arena = appendValues(w.arena, p.dst, width)
			payload = w.arena[poff:len(w.arena):len(w.arena)]
		}
		w.bufs = append(w.bufs, payload)
		w.nbytes += int64(len(payload))
	}
	w.sent = append(w.sent, p)
}

// flush writes every queued frame in one scatter-gather writev, then
// releases the batch buffers, pendings and pipelining slots.
func (w *connWriter) flush() {
	if len(w.sent) == 0 {
		return
	}
	if !w.failed {
		w.conn.SetWriteDeadline(time.Now().Add(w.s.cfg.WriteTimeout))
		w.wire = w.bufs // WriteTo consumes its receiver; keep ours intact
		if _, err := w.wire.WriteTo(w.conn); err != nil {
			// The connection is gone. Keep draining and discarding so
			// dispatch workers and the reader are never blocked on it.
			w.failed = true
			w.conn.Close()
		} else {
			w.s.m.writevs.Add(1)
			w.s.m.writevFrames.Add(uint64(len(w.sent)))
			w.s.m.writevBytes.Add(uint64(w.nbytes))
		}
	}
	for i, p := range w.sent {
		p.release()
		w.sent[i] = nil
		w.outstanding.Add(-1)
		<-w.sem
	}
	for i := range w.bufs {
		w.bufs[i] = nil
	}
	w.bufs, w.sent = w.bufs[:0], w.sent[:0]
	w.hdrs, w.arena = w.hdrs[:0], w.arena[:0]
	w.nbytes = 0
}

// run is the connection's writer goroutine: it batches whatever
// responses have completed into one writev and flushes as soon as no
// more are immediately available — under light load every response
// flushes alone (no added latency), under pipelined load dozens of
// frames share one syscall.
func (w *connWriter) run() {
	draining := false
	for {
		var p *pending
		if draining {
			if w.outstanding.Load() == 0 {
				return
			}
			p = <-w.respq
		} else {
			select {
			case p = <-w.respq:
			case <-w.readerDone:
				draining = true
				continue
			}
		}
		w.add(p)
		for len(w.sent) < maxFlushFrames {
			select {
			case p2 := <-w.respq:
				w.add(p2)
				continue
			default:
			}
			break
		}
		w.flush()
	}
}

// handleConn runs one connection: a reader loop decoding frames into
// pooled pendings and submitting them to the sharded dispatcher, and a
// writer goroutine streaming completed responses back, out of order
// (responses carry the request ID). Up to ConnInflight requests ride
// the pipeline concurrently per connection; concurrency across
// connections additionally feeds the coalescer.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	s.m.Conns.Add(1)
	defer s.m.Conns.Add(-1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	w := &connWriter{
		s:          s,
		conn:       conn,
		respq:      make(chan *pending, s.cfg.ConnInflight),
		sem:        make(chan struct{}, s.cfg.ConnInflight),
		readerDone: make(chan struct{}),
	}
	writerDone := make(chan struct{})
	go func() {
		w.run()
		close(writerDone)
	}()
	defer func() {
		close(w.readerDone)
		<-writerDone
	}()

	hint := s.connSeq.Add(1)
	br := bufio.NewReaderSize(conn, 64<<10)
	fr := frameReader{max: s.cfg.MaxFrame}
	for {
		// Deadline first, then the draining check: Shutdown sets
		// draining before stamping an immediate deadline on every
		// connection, so whichever of the two writes lands last, a
		// handler either sees draining here or wakes from the read.
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		if s.draining.Load() {
			return
		}
		frame, err := fr.read(br)
		if err != nil {
			// Clean EOF / closed / deadline: just close. A protocol
			// violation gets a final error frame before closing (the
			// stream position is untrustworthy afterwards, so the
			// connection cannot continue either way).
			if errors.Is(err, ErrFrameSize) {
				s.m.Malformed.Add(1)
				s.respond(w, &ParsedRequest{}, StatusTooLarge)
			} else if errors.Is(err, ErrBadFrame) {
				s.m.Malformed.Add(1)
				s.respond(w, &ParsedRequest{}, StatusMalformed)
			}
			return
		}
		pr, err := ParseRequest(frame)
		if err != nil {
			s.m.Malformed.Add(1)
			s.flight.Record(&telemetry.WideEvent{Kind: telemetry.EvMalformed, ID: pr.ID})
			s.respond(w, &ParsedRequest{ID: pr.ID}, StatusMalformed)
			return
		}
		if pr.TraceID != 0 {
			s.m.TracedFrames.Add(1)
		}
		if pr.Op == OpPing {
			// A draining server is alive but not ready: answering pings
			// with SHUTDOWN (instead of OK) lets health probes eject it
			// before its listener disappears, so a fleet proxy reroutes
			// new traffic while in-flight requests finish.
			if s.draining.Load() {
				s.respond(w, &pr, StatusShutdown)
				return
			}
			s.respond(w, &pr, StatusOK)
			continue
		}
		s.m.Requests.Add(1)
		if s.draining.Load() {
			s.m.ErrFrames.Add(1)
			s.respond(w, &pr, StatusShutdown)
			return
		}
		ks := s.disp.lookup(pr.Type, pr.Name)
		if ks == nil {
			s.m.ErrFrames.Add(1)
			s.flight.Record(&telemetry.WideEvent{
				Kind: telemetry.EvFrame, Op: pr.Op, Type: pr.Type, Status: StatusUnknownFunc,
				ID: pr.ID, Count: uint32(pr.Count), Conn: hint, TraceID: pr.TraceID, Note: "unknown-func",
			})
			s.respond(w, &pr, StatusUnknownFunc)
			continue
		}
		s.flight.Record(&telemetry.WideEvent{
			Kind: telemetry.EvFrame, Op: pr.Op, Type: pr.Type,
			ID: pr.ID, Count: uint32(pr.Count), Conn: hint, TraceID: pr.TraceID, Name: ks.key.name,
		})
		if pr.Count == 0 {
			if ks.fm != nil {
				ks.fm.Requests.Add(1)
			}
			s.respond(w, &pr, StatusOK)
			continue
		}
		p := getPending(pr.Count)
		decodeValuesInto(p.src, pr.Payload, TypeWidth(pr.Type))
		p.ks, p.out, p.start = ks, w, time.Now()
		p.id, p.typ = pr.ID, pr.Type
		p.traceID, p.traceFlags = pr.TraceID, pr.TraceFlags
		w.admit()
		if st := s.disp.submit(p, hint); st != StatusOK {
			s.m.ErrFrames.Add(1)
			s.flight.Record(&telemetry.WideEvent{
				Kind: telemetry.EvShed, Op: pr.Op, Type: pr.Type, Status: st,
				ID: pr.ID, Count: uint32(pr.Count), Conn: hint, TraceID: pr.TraceID, Name: ks.key.name,
			})
			if s.busyW.ObserveShed() {
				s.flight.TriggerDump("busy-fraction")
			}
			p.status, p.dst, p.batch = st, nil, nil
			w.respq <- p // slot already held; deliver the error ourselves
			continue
		}
		s.busyW.ObserveOK()
		if ks.fm != nil {
			ks.fm.Requests.Add(1)
			ks.fm.Values.Add(uint64(pr.Count))
		}
	}
}

// respond enqueues a payload-free response (ping, empty eval, or an
// error status) through the writer, in arrival order with the data
// path. It echoes the request's id, type code and trace block, so
// error statuses for traced frames stay in the caller's trace (the
// proxy relays them downstream under the same trace id).
func (s *Server) respond(w *connWriter, pr *ParsedRequest, status uint8) {
	p := getPending(0)
	p.id, p.typ, p.status = pr.ID, pr.Type, status
	p.traceID, p.traceFlags = pr.TraceID, pr.TraceFlags
	p.out = w
	w.admit()
	w.respq <- p
}
