package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rlibm32/internal/telemetry"
	"rlibm32/posit32"

	rlibm "rlibm32"
)

// ErrClientClosed is returned for calls issued after Close (or after a
// transport failure tore the connection down).
var ErrClientClosed = errors.New("server: client closed")

// ErrShortDst mirrors rlibm32.EvalSlice's length contract for
// caller-provided result buffers: dst must hold len(src) values.
var ErrShortDst = rlibm.ErrShortDst

// Call is one in-flight pipelined request, in the style of net/rpc: it
// is handed back on its Done channel when the response arrives (or the
// transport fails).
//
// Src is caller-owned and must stay unmodified until completion — the
// writer scatter-gathers it onto the wire without copying. Dst is
// where results land: caller-provided (len ≥ len(Src), checked up
// front with ErrShortDst) or allocated at issue time when nil, so the
// reader goroutine completes calls without allocating. On completion
// with Status == StatusOK, Dst[:len(Src)] holds the result bits; any
// other status means "no results" (notably StatusBusy, the server's
// load shedding). Err covers transport problems only.
type Call struct {
	Type   uint8
	Name   string
	Src    []uint32
	Dst    []uint32
	Status uint8
	Err    error
	Done   chan *Call // receives the Call on completion; cap ≥ 1
	Tag    uint64     // caller scratch (e.g. a slot index); not touched

	// Trace context (GoTraced). The writer encodes TraceID into the
	// frame's trace block (0 = untraced); on completion it holds the
	// trace id echoed by the server, Spans the per-stage records the
	// response carried, and IssuedNs/SentNs the client-side issue and
	// flush timestamps (unix ns) for the client.rpc / client.flush
	// spans.
	TraceID  uint64
	Spans    []telemetry.SpanRecord
	IssuedNs int64
	SentNs   int64

	op         uint8
	traceFlags uint64
	id         uint32

	// state sequences the writer's reads of the request fields against
	// the caller's reuse of the Call after completion. The writer CASes
	// pending→sent once it has finished reading the fields (after the
	// flush); a completion that arrives first (a response outrunning
	// its own flush window, or teardown racing the writer) CASes
	// pending→doneEarly instead, and the writer delivers the completion
	// itself once its flush is over.
	state atomic.Uint32
}

const (
	callPending   = 0 // registered; the writer may still read the fields
	callSent      = 1 // writer is done reading; completion is free to deliver
	callDoneEarly = 2 // completed before callSent; the writer delivers Done
)

// complete delivers a finished call to its caller, unless the writer
// may still be reading the call's request fields — then the writer
// delivers it at the end of its flush (never blocking this goroutine).
// The caller must have set Status/Err/Dst before calling.
func (call *Call) complete() {
	if call.state.CompareAndSwap(callPending, callDoneEarly) {
		return
	}
	call.finish()
}

// Client is a pipelined, multiplexed rlibmd client: any number of
// goroutines issue requests concurrently on one TCP connection,
// request IDs in the frame header pair responses (which may complete
// out of order) with their calls, a writer goroutine batches small
// frames into shared flushes (Nagle-style: everything queued while the
// previous write was in flight goes out in one writev), and a reader
// goroutine completes futures as response frames arrive.
type Client struct {
	conn    net.Conn
	timeout time.Duration

	mu     sync.Mutex // guards calls, nextID, err, closed
	calls  map[uint32]*Call
	nextID uint32
	err    error // sticky transport error
	closed bool

	// wmu is held by the writer for the span of each flush (field reads
	// through writev) and by fail() while it finishes claimed calls, so
	// a teardown can never hand a Call back to its caller while the
	// writer is still reading it.
	wmu sync.Mutex

	sendq    chan *Call
	quit     chan struct{} // closed once on Close or transport failure
	quitOnce sync.Once

	callPool sync.Pool // *Call with a cap-1 Done channel, for the sync API
}

// Dial connects to an rlibmd server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout connects with an explicit dial timeout, also used as the
// per-flush I/O deadline.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// The writer already batches small frames into shared flushes,
		// so Nagle's algorithm would only add latency on top.
		tc.SetNoDelay(true)
	}
	c := &Client{
		conn:    conn,
		timeout: timeout,
		calls:   make(map[uint32]*Call),
		sendq:   make(chan *Call, 256),
		quit:    make(chan struct{}),
	}
	c.callPool.New = func() any { return &Call{Done: make(chan *Call, 1)} }
	go c.writer()
	go c.reader()
	return c, nil
}

// Close tears the connection down; in-flight calls complete with
// ErrClientClosed (or the read error that raced it).
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.fail(ErrClientClosed)
	return err
}

// broken reports whether the client can no longer issue requests.
func (c *Client) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed || c.err != nil
}

// Broken reports whether the client can no longer issue requests (the
// connection failed or was closed) and must be redialed. The fleet
// proxy's lazy backend pools key their redial decision off this.
func (c *Client) Broken() bool { return c.broken() }

// fail completes every registered call with err and poisons the
// client. First failure wins. Unregistering under the mutex is what
// guarantees each call finishes exactly once — whoever removes it from
// the map owns its completion.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	calls := c.calls
	c.calls = make(map[uint32]*Call)
	c.mu.Unlock()
	c.quitOnce.Do(func() { close(c.quit) })
	c.conn.Close()
	// Finish under wmu: closing the connection above aborts any flush in
	// progress, and taking the lock waits out the writer's last reads of
	// these calls' fields before their owners can observe completion and
	// reuse them.
	c.wmu.Lock()
	for _, call := range calls {
		call.Err = err
		call.finish()
	}
	c.wmu.Unlock()
}

// finish delivers the call on its Done channel. A full Done channel is
// caller misuse (the channel must have room for every call issued with
// it, as with net/rpc); the completion is dropped rather than blocking
// the reader.
func (call *Call) finish() {
	select {
	case call.Done <- call:
	default:
	}
}

// Go issues req asynchronously: it registers the call, hands it to the
// writer, and returns immediately; the call comes back on done (cap
// ≥ 1; allocated when nil) once the response arrives. Misuse — an
// unknown type code, dst shorter than src, a closed client — completes
// the call immediately with the error set.
func (c *Client) Go(typ uint8, name string, dst, src []uint32, done chan *Call) *Call {
	return c.GoTagged(typ, name, dst, src, done, 0)
}

// GoTagged is Go with the caller's Tag set before the call is issued.
// When the goroutine consuming done is not the one issuing, assigning
// Tag on the returned *Call races with its completion — the consumer
// can receive the call before the issuer's store lands. GoTagged and
// GoTraced close that window; the proxy's routing slots depend on it.
func (c *Client) GoTagged(typ uint8, name string, dst, src []uint32, done chan *Call, tag uint64) *Call {
	return c.GoTraced(typ, name, dst, src, done, tag, 0, 0)
}

// GoTraced is GoTagged with a trace context attached: the frame's
// trace block carries traceID and flags, and on completion
// Call.TraceID, Call.Spans, Call.IssuedNs and Call.SentNs hold the
// stitchable trace material. A traceID of 0 means untraced.
func (c *Client) GoTraced(typ uint8, name string, dst, src []uint32, done chan *Call, tag, traceID, flags uint64) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	}
	call := &Call{Type: typ, Name: name, Src: src, Dst: dst, Done: done, Tag: tag, op: OpEval}
	if traceID != 0 {
		call.TraceID = traceID
		call.traceFlags = flags
		call.IssuedNs = time.Now().UnixNano()
	}
	c.start(call)
	return call
}

// start validates and enqueues a prepared call.
func (c *Client) start(call *Call) {
	if call.op == OpEval {
		if TypeWidth(call.Type) == 0 {
			call.Err = fmt.Errorf("%w: unknown type code %d", ErrBadFrame, call.Type)
			call.finish()
			return
		}
		if len(call.Name) > 255 {
			call.Err = fmt.Errorf("%w: function name too long", ErrBadFrame)
			call.finish()
			return
		}
		if call.Dst == nil {
			call.Dst = make([]uint32, len(call.Src))
		} else if len(call.Dst) < len(call.Src) {
			call.Err = ErrShortDst
			call.finish()
			return
		}
	}
	c.mu.Lock()
	if c.closed || c.err != nil {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		call.Err = err
		call.finish()
		return
	}
	c.nextID++
	call.id = c.nextID
	c.calls[call.id] = call
	c.mu.Unlock()
	select {
	case c.sendq <- call:
	case <-c.quit:
		// Only finish the call if fail() has not already claimed it —
		// whoever removes it from the map owns its completion.
		if c.forget(call) {
			call.Err = ErrClientClosed
			call.finish()
		}
	}
}

// forget unregisters a call that never reached the wire, reporting
// whether it was still registered (and is therefore ours to finish).
func (c *Client) forget(call *Call) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.calls[call.id]; !ok {
		return false
	}
	delete(c.calls, call.id)
	return true
}

// writer drains the send queue onto the socket with scatter-gather
// batching: headers (and 16-bit payloads) go into reused arenas,
// 4-byte payloads are referenced straight from each call's Src, and
// one writev carries every frame that queued up while the previous
// flush was in flight — the flush window that makes scalar pipelined
// RPCs share syscalls.
func (c *Client) writer() {
	var (
		hdrs   []byte
		arena  []byte
		bufs   net.Buffers
		wire   net.Buffers // consumable header for WriteTo; declared here so no flush allocates
		window []*Call
		kept   []*Call
		traced []*Call
	)
	for {
		var call *Call
		select {
		case call = <-c.sendq:
		case <-c.quit:
			c.drainSendq()
			return
		}
		window = append(window[:0], call)
		for len(window) < maxFlushFrames {
			select {
			case call = <-c.sendq:
				window = append(window, call)
				continue
			default:
			}
			break
		}
		c.wmu.Lock()
		// Encode only calls still registered: anything fail() has
		// already claimed is dropped here, and fail() cannot finish the
		// survivors (letting their callers reuse them) until this flush
		// releases wmu.
		kept = kept[:0]
		c.mu.Lock()
		for _, cl := range window {
			if _, ok := c.calls[cl.id]; ok {
				kept = append(kept, cl)
			}
		}
		c.mu.Unlock()
		var err error
		if len(kept) > 0 {
			hdrs, arena, bufs, traced = hdrs[:0], arena[:0], bufs[:0], traced[:0]
			for _, cl := range kept {
				width := TypeWidth(cl.Type)
				off := len(hdrs)
				if cl.TraceID != 0 {
					// Snapshot traced calls now, before any byte reaches the
					// wire: once WriteTo starts, a response can land and the
					// reader overwrites TraceID with the server's echo, so
					// re-reading it after the flush would race.
					traced = append(traced, cl)
				}
				hdrs = appendRequestHeader(hdrs, cl.op, cl.Type, cl.Name, cl.id, len(cl.Src), width, cl.TraceID, cl.traceFlags)
				bufs = append(bufs, hdrs[off:len(hdrs):len(hdrs)])
				if len(cl.Src) > 0 {
					if width == 4 && hostLE {
						bufs = append(bufs, bitsAsBytes(cl.Src))
					} else {
						poff := len(arena)
						arena = appendValues(arena, cl.Src, width)
						bufs = append(bufs, arena[poff:len(arena):len(arena)])
					}
				}
			}
			c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
			wire = bufs // WriteTo consumes its receiver
			_, err = wire.WriteTo(c.conn)
			for i := range bufs {
				bufs[i] = nil
			}
			if err == nil && len(traced) > 0 {
				// Stamp flush time on traced calls (one clock read per
				// flush, not per call) — still under wmu and before the
				// sent CAS, so no consumer can be reading SentNs yet.
				sentNs := time.Now().UnixNano()
				for _, cl := range traced {
					cl.SentNs = sentNs
				}
			}
		}
		// Done reading every call in the window. A completion that beat
		// this point (response outran the flush, or the call was dropped
		// above after its completion) parked itself as doneEarly; deliver
		// those now.
		for i, cl := range window {
			if !cl.state.CompareAndSwap(callPending, callSent) {
				cl.finish()
			}
			window[i] = nil
		}
		c.wmu.Unlock()
		if err != nil {
			c.fail(fmt.Errorf("server: write: %w", err))
			c.drainSendq()
			return
		}
	}
}

// drainSendq empties the send queue after teardown. Calls still
// pending belong to fail() (they were registered, so it claimed them);
// calls a response or teardown already completed-early are delivered
// here, since no flush will.
func (c *Client) drainSendq() {
	for {
		select {
		case call := <-c.sendq:
			if !call.state.CompareAndSwap(callPending, callSent) {
				call.finish()
			}
		default:
			return
		}
	}
}

// reader completes in-flight calls as response frames arrive, in
// whatever order the server finished them. Results decode straight
// into each call's Dst; nothing allocates in steady state.
func (c *Client) reader() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	fr := frameReader{max: DefaultMaxFrame}
	nframes := 0
	for {
		// Arm the read deadline every 64 frames rather than per frame:
		// the timer syscall is the reader's single largest non-I/O cost
		// at pipelined rates, and stretching the effective timeout by
		// the time 64 frames take to arrive changes nothing.
		if nframes&63 == 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.timeout))
		}
		nframes++
		frame, err := fr.read(br)
		if err != nil {
			// An idle timeout with nothing in flight is not a failure:
			// keep listening (and re-arm, or the stale deadline would
			// fire again immediately).
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.mu.Lock()
				idle := len(c.calls) == 0 && c.err == nil && !c.closed
				c.mu.Unlock()
				if idle {
					nframes = 0
					continue
				}
			}
			c.fail(fmt.Errorf("server: read: %w", err))
			return
		}
		h, err := parseResponseHeader(frame)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		call := c.calls[h.id]
		delete(c.calls, h.id)
		c.mu.Unlock()
		if call == nil {
			c.fail(fmt.Errorf("%w: response for unknown request id %d", ErrBadFrame, h.id))
			return
		}
		call.Status = h.status
		call.TraceID = h.traceID
		call.Spans = decodeSpanRecords(call.Spans, frame[respHeaderLen:], h.nspans)
		switch {
		case h.status != StatusOK:
			// Non-OK means "no results", and must carry none.
			if h.count != 0 {
				call.Err = fmt.Errorf("%w: error response with payload", ErrBadFrame)
				call.complete()
				c.fail(call.Err)
				return
			}
			call.Dst = call.Dst[:0]
		case h.count != len(call.Src):
			// An OK response carries exactly one result per input; an
			// empty OK for a non-empty request is a broken server, not a
			// smaller answer.
			call.Err = fmt.Errorf("server: %d results for %d inputs", h.count, len(call.Src))
		default:
			decodeValuesInto(call.Dst[:h.count], frame[h.values:], h.width)
			call.Dst = call.Dst[:h.count]
		}
		call.complete()
	}
}

// roundTrip runs one call synchronously through the pipeline, reusing
// pooled Call carriers so the steady-state sync path allocates
// nothing. The caller must hand the Call back with putCall once done
// with its fields.
func (c *Client) roundTrip(op, typ uint8, name string, dst, src []uint32) (*Call, error) {
	call := c.callPool.Get().(*Call)
	call.Type, call.Name, call.Src, call.Dst = typ, name, src, dst
	call.Status, call.Err, call.Tag, call.op = 0, nil, 0, op
	call.TraceID, call.traceFlags, call.IssuedNs, call.SentNs = 0, 0, 0, 0
	call.Spans = call.Spans[:0]
	call.state.Store(callPending)
	c.start(call)
	<-call.Done
	return call, call.Err
}

// putCall recycles a roundTrip carrier.
func (c *Client) putCall(call *Call) {
	call.Src, call.Dst, call.Name = nil, nil, ""
	c.callPool.Put(call)
}

// StatusError is a non-OK server verdict surfaced as an error, so
// callers (health probes, fleet routing) can distinguish "the server
// answered, and said no" from a transport failure with errors.As.
type StatusError struct{ Status uint8 }

func (e *StatusError) Error() string {
	return "server: status " + StatusText(e.Status)
}

// Ping round-trips a liveness probe. A reachable-but-not-ready server
// (draining, for instance, answers SHUTDOWN) returns a *StatusError.
func (c *Client) Ping() error {
	call, err := c.roundTrip(OpPing, 0, "", nil, nil)
	if err != nil {
		c.putCall(call)
		return err
	}
	status := call.Status
	c.putCall(call)
	if status != StatusOK {
		return &StatusError{Status: status}
	}
	return nil
}

// EvalBits evaluates the named function over the raw bit patterns in
// src in the given representation, synchronously (the request still
// rides the shared pipeline, so concurrent callers share flushes).
//
// Length contract, mirroring rlibm32.EvalSlice: results land in
// dst[:len(src)], which is returned. A nil dst allocates; a non-nil
// dst shorter than src returns ErrShortDst before anything is sent.
// With a caller-provided dst the whole round trip — encode, writev,
// response decode — allocates nothing in steady state.
//
// The returned status is the server's verdict; callers must treat any
// status other than StatusOK (notably StatusBusy) as "no results".
// The error covers transport and contract problems only.
func (c *Client) EvalBits(typ uint8, name string, dst, src []uint32) ([]uint32, uint8, error) {
	call, err := c.roundTrip(OpEval, typ, name, dst, src)
	if err != nil {
		c.putCall(call)
		return nil, 0, err
	}
	status := call.Status
	out := call.Dst
	c.putCall(call)
	if status != StatusOK {
		return nil, status, nil
	}
	return out, StatusOK, nil
}

// EvalFloat32 evaluates the named float32 function over xs into dst
// (allocated when nil; ErrShortDst when too short). Non-OK statuses
// surface as errors here; use EvalBits to handle BUSY with backoff.
func (c *Client) EvalFloat32(name string, dst, xs []float32) ([]float32, error) {
	if dst != nil && len(dst) < len(xs) {
		return nil, ErrShortDst
	}
	// Distinct src and dst buffers: the writer goroutine scatter-gathers
	// src onto the wire, so results must not decode over it.
	bits := make([]uint32, 2*len(xs))
	src, out0 := bits[:len(xs)], bits[len(xs):]
	for i, x := range xs {
		src[i] = math.Float32bits(x)
	}
	out, status, err := c.EvalBits(TFloat32, name, out0, src)
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, fmt.Errorf("server: %s(%d values): %s", name, len(xs), StatusText(status))
	}
	if dst == nil {
		dst = make([]float32, len(xs))
	}
	for i, b := range out {
		dst[i] = math.Float32frombits(b)
	}
	return dst[:len(xs)], nil
}

// EvalPosit32 evaluates the named posit32 function over ps into dst
// (allocated when nil; ErrShortDst when too short).
func (c *Client) EvalPosit32(name string, dst, ps []posit32.Posit) ([]posit32.Posit, error) {
	if dst != nil && len(dst) < len(ps) {
		return nil, ErrShortDst
	}
	bits := make([]uint32, 2*len(ps))
	src, out0 := bits[:len(ps)], bits[len(ps):]
	for i, p := range ps {
		src[i] = uint32(p)
	}
	out, status, err := c.EvalBits(TPosit32, name, out0, src)
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, fmt.Errorf("server: %s(%d values): %s", name, len(ps), StatusText(status))
	}
	if dst == nil {
		dst = make([]posit32.Posit, len(ps))
	}
	for i, b := range out {
		dst[i] = posit32.Posit(b)
	}
	return dst[:len(ps)], nil
}

// Pool is a set of pipelined clients over pooled connections. Get
// spreads callers round-robin and transparently redials connections
// that died, so a long-lived caller rides out server restarts and
// connection kills; each underlying Client multiplexes any number of
// concurrent calls.
type Pool struct {
	addr    string
	timeout time.Duration
	next    atomic.Uint32

	mu      sync.Mutex
	clients []*Client
	closed  bool
}

// NewPool dials size pipelined connections to addr. Dial failures are
// returned immediately; the pool holds only healthy connections.
func NewPool(addr string, size int, timeout time.Duration) (*Pool, error) {
	if size <= 0 {
		size = 1
	}
	p := &Pool{addr: addr, timeout: timeout, clients: make([]*Client, size)}
	for i := range p.clients {
		c, err := DialTimeout(addr, timeout)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients[i] = c
	}
	return p, nil
}

// Get returns the next connection round-robin, redialing it first if
// it has failed since the last use.
func (p *Pool) Get() (*Client, error) {
	i := int(p.next.Add(1)) % p.size()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClientClosed
	}
	c := p.clients[i]
	if c == nil || c.broken() {
		fresh, err := DialTimeout(p.addr, p.timeout)
		if err != nil {
			return nil, err
		}
		if c != nil {
			c.Close()
		}
		p.clients[i] = fresh
		c = fresh
	}
	return c, nil
}

func (p *Pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.clients)
}

// EvalBits runs Client.EvalBits on the next pooled connection.
func (p *Pool) EvalBits(typ uint8, name string, dst, src []uint32) ([]uint32, uint8, error) {
	c, err := p.Get()
	if err != nil {
		return nil, 0, err
	}
	return c.EvalBits(typ, name, dst, src)
}

// Close closes every pooled connection.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	var first error
	for _, c := range p.clients {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
