package server

import (
	"context"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rlibm32/bfloat16"
	"rlibm32/float16"
	"rlibm32/internal/libm"
	"rlibm32/posit16"
	"rlibm32/posit32"
	"rlibm32/posit32/positmath"

	rlibm "rlibm32"
)

// batchKey identifies one dispatch target: a (representation, function)
// pair.
type batchKey struct {
	typ  uint8
	name string
}

// evalFunc evaluates a batch of raw bit patterns: dst[i] =
// f(src[i]) in the key's representation. len(dst) == len(src), and
// dst must not overlap src: the float32 kernels re-read their inputs
// after writing results (fixupSpecials), which runBatch's distinct
// src and result buffers guarantee is safe.
type evalFunc func(dst, src []uint32)

// wrapFloat32 adapts an rlibm batch kernel to bit-pattern slices by
// reinterpreting them in place: a float32 and its math.Float32bits
// pattern are the same four bytes on any byte order.
func wrapFloat32(f func(dst, xs []float32)) evalFunc {
	return func(dst, src []uint32) {
		f(unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst)),
			unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(src))), len(src)))
	}
}

// wrapPosit32 adapts a positmath batch kernel; posits already are
// their bit patterns, so the slices are reinterpreted in place.
func wrapPosit32(f func(dst, ps []posit32.Posit)) evalFunc {
	return func(dst, src []uint32) {
		f(unsafe.Slice((*posit32.Posit)(unsafe.SliceData(dst)), len(dst)),
			unsafe.Slice((*posit32.Posit)(unsafe.SliceData(src)), len(src)))
	}
}

// wrap16 adapts a scalar 16-bit function (the half-width libraries
// have no slice kernels; at 2^16 inputs their whole domain fits in
// cache and the scalar path is already table-speed).
func wrap16(f func(uint16) uint16) evalFunc {
	return func(dst, src []uint32) {
		for i, b := range src {
			dst[i] = uint32(f(uint16(b)))
		}
	}
}

// buildEvaluators constructs the dispatch table for every generated
// implementation, keyed off the libm registry — no hand-maintained
// function list, so a regenerated library is served automatically.
func buildEvaluators() map[batchKey]evalFunc {
	out := make(map[batchKey]evalFunc)
	for _, e := range libm.Registry() {
		code, ok := TypeCode(e.Variant)
		if !ok {
			continue
		}
		key := batchKey{typ: code, name: e.Name}
		switch e.Variant {
		case libm.VariantFloat32:
			// Route through EvalSlice, not the raw FuncSlice kernel, so
			// the library's batch telemetry (batch-width histogram,
			// kernel-path counters) sees served traffic when rlibmd has
			// called rlibm.EnableTelemetry. The name is registry-validated
			// and wrapFloat32 sizes dst to xs, so the error path is dead.
			if _, ok := rlibm.FuncSlice(e.Name); ok {
				name := e.Name
				out[key] = wrapFloat32(func(dst, xs []float32) {
					_ = rlibm.EvalSlice(name, dst, xs)
				})
			}
		case libm.VariantPosit32:
			if f, ok := positmath.FuncSlice(e.Name); ok {
				out[key] = wrapPosit32(f)
			}
		case libm.VariantBfloat16:
			if f, ok := bfloat16.Func(e.Name); ok {
				out[key] = wrap16(func(b uint16) uint16 { return f(bfloat16.FromBits(b)).Bits() })
			}
		case libm.VariantFloat16:
			if f, ok := float16.Func(e.Name); ok {
				out[key] = wrap16(func(b uint16) uint16 { return f(float16.FromBits(b)).Bits() })
			}
		case libm.VariantPosit16:
			if f, ok := posit16.Func(e.Name); ok {
				out[key] = wrap16(func(b uint16) uint16 { return f(posit16.FromBits(b)).Bits() })
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Pooled request/result carriers. Steady-state traffic allocates
// nothing per frame: pendings, their src buffers and the shared batch
// result buffers all recycle through sync.Pools.

// batchResult is one coalesced batch's refcounted result buffer. Every
// pending in the batch holds a subslice; the last release (after its
// response bytes hit the wire) returns the buffer to the pool.
type batchResult struct {
	buf  []uint32
	refs atomic.Int32
}

var batchResPool = sync.Pool{New: func() any { return new(batchResult) }}
var batchSrcPool = sync.Pool{New: func() any { return new([]uint32) }}

// sink receives completed pendings. The connection writer implements
// it by enqueueing the response; the synchronous path (tests, old
// callers) implements it with a channel.
type sink interface{ deliver(p *pending) }

// pending is one request's journey through the sharded dispatcher:
// decoded input bits in, a refcounted result subslice out, delivered
// asynchronously to its sink so no goroutine blocks per request.
type pending struct {
	ks    *keyState
	src   []uint32 // input bits; pooled with the pending, capacity reused
	out   sink
	start time.Time

	// Response fields, valid once delivered.
	id     uint32
	typ    uint8
	status uint8
	dst    []uint32 // subslice of batch.buf when status is StatusOK
	batch  *batchResult

	// Trace context (traceID 0 = untraced). The stamps are unix ns,
	// taken only when a batch contains a traced pending, so the
	// untraced hot path pays one branch and no clock reads.
	traceID    uint64
	traceFlags uint64
	tAssemble  int64 // batch drained by a worker
	tKern0     int64 // kernel entry
	tKern1     int64 // kernel exit
}

var pendingPool = sync.Pool{New: func() any { return new(pending) }}

// getPending returns a pending with src sized for count values.
func getPending(count int) *pending {
	p := pendingPool.Get().(*pending)
	if cap(p.src) < count {
		p.src = make([]uint32, count)
	}
	p.src = p.src[:count]
	return p
}

// release returns the pending (and, on the last reference, its batch's
// result buffer) to the pools. Call exactly once, after the response
// has been written or discarded.
func (p *pending) release() {
	if b := p.batch; b != nil {
		p.batch = nil
		if b.refs.Add(-1) == 0 {
			batchResPool.Put(b)
		}
	}
	p.ks, p.out, p.dst = nil, nil, nil
	p.id, p.typ, p.status = 0, 0, 0
	p.traceID, p.traceFlags = 0, 0
	p.tAssemble, p.tKern0, p.tKern1 = 0, 0, 0
	pendingPool.Put(p)
}

// ---------------------------------------------------------------------
// Sharded coalescing dispatch.

// keyState is the per-(type, function) dispatch descriptor, resolved
// once per request with a single allocation-free map lookup: the
// evaluator, the pre-resolved metrics handles, and one coalescing
// queue per shard.
type keyState struct {
	key  batchKey
	eval evalFunc
	fm   *funcMetrics
	hash uint32
	qs   []*queue // one queue per shard
}

// queue accumulates pending requests for one (key, shard) between
// worker pickups. scheduled is true while a wakeup for this queue is
// either in the shard's work channel or owned by a worker that has not
// finished draining it — the invariant that keeps at most one signal
// per queue in flight, which is what lets each shard's work channel be
// sized at one slot per key and never block a submitter.
type queue struct {
	ks        *keyState
	sh        *shard
	mu        sync.Mutex
	pend      []*pending
	scheduled bool
}

// shard is one lane of the dispatcher: its own wakeup channel, its own
// inflight budget, and a worker that prefers it. Requests hash to a
// shard by (key, connection), so a hot (function, type) pair spreads
// across every shard instead of serializing all its submitters on one
// queue mutex; each shard coalesces its own stream into batches.
type shard struct {
	work     chan *queue
	inflight atomic.Int64
}

// dispatcher owns the sharded coalescing queues and the worker pool —
// one worker per shard, with work-stealing when a worker's own shard
// is idle.
//
// Coalescing happens by contention, per shard: a submit appends to its
// (key, shard) queue and wakes a worker; while every worker is busy
// evaluating, later submits keep appending, and whichever worker next
// drains the queue takes them all as one batch. Under light load
// batches are whatever arrived (often a single request, dispatched
// immediately — no added latency); under heavy load batches grow
// toward maxBatch and the per-request overhead amortizes away.
type dispatcher struct {
	byType [8]map[string]*keyState // wire type code → name → state (alloc-free lookup)
	keys   []*keyState
	shards []*shard

	// signal is a counting semaphore with one token per queue wakeup
	// across all shards (wakeup is enqueued before its token, so a
	// woken worker always finds one). It is what lets a worker block
	// when the whole dispatcher is idle yet steal from any shard the
	// moment one has work.
	signal chan struct{}

	maxBatch    int
	maxInflight int64 // global admission bound (values)
	shardMax    int64 // per-shard admission bound (values)
	inflight    atomic.Int64
	m           *Metrics
	wg          sync.WaitGroup
}

var keySeed = maphash.MakeSeed()

func newDispatcher(eval map[batchKey]evalFunc, shards, maxBatch int, maxInflight int64, m *Metrics) *dispatcher {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	d := &dispatcher{
		maxBatch:    maxBatch,
		maxInflight: maxInflight,
		// A shard may run hot (every connection hashing one key there):
		// give each shard twice its fair share before the per-shard
		// bound sheds, with the global bound as the hard ceiling. With
		// one shard the per-shard bound never binds before the global.
		shardMax: 2 * maxInflight / int64(shards),
		m:        m,
	}
	for i := 0; i < shards; i++ {
		d.shards = append(d.shards, &shard{work: make(chan *queue, len(eval))})
	}
	d.signal = make(chan struct{}, shards*len(eval))
	for k, f := range eval {
		ks := &keyState{
			key:  k,
			eval: f,
			fm:   m.forKey(k),
			hash: uint32(maphash.String(keySeed, k.name)) + uint32(k.typ),
			qs:   make([]*queue, shards),
		}
		for i := range ks.qs {
			ks.qs[i] = &queue{ks: ks, sh: d.shards[i]}
		}
		if d.byType[k.typ] == nil {
			d.byType[k.typ] = make(map[string]*keyState)
		}
		d.byType[k.typ][k.name] = ks
		d.keys = append(d.keys, ks)
	}
	for i := 0; i < shards; i++ {
		d.wg.Add(1)
		go d.worker(i)
	}
	return d
}

// lookup resolves a wire (type, name) to its dispatch state without
// allocating (the map index on a converted byte slice takes the
// runtime's no-copy fast path). nil means unknown function/type.
func (d *dispatcher) lookup(typ uint8, name []byte) *keyState {
	if int(typ) >= len(d.byType) || d.byType[typ] == nil {
		return nil
	}
	return d.byType[typ][string(name)]
}

// submit admits p — whose ks, src, id, typ, out and start fields the
// caller has filled — into the shard selected by (key, hint) and
// returns StatusOK, or returns StatusBusy without taking ownership
// when admitting len(p.src) values would exceed the global or
// per-shard inflight bound. On StatusOK the pending is delivered to
// p.out once its coalesced batch has been evaluated; on StatusBusy the
// caller still owns p and responds itself.
func (d *dispatcher) submit(p *pending, hint uint32) uint8 {
	n := int64(len(p.src))
	if d.inflight.Add(n) > d.maxInflight {
		d.inflight.Add(-n)
		d.shed(p.ks, n)
		return StatusBusy
	}
	q := p.ks.qs[(p.ks.hash+hint)%uint32(len(d.shards))]
	sh := q.sh
	if sh.inflight.Add(n) > d.shardMax {
		sh.inflight.Add(-n)
		d.inflight.Add(-n)
		d.m.shardShed.Add(uint64(n))
		d.shed(p.ks, n)
		return StatusBusy
	}
	q.mu.Lock()
	q.pend = append(q.pend, p)
	wake := !q.scheduled
	if wake {
		q.scheduled = true
	}
	q.mu.Unlock()
	if wake {
		sh.work <- q           // never blocks: ≤1 signal per queue, cap = #keys
		d.signal <- struct{}{} // token follows its wakeup
	}
	return StatusOK
}

func (d *dispatcher) shed(ks *keyState, n int64) {
	d.m.shedValues.Add(uint64(n))
	if ks.fm != nil {
		ks.fm.Busy.Add(1)
	}
}

// worker is shard self's lane: it sleeps on the signal semaphore, then
// drains a woken queue — preferring its own shard, stealing from any
// other shard otherwise, so an idle core always helps a busy one.
func (d *dispatcher) worker(self int) {
	defer d.wg.Done()
	var scratch []*pending
	for range d.signal {
		q := d.grab(self)
		scratch = d.drain(q, scratch)
	}
}

// grab dequeues one woken queue, own shard first. The signal token the
// caller holds guarantees at least one wakeup exists somewhere, so the
// scan terminates; a miss can only be another worker racing us to a
// different wakeup than our token's, in which case theirs is ours to
// find on the next pass.
func (d *dispatcher) grab(self int) *queue {
	n := len(d.shards)
	for spin := 0; ; spin++ {
		for i := 0; i < n; i++ {
			sh := d.shards[(self+i)%n]
			select {
			case q := <-sh.work:
				if i != 0 {
					d.m.steals.Add(1)
				}
				return q
			default:
			}
		}
		if spin > 0 {
			runtime.Gosched()
		}
	}
}

// drain takes up to maxBatch values of pending requests from a woken
// queue, concatenates them, runs the batch kernel once, and delivers
// each caller's subslice of the results. If the queue still holds work
// after the grab, the signal is re-armed *before* evaluating, so
// another worker (or a stealing neighbor) can batch the remainder
// concurrently — a hot (key, shard) pair is not serialized behind one
// evaluation. scratch is the worker's reusable pending array, returned
// for the next call.
func (d *dispatcher) drain(q *queue, scratch []*pending) []*pending {
	q.mu.Lock()
	if len(q.pend) == 0 {
		q.scheduled = false
		q.mu.Unlock()
		return scratch
	}
	// Take whole pendings up to maxBatch values (always at least one,
	// so an oversized single request still runs). Pendings move to the
	// worker's scratch array so the queue's backing array survives —
	// steady state appends into it without reallocating.
	take, vals := 0, 0
	for take < len(q.pend) && (take == 0 || vals+len(q.pend[take].src) <= d.maxBatch) {
		vals += len(q.pend[take].src)
		take++
	}
	scratch = append(scratch[:0], q.pend[:take]...)
	rest := copy(q.pend, q.pend[take:])
	q.pend = q.pend[:rest]
	resignal := rest > 0
	if !resignal {
		q.scheduled = false
	}
	q.mu.Unlock()
	if resignal {
		q.sh.work <- q
		d.signal <- struct{}{}
	}
	d.runBatch(q, scratch, vals)
	return scratch
}

// runBatch evaluates one coalesced batch and delivers the results.
// When any pending in the batch is traced, the stage boundaries —
// batch pickup, kernel entry, kernel exit — are stamped so traced
// responses can report backend.queue / backend.coalesce /
// backend.kernel spans; untraced batches skip every clock read.
func (d *dispatcher) runBatch(q *queue, batch []*pending, vals int) {
	anyTraced := false
	for _, p := range batch {
		if p.traceID != 0 {
			anyTraced = true
			break
		}
	}
	var tAssemble int64
	if anyTraced {
		tAssemble = time.Now().UnixNano()
	}
	srcp := batchSrcPool.Get().(*[]uint32)
	src := (*srcp)[:0]
	for _, p := range batch {
		src = append(src, p.src...)
	}
	res := batchResPool.Get().(*batchResult)
	if cap(res.buf) < vals {
		res.buf = make([]uint32, vals)
	}
	dst := res.buf[:vals]
	res.refs.Store(int32(len(batch)))
	var tKern0 int64
	if anyTraced {
		tKern0 = time.Now().UnixNano()
	}
	q.ks.eval(dst, src)
	*srcp = src
	batchSrcPool.Put(srcp)

	now := time.Now()
	tKern1 := now.UnixNano()
	off := 0
	for _, p := range batch {
		p.dst = dst[off : off+len(p.src)]
		off += len(p.src)
		p.batch = res
		p.status = StatusOK
		if p.traceID != 0 {
			p.tAssemble, p.tKern0, p.tKern1 = tAssemble, tKern0, tKern1
		}
		if q.ks.fm != nil {
			q.ks.fm.lat.ObserveDuration(now.Sub(p.start))
		}
		p.out.deliver(p)
	}
	d.m.Batches.Add(1)
	d.m.BatchedValues.Add(uint64(vals))
	d.m.batchSize.Observe(uint64(vals))
	q.sh.inflight.Add(-int64(vals))
	d.inflight.Add(-int64(vals))
}

// syncSink adapts the asynchronous delivery to a blocking call for
// tests and simple callers.
type syncSink struct{ ch chan *pending }

func (s *syncSink) deliver(p *pending) { s.ch <- p }

// evalSync submits src for key and blocks until the coalesced batch
// containing it has been evaluated. It copies the results into a fresh
// slice (the batch buffer is recycled) — the serving path uses the
// zero-copy asynchronous submit instead.
func (d *dispatcher) evalSync(key batchKey, hint uint32, src []uint32) ([]uint32, uint8) {
	ks := d.lookup(key.typ, []byte(key.name))
	if ks == nil {
		if TypeWidth(key.typ) == 0 {
			return nil, StatusUnknownType
		}
		return nil, StatusUnknownFunc
	}
	if len(src) == 0 {
		return nil, StatusOK
	}
	p := getPending(len(src))
	copy(p.src, src)
	s := &syncSink{ch: make(chan *pending, 1)}
	p.ks, p.out, p.start = ks, s, time.Now()
	if st := d.submit(p, hint); st != StatusOK {
		p.release()
		return nil, st
	}
	<-s.ch
	out := make([]uint32, len(p.dst))
	copy(out, p.dst)
	p.release()
	return out, StatusOK
}

// shutdown waits for all admitted work to finish, then stops the
// workers. The server guarantees no new submits arrive before calling
// this (connections are drained first), so inflight can only fall;
// once it reaches zero no queue holds pendings and no wakeups or
// signal tokens can be outstanding, making close(signal) safe.
func (d *dispatcher) shutdown(ctx context.Context) error {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for d.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	close(d.signal)
	d.wg.Wait()
	return nil
}
