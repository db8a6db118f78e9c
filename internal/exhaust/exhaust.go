// Package exhaust proves (or refutes) correct rounding over the entire
// float32 input space: a sharded, parallel sweep evaluates a library
// over all 2^32 bit patterns and compares every result against the
// correctly rounded value.
//
// This is the paper's acceptance bar — RLIBM-32 reports full 2^32
// exhaustive validation per function — made affordable by a two-tier
// check. Tier one computes the reference in double precision
// (filter.go) and asks oracle.RoundDecided32 whether a guard band
// around it pins the float32 rounding; only when the band straddles a
// rounding boundary, or the library disagrees with the decided value,
// does tier two run the arbitrary-precision Ziv oracle. In practice
// well under 0.01% of inputs escalate, so the sweep runs at
// hardware-filter speed instead of Ziv-ladder speed.
//
// Most inputs need neither tier: outputs come in long runs of identical
// bits (exp is 1.0 on every tiny input, ±Inf past overflow, +0 past
// underflow; a log repeats a value for up to ~2^7 neighbours). On a run
// that lies in one monotone piece of f, checking its two ends proves
// every input between them (monotone-run bracketing, sweepShard).
//
// The sweep is organized as contiguous ordinal shards (internal/fp's
// Ord32 rank order, rotated to start at +0): workers claim shards from
// an atomic counter, evaluate the library through its batch slice
// kernels, and fold per-shard results into a collector that maintains a
// completed-shard bitmap. The bitmap plus counters and mismatch log
// checkpoint to disk via atomic rename (checkpoint.go), so an
// interrupted sweep resumes from the last completed shard with
// accounting identical to an uninterrupted run.
package exhaust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rlibm32/internal/baselines"
	"rlibm32/internal/bigfp"
	"rlibm32/internal/checks"
	"rlibm32/internal/fp"
	"rlibm32/internal/oracle"
	"rlibm32/internal/telemetry"

	rlibm "rlibm32"
)

const (
	// batchSize is the slice-kernel batch within a shard.
	batchSize = 4096
	// maxMismatches caps the retained mismatch log (the count is always
	// exact; only the log truncates).
	maxMismatches = 1 << 16
	// canonicalNaN32 is the want-bits recorded for a NaN-in/NaN-out
	// violation.
	canonicalNaN32 = 0x7FC00000
)

// Config parameterizes one sweep.
type Config struct {
	// Func is the function name ("ln", "log2", ... — rlibm.Names()).
	Func string
	// Lib is the library under test: "rlibm" (default) or one of the
	// baselines ("fastfloat", "stddouble", "crdouble", "vecfloat").
	Lib string
	// Workers is the sweep parallelism (default GOMAXPROCS).
	Workers int
	// ShardBits is log2 of the shard size in inputs (default 20, i.e.
	// 4096 shards of 1Mi inputs for a full sweep). Valid range 8..30.
	ShardBits int
	// Limit bounds the sweep to the first Limit inputs of the sweep
	// order (0 = the full 2^32). The order starts at +0 and walks the
	// positive patterns upward, so bounded CI slices cover zeros,
	// denormals and small normals first.
	Limit uint64
	// GuardUlps is the filter guard-band half-width in float64 ulps
	// (default oracle.DefaultGuardUlps).
	GuardUlps float64
	// CheckpointPath enables resumable checkpointing when non-empty.
	CheckpointPath string
	// Resume loads CheckpointPath if it exists and skips its completed
	// shards. Without Resume an existing checkpoint is overwritten.
	Resume bool
	// CheckpointEvery is the number of completed shards between
	// checkpoint writes (default 64).
	CheckpointEvery int
	// Progress, when non-nil, receives a Snapshot at least every
	// ProgressEvery (default 2s) while shards complete, and once at the
	// end.
	Progress      func(Snapshot)
	ProgressEvery time.Duration
	// Metrics, when non-nil, exports sweep progress (completed shards,
	// checked inputs, oracle escalations, mismatches) as counters
	// labelled by func/lib on this registry, so a long sweep can be
	// scraped remotely. Nil costs nothing.
	Metrics *telemetry.Registry

	// sliceOverride substitutes the library slice kernel (tests inject
	// deliberately wrong implementations with it).
	sliceOverride func(dst, xs []float32)
	// pointwise disables monotone-run bracketing, checking every input
	// through the reference (tests compare the two paths).
	pointwise bool
	// refOverride substitutes the double reference (tests).
	refOverride func(float64) float64
}

// Snapshot is a progress observation.
type Snapshot struct {
	ShardsDone, ShardsTotal uint64
	// Inputs counts all checked inputs including those restored from a
	// resumed checkpoint; RunInputs only those checked by this process.
	Inputs, RunInputs uint64
	Escalated         uint64
	Bracketed         uint64
	Mismatched        uint64
	Elapsed           time.Duration
}

// Report is the outcome of a sweep.
type Report struct {
	Func, Lib string

	// Inputs = NaNInputs + Filtered + Escalated + Bracketed over
	// completed shards.
	Inputs     uint64
	NaNInputs  uint64 // NaN bit patterns (checked for NaN-in/NaN-out)
	Filtered   uint64 // decided by the float64 guard-band filter alone
	Escalated  uint64 // consulted the arbitrary-precision oracle
	Bracketed  uint64 // proved by the two checked ends of their output run
	Mismatched uint64 // oracle-refuted results (exact count)

	// Mismatches is the retained log, sorted by input ordinal;
	// LogTruncated reports whether it was capped at maxMismatches.
	Mismatches   []Mismatch
	LogTruncated bool

	ShardsDone, ShardsTotal uint64
	// Complete is true when every shard ran (false after cancellation).
	Complete bool
	Elapsed  time.Duration
}

// EscalationFraction is the share of non-NaN inputs that needed the
// Ziv oracle — the filter-effectiveness headline number.
func (r *Report) EscalationFraction() float64 {
	if n := r.Filtered + r.Escalated + r.Bracketed; n > 0 {
		return float64(r.Escalated) / float64(n)
	}
	return 0
}

// TableResult converts the sweep outcome into the harness's Table-style
// accounting cell (lowest-ordinal mismatch as the example, matching
// internal/checks semantics).
func (r *Report) TableResult() checks.Result {
	res := checks.Result{
		Library: r.Lib, Func: r.Func,
		Tested: int(r.Inputs), Wrong: int(r.Mismatched),
	}
	if len(r.Mismatches) > 0 {
		best := r.Mismatches[0]
		for _, m := range r.Mismatches[1:] {
			if fp.OrdBits32(m.Bits) < fp.OrdBits32(best.Bits) {
				best = m
			}
		}
		res.Example = float64(math.Float32frombits(best.Bits))
	}
	return res
}

// sweepBits maps sweep index i to the float32 bit pattern it visits:
// rank order rotated to start at +0 (positive patterns ascending, then
// negative patterns ascending by ordinal, i.e. most-negative NaN block
// up to -0).
func sweepBits(i uint64) uint32 {
	return fp.FromOrdBits32(uint32(i) + 1<<31)
}

// engine is the resolved, immutable sweep plan shared by the workers.
type engine struct {
	cfg       Config
	of        bigfp.Func
	slice     func(dst, xs []float32)
	ref       func(float64) float64
	piece     func(float64) float64
	guard     float64
	shardBits uint
	limit     uint64
	nShards   uint64
}

// shardAcc accumulates one shard's results (merged only if the whole
// shard completes).
type shardAcc struct {
	inputs, nan, filtered, escalated, bracketed, mismatched uint64
	mismatches                                              []Mismatch
	truncated                                               bool
}

func (a *shardAcc) note(x, got, want float32) {
	a.mismatched++
	if len(a.mismatches) < maxMismatches {
		a.mismatches = append(a.mismatches, Mismatch{
			Bits: math.Float32bits(x),
			Got:  math.Float32bits(got),
			Want: math.Float32bits(want),
		})
	} else {
		a.truncated = true
	}
}

// collector serializes merging of completed shards with the persisted
// state.
type collector struct {
	mu        sync.Mutex
	state     *checkpoint
	path      string
	every     int
	sinceSave int
	truncated bool

	shardsDone  uint64
	startInputs uint64
	start       time.Time
	progress    func(Snapshot)
	progEvery   time.Duration
	lastProg    time.Time
	saveErr     error

	// Scrape counters (nil handles are no-ops when Config.Metrics is
	// unset).
	mShards, mInputs, mEscalated, mBracketed, mMismatched *telemetry.Counter
}

func (c *collector) snapshotLocked(total uint64) Snapshot {
	return Snapshot{
		ShardsDone:  c.shardsDone,
		ShardsTotal: total,
		Inputs:      c.state.Inputs,
		RunInputs:   c.state.Inputs - c.startInputs,
		Escalated:   c.state.Escalated,
		Bracketed:   c.state.Bracketed,
		Mismatched:  c.state.Mismatched,
		Elapsed:     time.Since(c.start),
	}
}

// merge folds a completed shard into the state, checkpoints on cadence,
// and reports progress.
func (c *collector) merge(s uint64, acc *shardAcc, e *engine) {
	c.mu.Lock()
	st := c.state
	st.Inputs += acc.inputs
	st.NaNInputs += acc.nan
	st.Filtered += acc.filtered
	st.Escalated += acc.escalated
	st.Bracketed += acc.bracketed
	st.Mismatched += acc.mismatched
	for _, m := range acc.mismatches {
		if len(st.Mismatches) >= maxMismatches {
			c.truncated = true
			break
		}
		st.Mismatches = append(st.Mismatches, m)
	}
	if acc.truncated {
		c.truncated = true
	}
	st.markDone(s)
	c.shardsDone++
	c.sinceSave++
	c.mShards.Add(1)
	c.mInputs.Add(acc.inputs)
	c.mEscalated.Add(acc.escalated)
	c.mBracketed.Add(acc.bracketed)
	c.mMismatched.Add(acc.mismatched)
	var snap Snapshot
	emit := false
	// The final snapshot is emitted by Run; merge only throttles.
	if c.progress != nil && time.Since(c.lastProg) >= c.progEvery && c.shardsDone < e.nShards {
		c.lastProg = time.Now()
		snap = c.snapshotLocked(e.nShards)
		emit = true
	}
	if c.path != "" && (c.sinceSave >= c.every || c.shardsDone == e.nShards) {
		c.sinceSave = 0
		if err := st.save(c.path); err != nil && c.saveErr == nil {
			c.saveErr = err
		}
	}
	c.mu.Unlock()
	if emit {
		c.progress(snap)
	}
}

// Run executes the sweep until every shard completes or ctx is
// canceled. On cancellation it returns the partial Report (Complete ==
// false) with the checkpoint flushed, so a later Resume run finishes
// the job; the returned error is nil in both cases — errors mean the
// sweep could not run or could not persist its state.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}

	state := &checkpoint{
		Version: checkpointVersion, Func: e.cfg.Func, Lib: e.cfg.Lib,
		ShardBits: int(e.shardBits), Limit: e.limit, GuardUlps: e.guard,
		Done: make([]byte, (e.nShards+7)/8),
	}
	if cfg.CheckpointPath != "" && cfg.Resume {
		cp, err := loadCheckpoint(cfg.CheckpointPath, *state)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume from: fresh sweep.
		case err != nil:
			return nil, err
		default:
			state = cp
		}
	}

	// Workers never write the bitmap; they skip resume-completed shards
	// via this frozen copy while the collector mutates state.Done.
	preDone := make([]byte, len(state.Done))
	copy(preDone, state.Done)
	pre := &checkpoint{Done: preDone}
	var preShards uint64
	for s := uint64(0); s < e.nShards; s++ {
		if pre.done(s) {
			preShards++
		}
	}

	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 64
	}
	progEvery := cfg.ProgressEvery
	if progEvery <= 0 {
		progEvery = 2 * time.Second
	}
	col := &collector{
		state: state, path: cfg.CheckpointPath, every: every,
		shardsDone: preShards, startInputs: state.Inputs,
		start: time.Now(), progress: cfg.Progress, progEvery: progEvery,
		lastProg: time.Now(),
	}
	if reg := cfg.Metrics; reg != nil {
		lbl := []string{"func", e.cfg.Func, "lib", e.cfg.Lib}
		col.mShards = reg.Counter("rlibm_exhaust_shards_done_total",
			"completed sweep shards", lbl...)
		col.mInputs = reg.Counter("rlibm_exhaust_inputs_total",
			"inputs checked by this process", lbl...)
		col.mEscalated = reg.Counter("rlibm_exhaust_escalated_total",
			"inputs that consulted the arbitrary-precision oracle", lbl...)
		col.mBracketed = reg.Counter("rlibm_exhaust_bracketed_total",
			"inputs proved by the checked ends of their monotone output run", lbl...)
		col.mMismatched = reg.Counter("rlibm_exhaust_mismatches_total",
			"oracle-refuted library results", lbl...)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := next.Add(1) - 1
				if s >= e.nShards || ctx.Err() != nil {
					return
				}
				if pre.done(s) {
					continue
				}
				acc := e.sweepShard(ctx, s)
				if acc == nil { // canceled mid-shard: discard partial work
					return
				}
				col.merge(s, acc, e)
			}
		}()
	}
	wg.Wait()

	col.mu.Lock()
	defer col.mu.Unlock()
	if col.path != "" {
		if err := state.save(col.path); err != nil {
			return nil, err
		}
	}
	if col.saveErr != nil {
		return nil, col.saveErr
	}
	rep := &Report{
		Func: e.cfg.Func, Lib: e.cfg.Lib,
		Inputs: state.Inputs, NaNInputs: state.NaNInputs,
		Filtered: state.Filtered, Escalated: state.Escalated,
		Bracketed:    state.Bracketed,
		Mismatched:   state.Mismatched,
		Mismatches:   append([]Mismatch(nil), state.Mismatches...),
		LogTruncated: col.truncated,
		ShardsDone:   col.shardsDone, ShardsTotal: e.nShards,
		Complete: col.shardsDone == e.nShards,
		Elapsed:  time.Since(col.start),
	}
	sort.Slice(rep.Mismatches, func(i, j int) bool {
		return fp.OrdBits32(rep.Mismatches[i].Bits) < fp.OrdBits32(rep.Mismatches[j].Bits)
	})
	if cfg.Progress != nil {
		cfg.Progress(col.snapshotLocked(e.nShards))
	}
	return rep, nil
}

// newEngine validates the configuration and resolves the function,
// library kernel, reference, and shard layout.
func newEngine(cfg Config) (*engine, error) {
	if cfg.Lib == "" {
		cfg.Lib = "rlibm"
	}
	ref, ok := Ref64(cfg.Func)
	if !ok {
		return nil, fmt.Errorf("exhaust: unknown function %q", cfg.Func)
	}
	if cfg.refOverride != nil {
		ref = cfg.refOverride
	}
	of, ok := checks.OracleFunc[cfg.Func]
	if !ok {
		return nil, fmt.Errorf("exhaust: no oracle for %q", cfg.Func)
	}
	slice := cfg.sliceOverride
	if slice == nil {
		if cfg.Lib == "rlibm" {
			slice, ok = rlibm.FuncSlice(cfg.Func)
			if !ok {
				return nil, fmt.Errorf("exhaust: rlibm has no slice kernel for %q", cfg.Func)
			}
		} else {
			scalar := baselines.Func32(baselines.Library(cfg.Lib), cfg.Func)
			if scalar == nil {
				return nil, fmt.Errorf("exhaust: library %q does not implement %q", cfg.Lib, cfg.Func)
			}
			slice = func(dst, xs []float32) {
				for i, x := range xs {
					dst[i] = scalar(x)
				}
			}
		}
	}
	shardBits := cfg.ShardBits
	if shardBits == 0 {
		shardBits = 20
	}
	if shardBits < 8 || shardBits > 30 {
		return nil, fmt.Errorf("exhaust: shard bits %d outside [8, 30]", shardBits)
	}
	limit := cfg.Limit
	if limit == 0 || limit > 1<<32 {
		limit = 1 << 32
	}
	guard := cfg.GuardUlps
	if guard <= 0 {
		guard = oracle.DefaultGuardUlps
	}
	shardSize := uint64(1) << shardBits
	return &engine{
		cfg: cfg, of: of, slice: slice, ref: ref, piece: pieceKey(cfg.Func), guard: guard,
		shardBits: uint(shardBits), limit: limit,
		nShards: (limit + shardSize - 1) / shardSize,
	}, nil
}

// sweepShard checks every input of shard s, returning nil if ctx was
// canceled before the shard finished (partial results are discarded so
// resume accounting stays exact).
//
// Each batch is split into maximal runs of identical output bits over
// non-NaN inputs in one monotone piece of f (checkBatch). A run of three or
// more is bracketed: if both ends are correctly rounded, so is every
// input between them, since f is monotone on the run and so is
// round-to-nearest, which puts the correctly rounded value of each
// interior input between the ends' equal values. The verdict is the
// pointwise one on every input: a run whose ends do not both pass is
// checked input by input, in sweep order, so mismatch counts and logs
// are those of a pointwise sweep.
func (e *engine) sweepShard(ctx context.Context, s uint64) *shardAcc {
	lo := s << e.shardBits
	hi := lo + 1<<e.shardBits
	if hi > e.limit {
		hi = e.limit
	}
	acc := &shardAcc{}
	var xs, dst [batchSize]float32
	for base := lo; base < hi; base += batchSize {
		if ctx.Err() != nil {
			return nil
		}
		n := int(hi - base)
		if n > batchSize {
			n = batchSize
		}
		for j := 0; j < n; j++ {
			xs[j] = math.Float32frombits(sweepBits(base + uint64(j)))
		}
		e.slice(dst[:n], xs[:n])
		e.checkBatch(acc, xs[:n], dst[:n])
	}
	return acc
}

// checkBatch checks a contiguous stretch of the sweep order, xs, against
// the library results dst, run by run. Inputs outside bracketed runs are
// checked one by one in sweep order, gathered into stretches.
func (e *engine) checkBatch(acc *shardAcc, xs, dst []float32) {
	acc.inputs += uint64(len(xs))
	if e.cfg.pointwise {
		e.checkEach(acc, xs, dst)
		return
	}
	pending := 0 // xs[pending:j] awaits checkEach
	for j := 0; j < len(xs); {
		k := sameBitsEnd(xs, dst, j)
		if k-j < 3 {
			j = k
			continue
		}
		last, p := e.pieceOf(xs[k-1]), e.pieceOf(xs[j])
		if 3*(last.key-p.key+1) > float64(k-j) {
			// The ends' keys are integers more than a third of the
			// run's length apart, so its pieces hold fewer than three
			// inputs on average and few could be bracketed (sinpi's
			// zeros on integers past 2^23 are one output over as many
			// pieces as inputs). Checking every input is always sound.
			j = k
			continue
		}
		e.checkEach(acc, xs[pending:j], dst[pending:j])
		// Cut xs[j:k] at piece boundaries. Piece keys are non-decreasing
		// along the sweep, so once a piece equals the last input's, it
		// runs to k; before that, the walk stops at the first input of
		// the next piece, whose key it carries over, so each input's key
		// is taken once.
		for j < k {
			m, next := k, last
			if p != last {
				for m = j + 1; ; m++ {
					if next = e.pieceOf(xs[m]); next != p {
						break
					}
				}
			}
			e.bracket(acc, xs[j:m], dst[j:m])
			j, p = m, next
		}
		pending = k
	}
	e.checkEach(acc, xs[pending:], dst[pending:])
}

// sameBitsEnd returns the end of the maximal stretch from j of
// identical output bits over non-NaN inputs and outputs (j+1 when
// xs[j] or dst[j] is NaN).
func sameBitsEnd(xs, dst []float32, j int) int {
	if xs[j] != xs[j] || dst[j] != dst[j] {
		return j + 1
	}
	b := math.Float32bits(dst[j])
	k := j + 1
	for k < len(xs) && math.Float32bits(dst[k]) == b && xs[k] == xs[k] {
		k++
	}
	return k
}

// piece names a monotone piece of f: the sign of x and its piece key.
type piece struct {
	neg bool
	key float64
}

func (e *engine) pieceOf(x float32) piece {
	return piece{math.Signbit(float64(x)), e.piece(float64(x))}
}

// bracket checks the run xs (one output value, one monotone piece) from
// its two ends, falling back to checkEach on the interior when either
// end is wrong, and on the whole of a run shorter than three. The last
// end's verdict is tallied after the interior's so the mismatch log
// keeps sweep order.
func (e *engine) bracket(acc *shardAcc, xs, dst []float32) {
	last := len(xs) - 1
	if last < 2 {
		e.checkEach(acc, xs, dst)
		return
	}
	want, escalated, ok := e.verdict(xs[0], dst[0])
	acc.tally(xs[0], dst[0], want, escalated, ok)
	if !ok {
		e.checkEach(acc, xs[1:], dst[1:])
		return
	}
	want, escalated, ok = e.verdict(xs[last], dst[last])
	if ok {
		acc.bracketed += uint64(last - 1)
	} else {
		e.checkEach(acc, xs[1:last], dst[1:last])
	}
	acc.tally(xs[last], dst[last], want, escalated, ok)
}

// checkEach checks every input of xs against its library result.
func (e *engine) checkEach(acc *shardAcc, xs, dst []float32) {
	for i, x := range xs {
		got := dst[i]
		if x != x {
			// NaN input: the only contract is NaN out.
			acc.nan++
			if got == got {
				acc.note(x, got, math.Float32frombits(canonicalNaN32))
			}
			continue
		}
		want, escalated, ok := e.verdict(x, got)
		acc.tally(x, got, want, escalated, ok)
	}
}

// verdict decides whether got is the correctly rounded f(x) for a
// non-NaN x, returning the correct value and whether the
// arbitrary-precision oracle was consulted.
func (e *engine) verdict(x, got float32) (want float32, escalated, ok bool) {
	ref := e.ref(float64(x))
	if ref != ref {
		// Domain error: every Ref64 reference returns NaN exactly when
		// the mathematical result is NaN (e.g. the whole negative
		// half-line for the log family), so a NaN reference decides the
		// check without the oracle.
		return math.Float32frombits(canonicalNaN32), false, got != got
	}
	want, escalated = oracle.Float32Guarded(e.of, float64(x), ref, e.guard)
	if fp.Same32(want, got) {
		return want, escalated, true
	}
	if !escalated {
		// The filter refuted the library. Its verdict leans on the
		// reference's ulp contract, so confirm with the full Ziv ladder
		// before recording a mismatch.
		want = oracle.Float32(e.of, float64(x))
	}
	return want, true, fp.Same32(want, got)
}

// tally records one checked non-NaN input.
func (a *shardAcc) tally(x, got, want float32, escalated, ok bool) {
	if escalated {
		a.escalated++
	} else {
		a.filtered++
	}
	if !ok {
		a.note(x, got, want)
	}
}
