// Package gentool orchestrates the full RLIBM-32 generation pipeline
// (Algorithm 1): oracle results → rounding intervals → reduced
// intervals → counterexample-guided piecewise polynomials → validated
// function implementations, plus the Go-source emission of the
// generated tables.
//
// Where the paper enumerates all 2^32 inputs, this reproduction samples
// deterministically and uniformly in *ordinal* space (exactly the
// paper's "inputs proportional to the number of representable values"),
// densifies around every special-case boundary, and closes the loop
// with an outer counterexample pass: the freshly generated library is
// validated against the oracle on an independent sample and any
// mismatching input's constraints are fed back before regenerating.
package gentool

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"rlibm32/internal/interval"
	"rlibm32/internal/oracle"
	"rlibm32/internal/polygen"
	"rlibm32/internal/rangered"
	"rlibm32/internal/redint"
	"rlibm32/internal/telemetry"
)

// debugGen enables mismatch diagnostics (set via RLIBMGEN_DEBUG=1).
var debugGen = os.Getenv("RLIBMGEN_DEBUG") != ""

// Config tunes the pipeline.
type Config struct {
	Variant rangered.Variant
	// InputsPerFunc is the deterministic generation sample size.
	InputsPerFunc int
	// ValidatePerFunc is the independent validation sample size.
	ValidatePerFunc int
	// EdgeWindow adds every representable value within this many
	// ordinals of each domain boundary.
	EdgeWindow int64
	// MaxOuterRounds bounds the outer validate-and-refeed loop.
	MaxOuterRounds int
	// Workers is the oracle parallelism (0 = GOMAXPROCS).
	Workers int
	// ExtraInputs adds caller-supplied inputs (embedded target values)
	// to the generation sample — cmd/rlibmgen passes the correctness
	// harness's own lattice, matching the paper's methodology of
	// constraining on every input it will be tested on. Special-case
	// inputs are filtered out automatically.
	ExtraInputs []float64
	// Polygen overrides (Terms comes from the family unless
	// TermsOverride is set — used by the Figure 5 sweep to trade
	// degree against sub-domain count).
	MaxIndexBits    uint
	MinIndexBits    uint
	SampleThreshold int
	TermsOverride   [][]int
	// FeasibilityOnly switches the LP back to the paper's pure
	// feasibility setting (ablation).
	FeasibilityOnly bool
	// Trace, when non-nil, records the generation timeline (oracle
	// passes, CEGIS outer rounds, per-sub-domain LP solves, validation)
	// as spans for rlibmgen -trace. Nil is free.
	Trace *telemetry.Trace
}

func (c Config) withDefaults() Config {
	if c.InputsPerFunc == 0 {
		c.InputsPerFunc = 100000
	}
	if c.ValidatePerFunc == 0 {
		c.ValidatePerFunc = 2 * c.InputsPerFunc
	}
	if c.EdgeWindow == 0 {
		c.EdgeWindow = 128
	}
	if c.MaxOuterRounds == 0 {
		c.MaxOuterRounds = 14
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats describes one generated function for the Table 3 reproduction.
type Stats struct {
	Name          string
	Variant       string
	GenTime       time.Duration
	OracleTime    time.Duration
	PolyTime      time.Duration // polynomial generation (LP + CEGIS)
	ValidateTime  time.Duration // outer validation passes
	Inputs        int           // original inputs with constraints
	ReducedInputs []int         // unique reduced constraints per reduced function
	NumPolys      []int         // piecewise sub-domain count per reduced function
	Degree        []int
	NumTerms      []int
	LPCalls       int
	OuterRounds   int
	Mismatches    int // remaining validation mismatches (0 on success)
	// LP engine breakdown (see polygen.Stats).
	PresolveAccepted int
	PresolveRejected int
	WarmSolves       int
	ColdSolves       int
	Pivots           int // exact-tableau pivot operations
	// OracleQueries counts correctly-rounded target lookups issued by
	// this function's generation and validation passes (cache hits
	// included).
	OracleQueries int
	// MaxZivPrec is the highest Ziv-ladder precision (bits) any oracle
	// evaluation needed while this function generated; 0 means every
	// evaluation was served by the cache or decided by tier 0 (the
	// double reference guard band for the target, the double-double
	// evaluator for the float64 reduced-function values).
	// OracleTier0 and OracleZivRuns count the uncached evaluations
	// decided by tier 0 and by the ladder. All three are exact when
	// one function generates at a time (rlibmgen -jobs=1); with
	// concurrent generation the process-wide ladder counters overlap
	// and the values are upper bounds.
	MaxZivPrec    uint
	OracleTier0   uint64
	OracleZivRuns uint64
}

// Result is one generated function implementation.
type Result struct {
	Name   string
	Fam    rangered.Family
	Pieces []*polygen.Piecewise // one per reduced elementary function
	Stats  Stats
}

// Eval runs the generated implementation in double precision
// (pre-rounding); the runtime library mirrors this exact sequence.
func (r *Result) Eval(x float64) float64 {
	if y, ok := r.Fam.Special(x); ok {
		return y
	}
	red, c := r.Fam.Reduce(x)
	var vals [2]float64
	for i, p := range r.Pieces {
		vals[i] = p.Eval(red)
	}
	return r.Fam.OC(vals, c)
}

// Constraints runs the oracle/interval half of the pipeline once:
// it samples inputs, computes rounding and reduced intervals, and
// returns the family plus the merged per-reduced-function constraint
// lists. The Figure 5 sweep uses this to amortize the oracle cost over
// many splitting depths.
func Constraints(name string, cfg Config) (rangered.Family, [][]polygen.Constraint, error) {
	cfg = cfg.withDefaults()
	fam, err := rangered.Build(name, cfg.Variant)
	if err != nil {
		return nil, nil, err
	}
	tgt := cfg.Variant.Target()
	gen := sampleOrdinals(tgt, fam, cfg.InputsPerFunc, cfg.EdgeWindow, 0)
	gen = appendExtra(gen, fam, cfg.ExtraInputs)
	cons, err := constraintsFor(fam, tgt, gen, cfg.Workers)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	for i := range cons {
		cons[i], err = polygen.MergeByInput(cons[i])
		if err != nil {
			return nil, nil, fmt.Errorf("%s (reduced func %d): %w", name, i, err)
		}
	}
	return fam, cons, nil
}

// appendExtra merges caller-supplied inputs into a sample, filtering
// NaN, special cases and out-of-domain values.
func appendExtra(gen []float64, fam rangered.Family, extra []float64) []float64 {
	if len(extra) == 0 {
		return gen
	}
	seen := make(map[float64]struct{}, len(gen))
	for _, x := range gen {
		seen[x] = struct{}{}
	}
	for _, x := range extra {
		if math.IsNaN(x) {
			continue
		}
		if _, sp := fam.Special(x); sp {
			continue
		}
		if !inDomains(fam, x) {
			continue
		}
		if _, dup := seen[x]; !dup {
			seen[x] = struct{}{}
			gen = append(gen, x)
		}
	}
	sort.Float64s(gen)
	return gen
}

// GenerateFunc runs the full pipeline for one function.
func GenerateFunc(name string, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	fam, err := rangered.Build(name, cfg.Variant)
	if err != nil {
		return nil, err
	}
	tgt := cfg.Variant.Target()
	nf := len(fam.Funcs())
	tc := cfg.Trace.NewContext("gen:" + name)
	ziv0 := oracle.Ziv()
	oracleQueries := 0

	gen := sampleOrdinals(tgt, fam, cfg.InputsPerFunc, cfg.EdgeWindow, 0)
	gen = appendExtra(gen, fam, cfg.ExtraInputs)
	cons := make([][]polygen.Constraint, nf)
	oracleStart := time.Now()
	osp := tc.Start("oracle.constraints")
	cs0, z0 := oracle.Stats(), oracle.Ziv()
	newCons, err := constraintsFor(fam, tgt, gen, cfg.Workers)
	if osp != nil {
		cs1, z := oracle.Stats(), oracle.Ziv().Sub(z0)
		osp.Arg("inputs", len(gen)).
			Arg("cache_hits", int64(cs1.Hits-cs0.Hits)).
			Arg("tier0", int64(z.Tier0)).
			Arg("ziv_runs", int64(z.Runs()-z.Tier0))
		osp.End()
	}
	oracleQueries += len(gen)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for i := 0; i < nf; i++ {
		cons[i] = append(cons[i], newCons[i]...)
	}
	oracleTime := time.Since(oracleStart)

	res := &Result{Name: name, Fam: fam}
	var pstats polygen.Stats
	var polyTime, validateTime time.Duration
	rounds := 0
	mismatches := 0
	// The validation sample is deterministic and round-independent:
	// draw it once, not once per outer round.
	val := sampleOrdinals(tgt, fam, cfg.ValidatePerFunc, cfg.EdgeWindow, 1)
	for round := 0; round < cfg.MaxOuterRounds; round++ {
		rounds = round + 1
		rsp := tc.Start("cegis.outer")
		if rsp != nil {
			rsp.Arg("round", round)
		}
		res.Pieces = make([]*polygen.Piecewise, nf)
		res.Stats.ReducedInputs = res.Stats.ReducedInputs[:0]
		polyStart := time.Now()
		for i := 0; i < nf; i++ {
			merged, err := polygen.MergeByInput(append([]polygen.Constraint(nil), cons[i]...))
			if err != nil {
				return nil, fmt.Errorf("%s (reduced func %d): %w", name, i, err)
			}
			terms := fam.Terms()[i]
			if cfg.TermsOverride != nil {
				terms = cfg.TermsOverride[i]
			}
			pcfg := polygen.Config{
				Terms:           terms,
				MaxIndexBits:    cfg.MaxIndexBits,
				MinIndexBits:    cfg.MinIndexBits,
				SampleThreshold: cfg.SampleThreshold,
				FeasibilityOnly: cfg.FeasibilityOnly,
				Workers:         cfg.Workers,
				Trace:           cfg.Trace,
			}
			psp := tc.Start("polygen.generate")
			p0 := pstats
			pw, st, err := polygen.Generate(merged, pcfg)
			if err != nil {
				return nil, fmt.Errorf("%s (reduced func %d): %w", name, i, err)
			}
			pstats.Merge(st)
			if psp != nil {
				psp.Arg("reduced_func", i).Arg("constraints", len(merged)).
					Arg("polys", pw.NumPolynomials()).
					Arg("lp_calls", pstats.LPCalls-p0.LPCalls).
					Arg("pivots", pstats.Pivots-p0.Pivots).
					Arg("presolve_accepted", pstats.PresolveAccepted-p0.PresolveAccepted).
					Arg("exact_solves", pstats.WarmSolves+pstats.ColdSolves-p0.WarmSolves-p0.ColdSolves)
				psp.End()
			}
			res.Pieces[i] = pw
			res.Stats.ReducedInputs = append(res.Stats.ReducedInputs, len(merged))
		}
		polyTime += time.Since(polyStart)
		// Outer validation on an independent sample; feed back failures.
		valStart := time.Now()
		vsp := tc.Start("validate")
		bad, err := validate(res, tgt, val, cfg.Workers)
		if vsp != nil {
			vsp.Arg("inputs", len(val)).Arg("mismatches", len(bad))
			vsp.End()
		}
		oracleQueries += len(val)
		validateTime += time.Since(valStart)
		if err != nil {
			return nil, err
		}
		mismatches = len(bad)
		if rsp != nil {
			rsp.Arg("mismatches", mismatches)
		}
		rsp.End()
		if mismatches == 0 {
			break
		}
		if debugGen {
			for i, x := range bad {
				if i >= 5 {
					break
				}
				want, _ := oracle.Target(tgt, fam.Fn(), x)
				iv, _ := tgt.Interval(want)
				r, _ := fam.Reduce(x)
				fmt.Printf("gentool debug: %s round %d mismatch x=%b r=%b eval=%b want=%v interval=[%b,%b]\n",
					name, round, x, r, res.Eval(x), want, iv.Lo, iv.Hi)
			}
		}
		oracleStart = time.Now()
		osp := tc.Start("oracle.constraints")
		extra, err := constraintsFor(fam, tgt, bad, cfg.Workers)
		if osp != nil {
			osp.Arg("inputs", len(bad)).Arg("refeed", true)
			osp.End()
		}
		oracleQueries += len(bad)
		if err != nil {
			return nil, err
		}
		oracleTime += time.Since(oracleStart)
		for i := 0; i < nf; i++ {
			cons[i] = append(cons[i], extra[i]...)
		}
	}

	ziv := oracle.Ziv().Sub(ziv0)
	res.Stats = Stats{
		Name:             name,
		Variant:          cfg.Variant.String(),
		GenTime:          time.Since(start),
		OracleTime:       oracleTime,
		PolyTime:         polyTime,
		ValidateTime:     validateTime,
		Inputs:           len(gen),
		ReducedInputs:    res.Stats.ReducedInputs,
		LPCalls:          pstats.LPCalls,
		OuterRounds:      rounds,
		Mismatches:       mismatches,
		PresolveAccepted: pstats.PresolveAccepted,
		PresolveRejected: pstats.PresolveRejected,
		WarmSolves:       pstats.WarmSolves,
		ColdSolves:       pstats.ColdSolves,
		Pivots:           pstats.Pivots,
		OracleQueries:    oracleQueries,
		MaxZivPrec:       ziv.MaxPrec(),
		OracleTier0:      ziv.Tier0,
		OracleZivRuns:    ziv.Runs() - ziv.Tier0,
	}
	for _, pw := range res.Pieces {
		n, deg, terms := 0, 0, 0
		for _, t := range pw.Tables() {
			n += t.NumPolynomials()
			if d := t.Degree(); d > deg {
				deg = d
			}
			if len(t.Terms) > terms {
				terms = len(t.Terms)
			}
		}
		res.Stats.NumPolys = append(res.Stats.NumPolys, n)
		res.Stats.Degree = append(res.Stats.Degree, deg)
		res.Stats.NumTerms = append(res.Stats.NumTerms, terms)
	}
	if mismatches != 0 {
		return res, fmt.Errorf("%s: %d validation mismatches after %d rounds", name, mismatches, rounds)
	}
	return res, nil
}

// inDomains reports whether x lies in one of the family's sample
// domains.
func inDomains(fam rangered.Family, x float64) bool {
	for _, d := range fam.SampleDomains() {
		lo, hi := d[0], d[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo <= x && x <= hi {
			return true
		}
	}
	return false
}

// sampleOrdinals draws a deterministic ordinal-uniform sample over the
// family's domains, plus dense windows at every domain edge. phase
// offsets the stride so generation and validation samples differ.
func sampleOrdinals(t interval.Target, fam rangered.Family, n int, edge int64, phase int64) []float64 {
	domains := fam.SampleDomains()
	seen := make(map[int64]struct{}, n+int(edge)*4*len(domains))
	var xs []float64
	addOrd := func(o int64) {
		if _, dup := seen[o]; dup {
			return
		}
		seen[o] = struct{}{}
		x := t.FromOrd(o)
		if math.IsNaN(x) {
			return
		}
		if _, sp := fam.Special(x); sp {
			return
		}
		xs = append(xs, x)
	}
	perDomain := n / len(domains)
	for _, d := range domains {
		lo, hi := t.Ord(d[0]), t.Ord(d[1])
		if lo > hi {
			lo, hi = hi, lo
		}
		span := hi - lo
		if span <= 0 {
			continue
		}
		count := int64(perDomain)
		if span < count {
			count = span
		}
		stride := span / count
		off := (stride / 3) * phase // deterministic phase shift
		for k := int64(0); k < count; k++ {
			addOrd(lo + off%stride + k*stride)
		}
		for k := int64(0); k <= edge && k <= span; k++ {
			addOrd(lo + k)
			addOrd(hi - k)
		}
		// Interior hard points: inputs near ±2^k produce the tightest
		// rounding intervals for several families (most prominently the
		// logarithms near x = 1, whose outputs shrink toward zero while
		// their intervals shrink with them). Dense windows here force
		// the piecewise splitting the paper's Table 3 reports for ln.
		for e := -150; e <= 128; e++ {
			for _, sgn := range [2]float64{1, -1} {
				p := sgn * math.Ldexp(1, e)
				po := t.Ord(t.Round(p))
				if po <= lo || po >= hi {
					continue
				}
				for k := -edge; k <= edge; k++ {
					o := po + k
					if o >= lo && o <= hi {
						addOrd(o)
					}
				}
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// constraintsFor computes, in parallel, the reduced constraints of
// every input (Algorithm 1 lines 3-7 plus Algorithm 2).
func constraintsFor(fam rangered.Family, tgt interval.Target, xs []float64, workers int) ([][]polygen.Constraint, error) {
	nf := len(fam.Funcs())
	// Bulk-fill the oracle cache: each (func, input) runs the Ziv loop
	// exactly once here, and both this pass and every later outer-round
	// revisit of the same input are cache hits.
	oracle.PrecomputeTarget(tgt, fam.Fn(), xs)
	type item struct {
		ok   bool
		r    float64
		los  [2]float64
		his  [2]float64
		ctrs [2]float64
		x    float64
	}
	items := make([]item, len(xs))
	var wg sync.WaitGroup
	chunk := (len(xs) + workers - 1) / workers
	var firstErr error
	var errMu sync.Mutex
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(xs) {
			hi = len(xs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// Per-worker output-compensation closure, reused across
			// inputs instead of allocating once per input.
			var ocC rangered.Ctx
			oc := func(vs [2]float64) float64 { return fam.OC(vs, ocC) }
			funcs := fam.Funcs()
			for idx := lo; idx < hi; idx++ {
				x := xs[idx]
				y, ok := oracle.Target(tgt, fam.Fn(), x)
				if !ok {
					continue
				}
				iv, ok := tgt.Interval(y)
				if !ok {
					continue
				}
				r, c := fam.Reduce(x)
				var vals [2]float64
				for i, rf := range funcs {
					vals[i] = oracle.Float64(rf, r)
				}
				ocC = c
				los, his, ctrs, ok := redint.Deduce(vals, nf, oc, iv)
				if !ok {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("reduced-interval deduction failed at x=%v (Algorithm 2 line 8): redesign range reduction", x)
					}
					errMu.Unlock()
					return
				}
				items[idx] = item{ok: true, r: r, los: los, his: his, ctrs: ctrs, x: x}
			}
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out := make([][]polygen.Constraint, nf)
	for _, it := range items {
		if !it.ok {
			continue
		}
		for i := 0; i < nf; i++ {
			out[i] = append(out[i], polygen.Constraint{R: it.r, Lo: it.los[i], Hi: it.his[i], V: it.ctrs[i]})
		}
	}
	return out, nil
}

// validate compares the generated implementation against the oracle on
// xs, returning the mismatching inputs.
func validate(res *Result, tgt interval.Target, xs []float64, workers int) ([]float64, error) {
	// The counterexample search revisits the same validation sample
	// every outer round: after the first round's bulk fill the oracle
	// side of this loop is pure cache hits.
	oracle.PrecomputeTarget(tgt, res.Fam.Fn(), xs)
	bad := make([][]float64, workers)
	var wg sync.WaitGroup
	chunk := (len(xs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(xs) {
			hi = len(xs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for _, x := range xs[lo:hi] {
				got := tgt.Round(res.Eval(x))
				want, ok := oracle.Target(tgt, res.Fam.Fn(), x)
				if !ok {
					continue
				}
				if !tgt.SameResult(got, want) {
					bad[w] = append(bad[w], x)
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var all []float64
	for _, b := range bad {
		all = append(all, b...)
	}
	return all, nil
}
