// Package polygen implements counterexample-guided polynomial
// generation (Algorithm 4) and the piecewise driver (Algorithm 3).
//
// GenPolynomial samples a sub-domain's reduced constraints, asks the
// exact LP solver for coefficients, rounds them to double, repairs
// rounding-induced violations by shrinking the offending constraint one
// ulp at a time (the paper's search-and-refine), validates against the
// whole sub-domain, and feeds violations back into the sample. The
// driver starts with a single polynomial and doubles the number of
// bit-pattern sub-domains until every sub-domain succeeds.
package polygen

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rlibm32/internal/fp"
	"rlibm32/internal/lp"
	"rlibm32/internal/piecewise"
	"rlibm32/internal/telemetry"
)

// Constraint requires the generated approximation to produce a value in
// [Lo, Hi] (doubles, closed) at the reduced input R. V, when inside
// [Lo, Hi], is the correctly rounded double value of the reduced
// function at R: with Config.Tighten the LP is asked to stay close to
// V, which makes sampled generation generalize to unsampled inputs
// (their intervals also surround the function value, not the interval
// centers).
type Constraint struct {
	R, Lo, Hi float64
	V         float64
}

// Config tunes generation.
type Config struct {
	// Terms is the monomial exponent list of the polynomial to
	// generate (e.g. [0,1,2,3] dense cubic, [1,3,5] odd quintic).
	Terms []int
	// MinIndexBits starts splitting at 2^MinIndexBits sub-domains
	// (0 = try a single polynomial first).
	MinIndexBits uint
	// MaxIndexBits caps domain splitting at 2^MaxIndexBits sub-domains
	// (the paper uses up to 2^14).
	MaxIndexBits uint
	// SampleThreshold aborts a sub-domain when the CEGIS sample grows
	// beyond this (the paper's 50 000 with SoPlex; smaller here to suit
	// the pure-Go exact simplex — see DESIGN.md).
	SampleThreshold int
	// InitialSample is the size of the density-uniform seed sample.
	InitialSample int
	// MaxCounterexamplesPerRound bounds how many violated constraints
	// are added to the sample per CEGIS round (spread evenly).
	MaxCounterexamplesPerRound int
	// MaxRefine bounds the coefficient-rounding repair iterations.
	MaxRefine int
	// FeasibilityOnly drops the distance-to-value objective and accepts
	// any interval-feasible polynomial — the paper's exact LP setting,
	// kept for the ablation study (cmd/rlibmablate). Sound for sampled
	// constraints but generalizes poorly between samples; see DESIGN.md
	// §4b.
	FeasibilityOnly bool
	// Workers bounds how many sub-domains are generated concurrently
	// (0 = GOMAXPROCS). Output and Stats are bit-identical for every
	// value: sub-domains are independent, results land in disjoint
	// coefficient rows, and stats are merged in sub-domain order with
	// the same first-failure cutoff the serial loop has.
	Workers int
	// Trace, when non-nil, records per-sub-domain and per-LP-solve
	// spans (pivot counts, presolve vs exact outcomes) into per-worker
	// trace contexts — the rlibmgen -trace timeline. Generation output
	// is unaffected.
	Trace *telemetry.Trace

	// trace is the per-worker span context, plumbed by genPiecewise;
	// external callers set Trace and leave this nil.
	trace *telemetry.TraceContext
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxIndexBits == 0 {
		c.MaxIndexBits = 14
	}
	if c.SampleThreshold == 0 {
		c.SampleThreshold = 256
	}
	if c.InitialSample == 0 {
		c.InitialSample = 24
	}
	if c.MaxCounterexamplesPerRound == 0 {
		c.MaxCounterexamplesPerRound = 16
	}
	if c.MaxRefine == 0 {
		c.MaxRefine = 200
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats records generation effort for the Table 3 reproduction.
type Stats struct {
	LPCalls         int
	Refinements     int
	Counterexamples int
	SubdomainFails  int
	// LP engine breakdown (see lp.SolverStats): how many solves the
	// certified float64 presolve settled vs. how many fell through to
	// the exact simplex, and of those, how many warm-started.
	PresolveAccepted int
	PresolveRejected int
	WarmSolves       int
	ColdSolves       int
	Pivots           int // exact simplex pivot operations across all solves
}

// Merge folds o into st.
func (st *Stats) Merge(o *Stats) {
	st.LPCalls += o.LPCalls
	st.Refinements += o.Refinements
	st.Counterexamples += o.Counterexamples
	st.SubdomainFails += o.SubdomainFails
	st.PresolveAccepted += o.PresolveAccepted
	st.PresolveRejected += o.PresolveRejected
	st.WarmSolves += o.WarmSolves
	st.ColdSolves += o.ColdSolves
	st.Pivots += o.Pivots
}

// Piecewise is the generated approximation: per-sign piecewise tables.
type Piecewise struct {
	// Pos covers reduced inputs r >= 0, Neg covers r < 0; either may be
	// nil when the reduced domain is sign-homogeneous.
	Pos, Neg *piecewise.Table
}

// Eval evaluates the approximation at r in double precision.
func (p *Piecewise) Eval(r float64) float64 {
	t := p.Pos
	if r < 0 && p.Neg != nil {
		t = p.Neg
	}
	return t.Eval(r)
}

// NumPolynomials sums the sub-domain counts of both tables.
func (p *Piecewise) NumPolynomials() int {
	n := 0
	if p.Pos != nil {
		n += p.Pos.NumPolynomials()
	}
	if p.Neg != nil {
		n += p.Neg.NumPolynomials()
	}
	return n
}

// Tables returns the non-nil tables.
func (p *Piecewise) Tables() []*piecewise.Table {
	var ts []*piecewise.Table
	if p.Neg != nil {
		ts = append(ts, p.Neg)
	}
	if p.Pos != nil {
		ts = append(ts, p.Pos)
	}
	return ts
}

// ErrInfeasible reports that no polynomial with the configured
// structure satisfies the constraints even at maximum splitting.
var ErrInfeasible = errors.New("polygen: constraints infeasible at maximum splitting depth")

// MergeByInput intersects the intervals of constraints sharing the same
// reduced input (the paper's "single combined interval"). It returns an
// error if some reduced input has an empty combined interval, which
// means the range reduction must be redesigned.
func MergeByInput(cons []Constraint) ([]Constraint, error) {
	slices.SortFunc(cons, func(a, b Constraint) int { return cmp.Compare(a.R, b.R) })
	out := cons[:0]
	for _, c := range cons {
		if len(out) > 0 && out[len(out)-1].R == c.R {
			last := &out[len(out)-1]
			last.Lo = math.Max(last.Lo, c.Lo)
			last.Hi = math.Min(last.Hi, c.Hi)
			if last.Lo > last.Hi {
				return nil, fmt.Errorf("polygen: empty combined interval at r=%v", c.R)
			}
			// Keep a valid preferred value inside the intersection.
			if last.V < last.Lo {
				last.V = last.Lo
			}
			if last.V > last.Hi {
				last.V = last.Hi
			}
			continue
		}
		out = append(out, c)
	}
	return out, nil
}

// Generate runs Algorithm 3 over the merged constraints: it splits
// negative and non-negative reduced inputs into separate piecewise
// tables and deepens bit-pattern splitting until every sub-domain
// admits a polynomial. cons must already be merged (see MergeByInput)
// and is reordered in place.
func Generate(cons []Constraint, cfg Config) (*Piecewise, *Stats, error) {
	cfg = cfg.withDefaults()
	st := &Stats{}
	var neg, pos []Constraint
	for _, c := range cons {
		if c.R < 0 {
			neg = append(neg, c)
		} else {
			pos = append(pos, c)
		}
	}
	out := &Piecewise{}
	var err error
	if len(pos) > 0 {
		out.Pos, err = genApproxHelper(pos, cfg, st)
		if err != nil {
			return nil, st, err
		}
	}
	if len(neg) > 0 {
		out.Neg, err = genApproxHelper(neg, cfg, st)
		if err != nil {
			return nil, st, err
		}
	}
	if out.Pos == nil && out.Neg == nil {
		return nil, st, errors.New("polygen: no constraints")
	}
	return out, st, nil
}

// genApproxHelper deepens splitting until success (Algorithm 3).
func genApproxHelper(cons []Constraint, cfg Config, st *Stats) (*piecewise.Table, error) {
	sort.Slice(cons, func(i, j int) bool {
		return math.Abs(cons[i].R) < math.Abs(cons[j].R)
	})
	magBits := make([]uint64, len(cons))
	for i, c := range cons {
		magBits[i] = math.Float64bits(c.R) &^ (1 << 63)
	}
	for n := cfg.MinIndexBits; n <= cfg.MaxIndexBits; n++ {
		groups, shift, mn, mx, err := piecewise.Split(magBits, n)
		if err != nil {
			return nil, err
		}
		tbl, ok := genPiecewise(cons, groups, n, shift, mn, mx, cfg, st)
		if ok {
			return tbl, nil
		}
		st.SubdomainFails++
	}
	return nil, ErrInfeasible
}

// genPiecewise generates one polynomial per sub-domain, fanning the
// independent sub-domains across cfg.Workers goroutines. Determinism:
// each sub-domain writes a disjoint coefficient row and its own Stats;
// the rows are position-indexed and the stats are merged sequentially
// in sub-domain order, stopping at the first failed sub-domain —
// exactly what a serial loop would have accumulated. Workers only skip
// sub-domains *beyond* the earliest failure seen so far; since
// sub-domains are claimed in increasing order, everything at or before
// the true first failure always runs, so the cutoff is identical too.
func genPiecewise(cons []Constraint, groups []int, n, shift uint, mn, mx uint64, cfg Config, st *Stats) (*piecewise.Table, bool) {
	nGroups := 1 << n
	byGroup := make([][]Constraint, nGroups)
	for i, g := range groups {
		byGroup[g] = append(byGroup[g], cons[i])
	}
	nt := len(cfg.Terms)
	kind := piecewise.KindOf(cfg.Terms)
	coeffs := make([]float64, nGroups*nt)
	filled := make([]bool, nGroups)

	type groupRes struct {
		st Stats
		ok bool
	}
	res := make([]groupRes, nGroups)
	var next, failMin atomic.Int64
	failMin.Store(int64(nGroups))
	work := func(tc *telemetry.TraceContext) {
		wcfg := cfg
		wcfg.trace = tc
		for {
			g := int(next.Add(1) - 1)
			if g >= nGroups {
				return
			}
			if int64(g) > failMin.Load() {
				continue // result would be discarded by the merge cutoff
			}
			gc := byGroup[g]
			if len(gc) == 0 {
				res[g].ok = true
				continue
			}
			sp := tc.Start("subdomain")
			row, ok := GenPolynomial(gc, wcfg, &res[g].st)
			if sp != nil {
				gs := &res[g].st
				sp.Arg("split_bits", int(n)).Arg("group", g).
					Arg("constraints", len(gc)).Arg("lp_calls", gs.LPCalls).
					Arg("pivots", gs.Pivots).Arg("ok", ok)
				sp.End()
			}
			res[g].ok = ok
			if ok {
				copy(coeffs[g*nt:], row)
				filled[g] = true
			} else {
				for {
					cur := failMin.Load()
					if int64(g) >= cur || failMin.CompareAndSwap(cur, int64(g)) {
						break
					}
				}
			}
		}
	}
	workers := cfg.Workers
	if workers > nGroups {
		workers = nGroups
	}
	if workers <= 1 {
		work(cfg.Trace.NewContext("polygen-w1"))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			tc := cfg.Trace.NewContext(fmt.Sprintf("polygen-w%d", w+1))
			go func() {
				defer wg.Done()
				work(tc)
			}()
		}
		wg.Wait()
	}
	for g := 0; g < nGroups; g++ {
		if len(byGroup[g]) == 0 {
			continue
		}
		st.Merge(&res[g].st)
		if !res[g].ok {
			return nil, false
		}
	}
	// Fill empty sub-domains with the nearest generated polynomial so
	// runtime inputs that fall between sampled inputs still evaluate a
	// plausible neighbour polynomial.
	last := -1
	for g := 0; g < nGroups; g++ {
		if filled[g] {
			last = g
		} else if last >= 0 {
			copy(coeffs[g*nt:(g+1)*nt], coeffs[last*nt:(last+1)*nt])
		}
	}
	first := -1
	for g := 0; g < nGroups; g++ {
		if filled[g] {
			first = g
			break
		}
	}
	for g := 0; g < first; g++ {
		copy(coeffs[g*nt:(g+1)*nt], coeffs[first*nt:(first+1)*nt])
	}
	return &piecewise.Table{
		Terms: cfg.Terms, Kind: kind,
		N: n, Shift: shift, MinBits: mn, MaxBits: mx,
		Coeffs: coeffs,
	}, true
}

// sampleCon is one LP constraint with its (possibly refined)
// interval.
type sampleCon struct {
	idx    int // index into the sub-domain constraint slice
	lo, hi float64
}

// GenPolynomial is Algorithm 4: CEGIS with search-and-refine
// coefficient rounding. The LP minimizes the polynomial's weighted
// distance to the correctly rounded values V subject to the hard
// interval constraints (see internal/lp), which is what makes sampled
// generation generalize to unsampled inputs.
func GenPolynomial(gc []Constraint, cfg Config, st *Stats) ([]float64, bool) {
	cfg = cfg.withDefaults()
	lpc := gc
	kind := piecewise.KindOf(cfg.Terms)
	// One Solver per sub-domain: CEGIS rounds and refinement steps share
	// its monomial-power cache and warm-start basis (the sample only
	// grows or tightens, so consecutive LPs are near-identical).
	solver := lp.NewSolver()
	defer func() {
		st.PresolveAccepted += solver.Stats.PresolveAccepted
		st.PresolveRejected += solver.Stats.PresolveRejected
		st.WarmSolves += solver.Stats.WarmSolves
		st.ColdSolves += solver.Stats.ColdSolves
		st.Pivots += solver.Stats.Pivots
	}()
	inSample := make(map[int]bool)
	var sample []*sampleCon
	add := func(i int) {
		if inSample[i] {
			return
		}
		inSample[i] = true
		sample = append(sample, &sampleCon{idx: i, lo: lpc[i].Lo, hi: lpc[i].Hi})
	}
	// Density-uniform seed sample over the sorted constraints, plus the
	// tightest ("highly constrained") intervals.
	seed := cfg.InitialSample
	if seed > len(gc) {
		seed = len(gc)
	}
	for k := 0; k < seed; k++ {
		add(k * (len(gc) - 1) / max(1, seed-1))
	}
	addTightest(gc, add, 8)

	refines := 0
	for round := 0; ; round++ {
		sp := cfg.trace.Start("cegis.round")
		if sp != nil {
			sp.Arg("round", round).Arg("sample", len(sample))
		}
		coeffs, ok := solveAndRefine(solver, lpc, sample, cfg, kind, &refines, st)
		if !ok {
			sp.End()
			return nil, false
		}
		// Check against the entire sub-domain (Algorithm 4 lines 9-15).
		var violations []int
		for i, c := range gc {
			v := piecewise.EvalPoly(kind, cfg.Terms, coeffs, c.R)
			if !(c.Lo <= v && v <= c.Hi) {
				violations = append(violations, i)
			}
		}
		if sp != nil {
			sp.Arg("violations", len(violations))
		}
		sp.End()
		if len(violations) == 0 {
			return coeffs, true
		}
		st.Counterexamples += len(violations)
		// Add a spread of counterexamples to the sample.
		step := 1
		if len(violations) > cfg.MaxCounterexamplesPerRound {
			step = len(violations) / cfg.MaxCounterexamplesPerRound
		}
		added := 0
		for i := 0; i < len(violations); i += step {
			if !inSample[violations[i]] {
				add(violations[i])
				added++
			}
		}
		if added == 0 {
			// All violated constraints already sampled: the rounded
			// coefficients cannot satisfy them (refinement exhausted).
			return nil, false
		}
		if len(sample) > cfg.SampleThreshold {
			return nil, false
		}
	}
}

// addTightest adds the k tightest relative-width intervals.
func addTightest(gc []Constraint, add func(int), k int) {
	type tw struct {
		i int
		w float64
	}
	tws := make([]tw, len(gc))
	for i, c := range gc {
		scale := math.Max(math.Abs(c.Lo), math.Abs(c.Hi))
		if scale == 0 {
			scale = 1
		}
		tws[i] = tw{i, (c.Hi - c.Lo) / scale}
	}
	sort.Slice(tws, func(a, b int) bool { return tws[a].w < tws[b].w })
	for i := 0; i < k && i < len(tws); i++ {
		add(tws[i].i)
	}
}

// solveAndRefine runs the LP on the sample and repairs double-rounding
// of the coefficients by shrinking violated sample intervals one ulp at
// a time (the paper's search-and-refine).
func solveAndRefine(solver *lp.Solver, lpc []Constraint, sample []*sampleCon, cfg Config, kind piecewise.Kind, refines *int, st *Stats) ([]float64, bool) {
	prob := &lp.Problem{Terms: cfg.Terms, Cons: make([]lp.Constraint, 0, len(sample))}
	for {
		prob.Cons = prob.Cons[:0]
		for _, s := range sample {
			c := lp.Constraint{X: lpc[s.idx].R, Lo: s.lo, Hi: s.hi, V: lpc[s.idx].V}
			if cfg.FeasibilityOnly {
				c.V = math.NaN() // the interval midpoint
			}
			prob.Cons = append(prob.Cons, c)
		}
		st.LPCalls++
		var sp *telemetry.Span
		var pre lp.SolverStats
		if cfg.trace != nil {
			pre = solver.Stats
			sp = cfg.trace.Start("lp.solve")
		}
		res, err := solver.Solve(prob)
		if sp != nil {
			d := solver.Stats
			sp.Arg("cons", len(prob.Cons)).Arg("pivots", d.Pivots-pre.Pivots)
			switch {
			case d.PresolveAccepted > pre.PresolveAccepted:
				sp.Arg("engine", "presolve")
			case d.WarmSolves > pre.WarmSolves:
				sp.Arg("engine", "exact-warm")
			case d.ColdSolves > pre.ColdSolves:
				sp.Arg("engine", "exact-cold")
			}
			sp.End()
		}
		if err != nil || !res.Feasible {
			return nil, false
		}
		coeffs := lp.CoeffsToFloat(res.Coeffs)
		// Verify the rounded coefficients against the sample (at the
		// LP's possibly tightened bounds), evaluated exactly as the
		// runtime will evaluate them.
		bad := -1
		var badHigh bool
		for si, s := range sample {
			v := piecewise.EvalPoly(kind, cfg.Terms, coeffs, lpc[s.idx].R)
			if v < s.lo {
				bad, badHigh = si, false
				break
			}
			if v > s.hi {
				bad, badHigh = si, true
				break
			}
		}
		if bad < 0 {
			return coeffs, true
		}
		if *refines >= cfg.MaxRefine {
			return nil, false
		}
		*refines++
		st.Refinements++
		// Shrink the violated side by one representable step to push
		// the exact LP solution away from the rounding boundary.
		s := sample[bad]
		if badHigh {
			s.hi = fp.NextDown64(s.hi)
		} else {
			s.lo = fp.NextUp64(s.lo)
		}
		if s.lo > s.hi {
			return nil, false
		}
	}
}
