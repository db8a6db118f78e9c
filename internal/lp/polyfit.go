package lp

import (
	"fmt"
	"math"
	"math/big"
)

// Constraint requires the fitted polynomial P to satisfy
// Lo <= P(X) <= Hi, and asks it to stay as close as possible to the
// preferred value V (normally the correctly rounded value of the
// approximated function at X; if V is outside [Lo, Hi] it is clamped).
// Every field is taken as the exact rational value of the float64.
// X, Lo and Hi must be finite; a NaN or infinite V selects the
// interval midpoint.
type Constraint struct {
	X, Lo, Hi float64
	V         float64
}

// Problem is a polynomial fitting query: find coefficients c_j for the
// monomial basis x^Terms[j] satisfying every Constraint while staying
// near the preferred values.
type Problem struct {
	// Terms lists the monomial exponents of the polynomial, e.g.
	// [0,1,2,3] for a dense cubic or [1,3,5] for an odd quintic.
	Terms []int
	Cons  []Constraint
}

// Result reports the outcome of Solve.
type Result struct {
	// Feasible is true when coefficients satisfying all hard interval
	// constraints exist.
	Feasible bool
	// Coeffs are the exact rational coefficients, one per term. Valid
	// only when Feasible.
	Coeffs []*big.Rat
	// Dist is the achieved weighted Chebyshev distance to the preferred
	// values: max_i |P(x_i) − V_i| / w_i with w_i = (Hi_i − Lo_i)/2.
	// A small Dist means the polynomial tracks the function itself, so
	// unsampled inputs — whose own rounding intervals also surround the
	// function — are very likely satisfied too. This objective is the
	// LP form of the paper's core idea: approximate the correctly
	// rounded value, not merely any point of the interval.
	Dist *big.Rat
}

// SolverStats counts what the solver did; useful for -timing reports
// and for tests asserting the presolve/exact split.
type SolverStats struct {
	Solves           int // total Solve calls
	PresolveAccepted int // float64 presolves whose basis passed exact verification
	PresolveRejected int // presolve attempts that fell back to the exact engine
	WarmSolves       int // exact solves entered from a carried basis
	ColdSolves       int // exact solves from scratch (incl. warm-start retries)
	PrunedConflicts  int // duplicate-X merges that proved infeasibility outright
	MergedCons       int // constraints removed by dominance merging
	Pivots           int // exact simplex pivot operations (simplex + basis installs)
}

// Solver runs fitting queries with the fast paths layered in front of
// the exact engine: constraint dominance pruning, a certified float64
// presolve, warm-started exact simplex, and per-point monomial-power
// memoization. A Solver is meant to live for one CEGIS refinement loop
// (same Terms, samples appended or tightened in place) so the carried
// basis and power cache stay valid; it is not safe for concurrent use.
//
// Every fast path is certified: presolve answers are accepted only
// after exact verification of feasibility and optimality of the basis
// (see presolve.go), warm starts run on the exact engine itself, and
// every returned Result is re-checked against every input constraint in
// exact arithmetic — so a Solver can never return an answer the plain
// exact engine would reject.
type Solver struct {
	// Stats accumulates across Solve calls.
	Stats SolverStats

	noPresolve bool // exact engine only (tests compare against it)
	noWarm     bool // never carry the optimal basis between solves

	pows      map[float64][]*dyad // monomial powers per point
	warm      []int               // optimal basis of the previous solve
	warmTerms int                 // len(Terms) the warm basis belongs to
}

// NewSolver returns a Solver with all fast paths enabled.
func NewSolver() *Solver { return &Solver{} }

// Solve is the one-shot entry point: it runs p on a fresh Solver.
func Solve(p *Problem) (*Result, error) {
	var s Solver
	return s.Solve(p)
}

// solverCon is a constraint in dyadic form with memoized powers.
type solverCon struct {
	lo, hi dyad
	v      dyad
	pow    []*dyad // pow[j] = x^Terms[j] (indexed by term position)
	x      float64 // the point itself: merge and power-cache key
}

// Solve runs the fitting query. See Solver for the fast-path layering;
// the semantics are identical to the exact path for every input.
func (s *Solver) Solve(p *Problem) (*Result, error) {
	n := len(p.Terms)
	m := len(p.Cons)
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("lp: empty problem (%d terms, %d constraints)", n, m)
	}
	s.Stats.Solves++
	cons, err := s.prepare(p)
	if err != nil {
		return nil, err
	}
	lpCons, conflict, merged := mergeDuplicates(cons)
	if conflict {
		s.Stats.PrunedConflicts++
		return &Result{Feasible: false}, nil
	}
	if merged > 0 {
		s.Stats.MergedCons += merged
		s.warm = nil // column indices shifted
	}
	a, b, cost := buildDual(n, lpCons)

	var hint []int
	if !s.noPresolve {
		pr, h := presolve(a, b, cost)
		if pr != nil {
			if pr.unbounded {
				s.Stats.PresolveAccepted++
				return &Result{Feasible: false}, nil
			}
			if certifyCons(cons, pr.piNum[:n], &pr.piDen) {
				s.Stats.PresolveAccepted++
				if !s.noWarm {
					s.warm = pr.basis
					s.warmTerms = n
				}
				return resultFromDyads(pr.piNum, &pr.piDen, n), nil
			}
		}
		s.Stats.PresolveRejected++
		hint = h
	}

	cols := 4 * len(lpCons)
	warm := s.warmBasisFor(n, cols)
	if warm == nil && hint != nil && len(hint) == n+1 {
		// An uncertified float basis is still an excellent starting
		// point for the exact engine — typically a pivot or two from
		// optimal. solveDyadic re-checks feasibility of any warm basis,
		// so a bad hint degrades to a cold solve, never a wrong answer.
		warm = hint
	}
	sol, err := solveDyadic(a, b, cost, warm)
	if warm != nil && (err == errWarmStart || err == ErrIterationLimit) {
		// A stale basis is a hint, never a requirement: re-solve cold.
		sol, err = solveDyadic(a, b, cost, nil)
		warm = nil
	}
	if sol != nil {
		s.Stats.Pivots += sol.pivots
	}
	if warm != nil {
		s.Stats.WarmSolves++
	} else {
		s.Stats.ColdSolves++
	}
	if err != nil {
		if err == errUnbounded {
			// Unbounded dual ⇔ infeasible hard constraints.
			return &Result{Feasible: false, Dist: nil}, nil
		}
		return nil, err
	}
	if !s.noWarm && sol.basis != nil {
		s.warm = sol.basis
		s.warmTerms = n
	}
	piNum := make([]dyad, n+1)
	for i := range piNum {
		piNum[i].Num.Set(&sol.piNum[i])
	}
	if !certifyCons(cons, piNum[:n], &sol.piDen) {
		return nil, fmt.Errorf("lp: internal error: recovered solution violates a constraint")
	}
	return resultFromDyads(piNum, &sol.piDen, n), nil
}

// warmBasisFor returns the carried basis if it is usable for a problem
// with n+1 rows and the given column count, else nil.
func (s *Solver) warmBasisFor(n, cols int) []int {
	if s.noWarm || s.warm == nil || s.warmTerms != n || len(s.warm) != n+1 {
		return nil
	}
	for _, c := range s.warm {
		if c >= cols {
			return nil
		}
	}
	return s.warm
}

// prepare converts the constraints to dyadic form with memoized
// monomial powers, rejecting a non-finite X, Lo or Hi.
func (s *Solver) prepare(p *Problem) ([]solverCon, error) {
	maxExp := 0
	for _, e := range p.Terms {
		if e > maxExp {
			maxExp = e
		}
	}
	if s.pows == nil {
		s.pows = make(map[float64][]*dyad)
	}
	cons := make([]solverCon, len(p.Cons))
	for i, con := range p.Cons {
		for _, f := range [...]float64{con.X, con.Lo, con.Hi} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("lp: constraint %d: non-finite value in X=%v Lo=%v Hi=%v", i, con.X, con.Lo, con.Hi)
			}
		}
		c := &cons[i]
		c.x = con.X
		c.lo.setFloat64(con.Lo)
		c.hi.setFloat64(con.Hi)
		if !math.IsNaN(con.V) && !math.IsInf(con.V, 0) {
			c.v.setFloat64(con.V)
			// Clamp the preferred value into the interval.
			if c.v.cmp(&c.lo) < 0 {
				c.v = c.lo
			} else if c.v.cmp(&c.hi) > 0 {
				c.v = c.hi
			}
		} else {
			var mid dyad
			mid.add(&c.lo, &c.hi)
			c.v.half(&mid)
		}
		byExp := powsOf(con.X, p.Terms, maxExp, s.pows[con.X])
		s.pows[con.X] = byExp
		c.pow = make([]*dyad, len(p.Terms))
		for j, e := range p.Terms {
			c.pow[j] = byExp[e]
		}
	}
	return cons, nil
}

// powsOf returns a slice indexed by exponent with x^e filled in for
// every e in terms, reusing (and extending) cached entries.
func powsOf(x float64, terms []int, maxExp int, cached []*dyad) []*dyad {
	if len(cached) < maxExp+1 {
		grown := make([]*dyad, maxExp+1)
		copy(grown, cached)
		cached = grown
	}
	var xd dyad
	xd.setFloat64(x)
	for _, e := range terms {
		if cached[e] == nil {
			pw := dyadPow(&xd, e)
			cached[e] = &pw
		}
	}
	return cached
}

// mergeDuplicates intersects constraints that share the same sample
// point: P must satisfy both, so only the intersection matters, and an
// empty intersection proves infeasibility without any solve. Points
// are matched by their float64 value (±0 are one point).
func mergeDuplicates(cons []solverCon) (out []solverCon, conflict bool, merged int) {
	// Never alias cons: the caller certifies the final answer against
	// the original, unmerged constraints.
	seen := make(map[float64]int, len(cons))
	out = make([]solverCon, 0, len(cons))
	for _, c := range cons {
		if j, dup := seen[c.x]; dup {
			d := &out[j]
			if c.lo.cmp(&d.lo) > 0 {
				d.lo = c.lo
			}
			if c.hi.cmp(&d.hi) < 0 {
				d.hi = c.hi
			}
			if d.lo.cmp(&d.hi) > 0 {
				return nil, true, merged
			}
			// Re-clamp the preferred value into the tightened interval.
			if d.v.cmp(&d.lo) < 0 {
				d.v = d.lo
			} else if d.v.cmp(&d.hi) > 0 {
				d.v = d.hi
			}
			merged++
			continue
		}
		seen[c.x] = len(out)
		out = append(out, c)
	}
	return out, false, merged
}

// buildDual assembles the dual LP (see Solve's primal/dual derivation
// below) in dyadic form:
//
//	row 4i:   +a_i c − w_i t <= v_i
//	row 4i+1: −a_i c − w_i t <= −v_i
//	row 4i+2: +a_i c         <= h_i
//	row 4i+3: −a_i c         <= −l_i
//
// Dual: min gᵀy s.t. Σ_i a_i (y0−y1+y2−y3) = 0 per term,
// Σ_i w_i (y0+y1) = 1, y >= 0.
func buildDual(n int, cons []solverCon) (a [][]dyad, b, cost []dyad) {
	m := len(cons)
	cols := 4 * m
	a = make([][]dyad, n+1)
	for i := range a {
		a[i] = make([]dyad, cols)
	}
	cost = make([]dyad, cols)
	b = make([]dyad, n+1)
	b[n].Num.SetInt64(1)
	var minW dyad
	{
		var wt dyad
		for i := range cons {
			wt.sub(&cons[i].hi, &cons[i].lo)
			if wt.sign() > 0 && (minW.sign() == 0 || wt.cmp(&minW) < 0) {
				minW.Num.Set(&wt.Num)
				minW.Exp = wt.Exp
			}
		}
	}
	if minW.sign() == 0 {
		minW.Num.SetInt64(1) // all constraints are exact points
		minW.Exp = 0
	}
	for i := range cons {
		con := &cons[i]
		for j := 0; j < n; j++ {
			pw := con.pow[j]
			a[j][4*i] = *pw
			a[j][4*i+1].Num.Neg(&pw.Num)
			a[j][4*i+1].Exp = pw.Exp
			a[j][4*i+2] = *pw
			a[j][4*i+3] = a[j][4*i+1]
		}
		// w owns fresh storage each iteration: stored dyads share their
		// big.Int internals, so reusing one across iterations would
		// corrupt rows already written.
		var w dyad
		w.sub(&con.hi, &con.lo)
		if w.sign() == 0 {
			w.Num.Set(&minW.Num)
			w.Exp = minW.Exp
		}
		w.Exp-- // /2
		a[n][4*i] = w
		a[n][4*i+1] = w
		cost[4*i] = con.v
		cost[4*i+1].Num.Neg(&con.v.Num)
		cost[4*i+1].Exp = con.v.Exp
		cost[4*i+2] = con.hi
		cost[4*i+3].Num.Neg(&con.lo.Num)
		cost[4*i+3].Exp = con.lo.Exp
	}
	return a, b, cost
}

// certifyCons exactly re-checks Lo <= P(X) <= Hi for every constraint,
// with P's coefficients given as shared-denominator dyadic numerators
// c_j = num_j / den. The check multiplies through by den, so it is all
// integer-shift arithmetic: sign(Σ num_j·x^{e_j} − den·Lo)·sign(den)
// and the symmetric Hi check.
func certifyCons(cons []solverCon, num []dyad, den *big.Int) bool {
	dSign := den.Sign()
	if dSign == 0 {
		return false
	}
	var dd dyad
	dd.Num.Set(den)
	var sum, t1, t2 dyad
	for i := range cons {
		con := &cons[i]
		sum.Num.SetInt64(0)
		for j := range num {
			if num[j].sign() == 0 {
				continue
			}
			pw := con.pow[j]
			if pw.sign() == 0 {
				continue
			}
			t1.mul(&num[j], pw)
			sum.add(&sum, &t1)
		}
		// P(X)·den = sum; need den·Lo <= sum <= den·Hi (sign-adjusted).
		t1.mul(&dd, &con.lo)
		t2.sub(&sum, &t1)
		if t2.sign()*dSign < 0 {
			return false
		}
		t1.mul(&dd, &con.hi)
		t2.sub(&t1, &sum)
		if t2.sign()*dSign < 0 {
			return false
		}
	}
	return true
}

// resultFromDyads converts shared-denominator multipliers to a Result:
// π = (c_0..c_{n-1}, τ) with τ = −t* (the primal minimizes t).
func resultFromDyads(piNum []dyad, den *big.Int, n int) *Result {
	res := &Result{Feasible: true, Coeffs: make([]*big.Rat, n)}
	denRat := new(big.Rat).SetInt(den)
	for j := 0; j < n; j++ {
		res.Coeffs[j] = piNum[j].rat()
		res.Coeffs[j].Quo(res.Coeffs[j], denRat)
	}
	res.Dist = piNum[n].rat()
	res.Dist.Quo(res.Dist, denRat)
	res.Dist.Neg(res.Dist)
	return res
}

// CoeffsToFloat rounds exact rational coefficients to their nearest
// float64 values (the precision H used by the generated library).
func CoeffsToFloat(coeffs []*big.Rat) []float64 {
	out := make([]float64, len(coeffs))
	for i, c := range coeffs {
		f, _ := c.Float64()
		if math.IsInf(f, 0) {
			// Clamp pathological coefficients; the caller's validation
			// pass will reject such a polynomial anyway.
			f = math.Copysign(math.MaxFloat64, f)
		}
		out[i] = f
	}
	return out
}
