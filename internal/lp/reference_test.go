package lp

import (
	"math/big"
	"testing"
)

// This file holds the independent reference the exact engine is tested
// against: a plain two-phase simplex over big.Rat with the pricing and
// ratio rules of itab, and a fitting-problem front end that builds the
// dual LP from the constraints' exact rational values. The engine
// (dyadic scaling, fraction-free pivots, presolve, warm starts, merges)
// shares no arithmetic with it.

// ratFloat converts a finite float64 to its exact rational value.
func ratFloat(tb testing.TB, x float64) *big.Rat {
	tb.Helper()
	r := new(big.Rat).SetFloat64(x)
	if r == nil {
		tb.Fatalf("non-finite float %v", x)
	}
	return r
}

// tableau is a dense full-tableau simplex for
//
//	min cᵀx  s.t.  A x = b,  x >= 0,
//
// with few rows and many columns. All arithmetic is exact.
type tableau struct {
	m, n  int         // constraint rows, variable columns
	a     [][]big.Rat // (m+1) x (n+1): constraint rows + objective row; last col = rhs
	basis []int       // basic variable per row
	block []bool      // columns barred from entering (artificials in phase 2)
}

func newTableau(m, n int) *tableau {
	t := &tableau{m: m, n: n, block: make([]bool, n)}
	t.a = make([][]big.Rat, m+1)
	for i := range t.a {
		t.a[i] = make([]big.Rat, n+1)
	}
	t.basis = make([]int, m)
	return t
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	piv := new(big.Rat).Set(&t.a[row][col])
	inv := new(big.Rat).Inv(piv)
	ar := t.a[row]
	for j := 0; j <= t.n; j++ {
		if ar[j].Sign() != 0 {
			ar[j].Mul(&ar[j], inv)
		}
	}
	var tmp big.Rat
	for i := 0; i <= t.m; i++ {
		if i == row {
			continue
		}
		f := &t.a[i][col]
		if f.Sign() == 0 {
			continue
		}
		fc := new(big.Rat).Set(f)
		ai := t.a[i]
		for j := 0; j <= t.n; j++ {
			if ar[j].Sign() == 0 {
				continue
			}
			tmp.Mul(fc, &ar[j])
			ai[j].Sub(&ai[j], &tmp)
		}
	}
	t.basis[row] = col
}

// minimize runs simplex to optimality on the current objective row,
// using Dantzig pricing with a switch to Bland's rule after a budget of
// iterations (guaranteeing termination in exact arithmetic).
func (t *tableau) minimize() error {
	const dantzigBudget = 2000
	const hardLimit = 20000
	for iter := 0; ; iter++ {
		if iter > hardLimit {
			return ErrIterationLimit
		}
		bland := iter >= dantzigBudget
		// Entering column: reduced cost < 0.
		col := -1
		var best *big.Rat
		for j := 0; j < t.n; j++ {
			if t.block[j] {
				continue
			}
			rc := &t.a[t.m][j]
			if rc.Sign() < 0 {
				if bland {
					col = j
					break
				}
				if best == nil || rc.Cmp(best) < 0 {
					best = rc
					col = j
				}
			}
		}
		if col < 0 {
			return nil // optimal
		}
		// Leaving row: min ratio b_i / a_ic over a_ic > 0; ties by
		// smallest basis index (Bland).
		row := -1
		var ratio big.Rat
		var bestRatio *big.Rat
		for i := 0; i < t.m; i++ {
			if t.a[i][col].Sign() > 0 {
				ratio.Quo(&t.a[i][t.n], &t.a[i][col])
				if bestRatio == nil || ratio.Cmp(bestRatio) < 0 ||
					(ratio.Cmp(bestRatio) == 0 && t.basis[i] < t.basis[row]) {
					bestRatio = new(big.Rat).Set(&ratio)
					row = i
				}
			}
		}
		if row < 0 {
			return errUnbounded
		}
		t.pivot(row, col)
	}
}

// refSolution is the reference engine's answer to a standard-form LP.
type refSolution struct {
	obj *big.Rat   // optimal objective costᵀx
	x   []*big.Rat // optimal primal solution
	pi  []*big.Rat // simplex multipliers, one per constraint row
	// artificialBasic reports that a redundant row kept its artificial
	// basic, the case where solveDyadic returns a nil basis.
	artificialBasic bool
}

// solveStandardRat solves min costᵀ x s.t. A x = b, x >= 0 using
// two-phase simplex over big.Rat. b entries may have any sign. It
// returns errInfeasibleEq, errUnbounded or ErrIterationLimit exactly
// where solveDyadic does.
func solveStandardRat(a [][]*big.Rat, b []*big.Rat, cost []*big.Rat) (*refSolution, error) {
	m := len(b)
	n := len(cost)
	t := newTableau(m, n+m)
	flipped := make([]bool, m)
	// Fill constraint rows; flip signs so rhs >= 0.
	for i := 0; i < m; i++ {
		neg := b[i].Sign() < 0
		flipped[i] = neg
		for j := 0; j < n; j++ {
			t.a[i][j].Set(a[i][j])
			if neg {
				t.a[i][j].Neg(&t.a[i][j])
			}
		}
		t.a[i][t.n].Set(b[i])
		if neg {
			t.a[i][t.n].Neg(&t.a[i][t.n])
		}
		// Artificial variable for this row.
		t.a[i][n+i].SetInt64(1)
		t.basis[i] = n + i
	}
	// Phase 1 objective: min Σ artificials. Reduced costs: for basic
	// artificials, subtract their rows from the cost row.
	for j := 0; j <= t.n; j++ {
		s := new(big.Rat)
		for i := 0; i < m; i++ {
			s.Add(s, &t.a[i][j])
		}
		if j >= n && j < n+m {
			s.Sub(s, big.NewRat(1, 1))
		}
		t.a[t.m][j].Neg(s)
	}
	if err := t.minimize(); err != nil {
		return nil, err
	}
	if t.a[t.m][t.n].Sign() != 0 {
		return nil, errInfeasibleEq
	}
	// Drive remaining artificials out of the basis where possible.
	for i := 0; i < m; i++ {
		if t.basis[i] >= n {
			piv := -1
			for j := 0; j < n; j++ {
				if t.a[i][j].Sign() != 0 {
					piv = j
					break
				}
			}
			if piv >= 0 {
				t.pivot(i, piv)
			}
			// Otherwise the row is redundant; the artificial stays basic
			// at value zero and is blocked from re-entering below.
		}
	}
	// Block artificials and install the phase-2 objective.
	for j := n; j < t.n; j++ {
		t.block[j] = true
	}
	for j := 0; j <= t.n; j++ {
		var cj big.Rat
		if j < n {
			cj.Set(cost[j])
		}
		// reduced cost = c_j − Σ_i c_B(i) · a[i][j]
		s := new(big.Rat)
		var tmp big.Rat
		for i := 0; i < m; i++ {
			bi := t.basis[i]
			if bi < n && cost[bi].Sign() != 0 {
				tmp.Mul(cost[bi], &t.a[i][j])
				s.Add(s, &tmp)
			}
		}
		t.a[t.m][j].Sub(&cj, s)
	}
	if err := t.minimize(); err != nil {
		return nil, err
	}
	sol := &refSolution{obj: new(big.Rat), x: make([]*big.Rat, n), pi: make([]*big.Rat, m)}
	for j := range sol.x {
		sol.x[j] = new(big.Rat)
	}
	var tmp big.Rat
	for i := 0; i < m; i++ {
		bi := t.basis[i]
		if bi >= n {
			sol.artificialBasic = true
			continue
		}
		sol.x[bi].Set(&t.a[i][t.n])
		if cost[bi].Sign() != 0 {
			tmp.Mul(cost[bi], &t.a[i][t.n])
			sol.obj.Add(sol.obj, &tmp)
		}
	}
	// Multipliers: π_i = c_art(i) − rc_art(i) = −rc over the artificial
	// column for row i (artificial cost is 0 in phase 2).
	for i := 0; i < m; i++ {
		sol.pi[i] = new(big.Rat).Neg(&t.a[t.m][n+i])
		if flipped[i] {
			// The multiplier was recovered for the sign-flipped row.
			sol.pi[i].Neg(sol.pi[i])
		}
	}
	return sol, nil
}

// solveRatReference answers a fitting problem with the reference
// engine alone: it builds the dual LP of polyfit.go's buildDual from
// the exact rationals of the constraints and runs solveStandardRat on
// it. Non-finite X, Lo or Hi are the caller's to exclude.
func solveRatReference(tb testing.TB, p *Problem) (*Result, error) {
	tb.Helper()
	n := len(p.Terms)
	m := len(p.Cons)
	cols := 4 * m
	a := make([][]*big.Rat, n+1)
	for i := range a {
		a[i] = make([]*big.Rat, cols)
		for j := range a[i] {
			a[i][j] = new(big.Rat)
		}
	}
	cost := make([]*big.Rat, cols)
	b := make([]*big.Rat, n+1)
	for i := range b {
		b[i] = new(big.Rat)
	}
	b[n].SetInt64(1)
	half := big.NewRat(1, 2)
	minW := new(big.Rat)
	for _, con := range p.Cons {
		w := new(big.Rat).Sub(ratFloat(tb, con.Hi), ratFloat(tb, con.Lo))
		if w.Sign() > 0 && (minW.Sign() == 0 || w.Cmp(minW) < 0) {
			minW.Set(w)
		}
	}
	if minW.Sign() == 0 {
		minW.SetInt64(1) // all constraints are exact points
	}
	for i, con := range p.Cons {
		x, lo, hi := ratFloat(tb, con.X), ratFloat(tb, con.Lo), ratFloat(tb, con.Hi)
		for j, e := range p.Terms {
			pw := ratPow(x, e)
			a[j][4*i].Set(pw)
			a[j][4*i+1].Neg(pw)
			a[j][4*i+2].Set(pw)
			a[j][4*i+3].Neg(pw)
		}
		w := new(big.Rat).Sub(hi, lo)
		w.Mul(w, half)
		if w.Sign() == 0 {
			w.Set(minW)
			w.Mul(w, half)
		}
		a[n][4*i].Set(w)
		a[n][4*i+1].Set(w)
		var v *big.Rat
		if r := new(big.Rat).SetFloat64(con.V); r == nil {
			v = new(big.Rat).Add(lo, hi)
			v.Mul(v, half)
		} else {
			v = r
			if v.Cmp(lo) < 0 {
				v = lo
			} else if v.Cmp(hi) > 0 {
				v = hi
			}
		}
		cost[4*i] = new(big.Rat).Set(v)
		cost[4*i+1] = new(big.Rat).Neg(v)
		cost[4*i+2] = hi
		cost[4*i+3] = new(big.Rat).Neg(lo)
	}
	sol, err := solveStandardRat(a, b, cost)
	if err == errUnbounded {
		// Unbounded dual ⇔ infeasible hard constraints.
		return &Result{Feasible: false}, nil
	}
	if err != nil {
		return nil, err
	}
	// π = (c_0..c_{n-1}, τ) with τ = −t* (the primal minimizes t).
	return &Result{
		Feasible: true,
		Coeffs:   sol.pi[:n],
		Dist:     new(big.Rat).Neg(sol.pi[n]),
	}, nil
}

// EvalRat evaluates Σ_j c_j x^(terms_j) exactly.
func EvalRat(coeffs []*big.Rat, terms []int, x *big.Rat) *big.Rat {
	v := new(big.Rat)
	var tmp big.Rat
	for j, c := range coeffs {
		tmp.Mul(c, ratPow(x, terms[j]))
		v.Add(v, &tmp)
	}
	return v
}

func ratPow(x *big.Rat, e int) *big.Rat {
	r := new(big.Rat).SetInt64(1)
	if e < 0 {
		panic("lp: negative exponent")
	}
	base := new(big.Rat).Set(x)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r.Mul(r, base)
		}
		base.Mul(base, base)
	}
	return r
}

// certified reports whether res's coefficients satisfy every hard
// constraint of p exactly.
func certified(tb testing.TB, p *Problem, res *Result) bool {
	tb.Helper()
	for _, con := range p.Cons {
		v := EvalRat(res.Coeffs, p.Terms, ratFloat(tb, con.X))
		if v.Cmp(ratFloat(tb, con.Lo)) < 0 || v.Cmp(ratFloat(tb, con.Hi)) > 0 {
			return false
		}
	}
	return true
}
