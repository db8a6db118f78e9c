package lp

import (
	"math"
	"math/big"
)

// This file implements the float64 presolve: run plain hardware-float
// simplex on the fitting LP first, then *verify* the basis it claims is
// optimal in exact arithmetic, and only fall back to the exact integer
// simplex when verification fails. This is the SoPlex precision-
// boosting idea, and the same shape as the guard-band filter in
// internal/exhaust: a fast approximate pass proposes, an exact pass
// certifies, and nothing approximate is ever trusted on its own.
//
// Verification of a candidate basis B (one column per row, m = terms+1
// rows, so B is tiny) checks, all exactly:
//
//	x_B = B⁻¹b >= 0                  (primal feasible)
//	π  = B⁻ᵀc_B,  rc_j = c_j − πᵀa_j >= 0 for every column  (optimal)
//
// via fraction-free Gaussian elimination on the dyadic-scaled integer
// form of B, so the only divisions are exact and the reduced-cost sweep
// over all 4m columns is integer multiply-adds with no GCDs. On
// success the multipliers π are exactly the ones the exact engine
// would have produced for that basis.

// float64 simplex tuning.
const (
	presolveEps         = 1e-9 // pivot / reduced-cost tolerance
	presolveIterLimit   = 5000
	presolveRefineLimit = 8 // exact-guided refinement pivots after float optimality
)

// presolveResult is the outcome of a certified presolve. The
// multipliers are kept as shared-denominator dyadic numerators
// (π_i = piNum_i / piDen) so downstream certification can stay in
// integer arithmetic.
type presolveResult struct {
	unbounded bool // certified unbounded ⇒ primal fitting problem infeasible
	piNum     []dyad
	piDen     big.Int
	basis     []int // certified optimal basis, for warm-starting later solves
}

// ftab is a dense float64 simplex matrix in the same layout as itab.
type ftab struct {
	m, n  int
	a     [][]float64
	basis []int
	block []bool
}

// fpivot is the float64 Gauss-Jordan pivot.
func (t *ftab) fpivot(row, col int) {
	ar := t.a[row]
	inv := 1 / ar[col]
	for j := 0; j <= t.n; j++ {
		ar[j] *= inv
	}
	ar[col] = 1
	for i := 0; i <= t.m; i++ {
		if i == row {
			continue
		}
		ai := t.a[i]
		f := ai[col]
		if f == 0 {
			continue
		}
		for j := 0; j <= t.n; j++ {
			ai[j] -= f * ar[j]
		}
		ai[col] = 0
	}
	t.basis[row] = col
}

// fratio runs the leaving-row ratio test for entering column col in
// two passes: find the minimum ratio, then among rows (numerically)
// tied at it take the largest pivot element. The fitting dual is
// heavily degenerate (b is a unit vector), so ties are the common
// case, and always pivoting on the largest candidate keeps the basis
// conditioned instead of amplifying the matrix by 1/tiny-pivot.
// Returns −1 when no row qualifies (ray direction).
func (t *ftab) fratio(col int) int {
	row := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		if p := t.a[i][col]; p > presolveEps {
			if r := t.a[i][t.n] / p; r < bestRatio {
				bestRatio = r
				row = i
			}
		}
	}
	if row >= 0 {
		slack := bestRatio*1e-9 + 1e-12
		bigP := 0.0
		for i := 0; i < t.m; i++ {
			if p := t.a[i][col]; p > presolveEps {
				if t.a[i][t.n]/p <= bestRatio+slack && p > bigP {
					bigP = p
					row = i
				}
			}
		}
	}
	return row
}

// fminimize runs float64 simplex to (approximate) optimality. It
// returns the entering column of an unbounded ray, or −1 if optimal,
// and false if the iteration limit was hit.
func (t *ftab) fminimize() (rayCol int, ok bool) {
	for iter := 0; iter < presolveIterLimit; iter++ {
		col := -1
		best := -presolveEps
		for j := 0; j < t.n; j++ {
			if t.block[j] {
				continue
			}
			if rc := t.a[t.m][j]; rc < best {
				best = rc
				col = j
			}
		}
		if col < 0 {
			return -1, true
		}
		row := t.fratio(col)
		if row < 0 {
			// No ratio row. If the whole column is numerically zero the
			// column is dependent and its reduced cost is cancellation
			// noise — block it and move on rather than declare a ray.
			// (Blocking can never smuggle in a wrong answer: the final
			// basis is verified exactly against *every* column.)
			maxAbs := 0.0
			for i := 0; i < t.m; i++ {
				if v := math.Abs(t.a[i][col]); v > maxAbs {
					maxAbs = v
				}
			}
			if maxAbs <= 1e-7 {
				t.block[col] = true
				continue
			}
			return col, true
		}
		t.fpivot(row, col)
	}
	return -1, false
}

// presolve runs two-phase float64 simplex on the dyadic problem
// (min costᵀx, Ax=b, x>=0, with b >= 0 as the fitting dual always has)
// and exactly certifies the answer. It returns a nil result whenever
// anything — float-phase failure, leftover artificials, or exact
// verification — does not check out; the caller then falls back to the
// exact engine. In that case hint, when non-nil, is the last all-
// structural float basis, usable as a warm start for the exact solve.
func presolve(a [][]dyad, b []dyad, cost []dyad) (res *presolveResult, hint []int) {
	m := len(b)
	n := len(cost)
	t := &ftab{m: m, n: n + m, block: make([]bool, n+m), basis: make([]int, m)}
	t.a = make([][]float64, m+1)
	for i := range t.a {
		t.a[i] = make([]float64, t.n+1)
	}
	// Row equilibration by powers of two keeps every represented value
	// identical (a row scaling) while avoiding float under/overflow from
	// tiny interval widths; column scaling rescales the variables, which
	// leaves the *basis* — all we extract — meaningful.
	colScale := make([]int, t.n)
	for i := 0; i < m; i++ {
		maxAbs := math.Abs(b[i].float64())
		for j := 0; j < n; j++ {
			t.a[i][j] = a[i][j].float64()
			if v := math.Abs(t.a[i][j]); v > maxAbs {
				maxAbs = v
			}
		}
		rowExp := 0
		if maxAbs > 0 {
			rowExp = -int(math.Floor(math.Log2(maxAbs)))
		}
		s := math.Ldexp(1, rowExp)
		for j := 0; j < n; j++ {
			t.a[i][j] *= s
		}
		t.a[i][t.n] = b[i].float64() * s
		// Artificial for the *scaled* row, so its column is a unit
		// vector and the matrix starts in proper basis form.
		t.a[i][n+i] = 1
		t.basis[i] = n + i
	}
	for j := 0; j < n; j++ {
		maxAbs := 0.0
		for i := 0; i < m; i++ {
			if v := math.Abs(t.a[i][j]); v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 || (maxAbs >= 0.5 && maxAbs <= 2) {
			continue
		}
		e := -int(math.Floor(math.Log2(maxAbs)))
		colScale[j] = e
		s := math.Ldexp(1, e)
		for i := 0; i < m; i++ {
			t.a[i][j] *= s
		}
	}
	// Phase 1.
	for j := 0; j <= t.n; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			s += t.a[i][j]
		}
		if j >= n && j < n+m {
			s--
		}
		t.a[t.m][j] = -s
	}
	if ray, ok := t.fminimize(); !ok || ray >= 0 {
		return nil, nil
	}
	if math.Abs(t.a[t.m][t.n]) > 1e-7 {
		return nil, nil // could not drive artificials to ~0
	}
	for i := 0; i < m; i++ {
		if t.basis[i] >= n {
			piv := -1
			for j := 0; j < n; j++ {
				if math.Abs(t.a[i][j]) > presolveEps {
					piv = j
					break
				}
			}
			if piv < 0 {
				return nil, nil // redundant row: let the exact engine handle it
			}
			t.fpivot(i, piv)
		}
	}
	// Phase 2.
	for j := n; j < t.n; j++ {
		t.block[j] = true
	}
	// Column scaling a'_j = a_j·2^{e_j} substitutes x'_j = x_j·2^{−e_j},
	// so the cost keeping the objective unchanged is c'_j = c_j·2^{e_j}.
	fcost := make([]float64, n)
	for j := 0; j < n; j++ {
		fcost[j] = cost[j].float64() * math.Ldexp(1, colScale[j])
	}
	for j := 0; j <= t.n; j++ {
		cj := 0.0
		if j < n {
			cj = fcost[j]
		}
		s := 0.0
		for i := 0; i < m; i++ {
			if bi := t.basis[i]; bi < n && fcost[bi] != 0 {
				s += fcost[bi] * t.a[i][j]
			}
		}
		t.a[t.m][j] = cj - s
	}
	// Optimize, then let exact verification steer: when the float
	// simplex stops within its tolerance but some column's exact
	// reduced cost is still negative, force that column in and
	// re-optimize. This is iterative refinement with the expensive
	// direction-finding done by the cheap integer rc sweep we need for
	// certification anyway; it converges in a pivot or two whenever the
	// float basis is near the true optimum.
	for round := 0; ; round++ {
		rayCol, ok := t.fminimize()
		if !ok {
			return nil, hint
		}
		basis := make([]int, m)
		for i, bi := range t.basis {
			if bi >= n {
				return nil, nil // artificial still basic: punt to exact
			}
			basis[i] = bi
		}
		hint = basis
		if rayCol >= 0 {
			if certifyRay(a, b, cost, basis, rayCol) {
				return &presolveResult{unbounded: true}, nil
			}
			return nil, hint
		}
		r, bad := verifyBasis(a, b, cost, basis)
		if r != nil {
			return r, nil
		}
		if bad < 0 || t.block[bad] || round >= presolveRefineLimit {
			return nil, hint
		}
		if row := t.fratio(bad); row >= 0 {
			t.fpivot(row, bad)
		} else if certifyRay(a, b, cost, basis, bad) {
			// Exactly negative reduced cost and no leaving row: the
			// column is an unbounded ray the float pricing missed.
			return &presolveResult{unbounded: true}, nil
		} else {
			return nil, hint
		}
	}
}

// basisLU is an exact fraction-free factorization of the m×m basis
// matrix, supporting solves against it and its transpose. It is built
// by integer Gauss-Jordan on [B·diag(2^{s}) | I]: after elimination the
// right half holds q·(B·S)⁻¹ for the final denominator q, from which
// B⁻¹v = S·(q·(BS)⁻¹)v/q for any v.
type basisLU struct {
	m     int
	inv   [][]big.Int // q·(B·S)⁻¹, row major
	q     big.Int     // common denominator, nonzero iff nonsingular
	shift []uint      // s_j: column j of B was scaled by 2^{s_j}
}

// factorBasis builds the exact inverse of the basis columns of a.
func factorBasis(a [][]dyad, basis []int) *basisLU {
	m := len(basis)
	lu := &basisLU{m: m, shift: make([]uint, m)}
	// Working matrix [B·S | I], fraction-free.
	w := make([][]big.Int, m)
	for i := range w {
		w[i] = make([]big.Int, 2*m)
	}
	for jj, c := range basis {
		colMin := 0
		for i := 0; i < m; i++ {
			if d := &a[i][c]; d.sign() != 0 && d.Exp < colMin {
				colMin = d.Exp
			}
		}
		lu.shift[jj] = uint(-colMin)
		for i := 0; i < m; i++ {
			a[i][c].scaledInt(&w[i][jj], colMin)
		}
	}
	for i := 0; i < m; i++ {
		w[i][m+i].SetInt64(1)
	}
	lu.q.SetInt64(1)
	var t1, t2 big.Int
	done := make([]bool, m)
	for c := 0; c < m; c++ {
		row := -1
		for i := 0; i < m; i++ {
			if !done[i] && w[i][c].Sign() != 0 {
				row = i
				break
			}
		}
		if row < 0 {
			lu.q.SetInt64(0) // singular
			return lu
		}
		p := new(big.Int).Set(&w[row][c])
		for i := 0; i < m; i++ {
			if i == row {
				continue
			}
			f := new(big.Int).Set(&w[i][c])
			fZero := f.Sign() == 0
			for j := 0; j < 2*m; j++ {
				if w[i][j].Sign() == 0 && (fZero || w[row][j].Sign() == 0) {
					continue
				}
				t1.Mul(&w[i][j], p)
				if !fZero && w[row][j].Sign() != 0 {
					t2.Mul(f, &w[row][j])
					t1.Sub(&t1, &t2)
				}
				w[i][j].Quo(&t1, &lu.q)
			}
		}
		lu.q.Set(p)
		done[row] = true
		// Swap the pivot row into position c: the represented left half
		// then converges to the identity, so after the last pivot the
		// right half is exactly q·(B·S)⁻¹ with rows in natural order.
		if row != c {
			w[row], w[c] = w[c], w[row]
			done[row], done[c] = done[c], done[row]
		}
	}
	lu.inv = make([][]big.Int, m)
	for i := range lu.inv {
		lu.inv[i] = w[i][m : 2*m]
	}
	return lu
}

// solveCols computes y with B y = v exactly: y_j = S_j·(inv·v)_j / q.
// The result is returned as exact rationals.
func (lu *basisLU) solveCols(v []dyad) []*big.Rat {
	m := lu.m
	out := make([]*big.Rat, m)
	var t1 dyad
	for j := 0; j < m; j++ {
		var acc dyad
		for k := 0; k < m; k++ {
			if v[k].sign() == 0 || lu.inv[j][k].Sign() == 0 {
				continue
			}
			var c dyad
			c.Num.Set(&lu.inv[j][k])
			t1.mul(&c, &v[k])
			var s dyad
			s.add(&acc, &t1)
			acc = s
		}
		acc.Exp += int(lu.shift[j]) // undo the column scaling: y = S·(BS)⁻¹v
		out[j] = acc.rat()
		out[j].Quo(out[j], new(big.Rat).SetInt(&lu.q))
	}
	return out
}

// piDyad computes p, D with π = p/D solving Bᵀπ = c_B, as dyad
// numerators over a common big.Int denominator D = q (sign included),
// so reduced-cost checks stay in integer arithmetic.
// (Bᵀ)⁻¹ = (B⁻¹)ᵀ = (S·inv/q)ᵀ = invᵀ·S/q — note S multiplies on the
// right of invᵀ, i.e. it scales the *input* c_B components.
func (lu *basisLU) piDyad(cB []dyad) []dyad {
	m := lu.m
	out := make([]dyad, m)
	var t1 dyad
	for i := 0; i < m; i++ {
		var acc dyad
		for j := 0; j < m; j++ {
			if cB[j].sign() == 0 || lu.inv[j][i].Sign() == 0 {
				continue
			}
			var c dyad
			c.Num.Set(&lu.inv[j][i])
			c.Exp = int(lu.shift[j])
			t1.mul(&c, &cB[j])
			var s dyad
			s.add(&acc, &t1)
			acc = s
		}
		out[i] = acc
	}
	return out
}

// verifyBasis exactly checks that `basis` is primal feasible and
// optimal for (min costᵀx, Ax=b, x>=0). On success it returns the
// certified multipliers and badCol = −1. When the basis is feasible
// but a column's exact reduced cost is negative, it returns (nil,
// that column) so the float simplex can be refined by pivoting there.
// Any other failure returns (nil, −1).
func verifyBasis(a [][]dyad, b []dyad, cost []dyad, basis []int) (res *presolveResult, badCol int) {
	m := len(b)
	lu := factorBasis(a, basis)
	if lu.q.Sign() == 0 {
		return nil, -1
	}
	xB := lu.solveCols(b)
	for _, v := range xB {
		if v.Sign() < 0 {
			return nil, -1 // not primal feasible
		}
	}
	cB := make([]dyad, m)
	for i, c := range basis {
		cB[i] = cost[c]
	}
	piN := lu.piDyad(cB) // π = piN/q
	qSign := lu.q.Sign()
	// Reduced costs: rc_j = c_j − πᵀa_j = (q·c_j − piNᵀa_j)/q >= 0.
	var qd, t1, acc, s dyad
	qd.Num.Set(&lu.q)
	for j := range cost {
		acc.Num.SetInt64(0)
		if cost[j].sign() != 0 {
			acc.mul(&qd, &cost[j])
		}
		for i := 0; i < m; i++ {
			if piN[i].sign() == 0 || a[i][j].sign() == 0 {
				continue
			}
			t1.mul(&piN[i], &a[i][j])
			s.sub(&acc, &t1)
			acc = s
		}
		if acc.sign()*qSign < 0 {
			return nil, j // not optimal: column j should enter
		}
	}
	// Certified: the basis is feasible and optimal, and π = piN/q are
	// exactly the multipliers the exact engine would recover for it.
	res = &presolveResult{piNum: piN, basis: basis}
	res.piDen.Set(&lu.q)
	return res, -1
}

// certifyRay exactly checks an unboundedness certificate: basis is
// primal feasible, column `ray` has negative reduced cost, and its
// basis representation d = B⁻¹a_ray has no positive entry — so x can
// move along +e_ray forever. For the fitting dual, certified
// unboundedness means the primal hard constraints are infeasible.
func certifyRay(a [][]dyad, b []dyad, cost []dyad, basis []int, ray int) bool {
	m := len(b)
	lu := factorBasis(a, basis)
	if lu.q.Sign() == 0 {
		return false
	}
	xB := lu.solveCols(b)
	for _, v := range xB {
		if v.Sign() < 0 {
			return false
		}
	}
	cB := make([]dyad, m)
	for i, c := range basis {
		cB[i] = cost[c]
	}
	piN := lu.piDyad(cB)
	qSign := lu.q.Sign()
	var qd, t1, acc, s dyad
	qd.Num.Set(&lu.q)
	acc.Num.SetInt64(0)
	if cost[ray].sign() != 0 {
		acc.mul(&qd, &cost[ray])
	}
	for i := 0; i < m; i++ {
		if piN[i].sign() == 0 || a[i][ray].sign() == 0 {
			continue
		}
		t1.mul(&piN[i], &a[i][ray])
		s.sub(&acc, &t1)
		acc = s
	}
	if acc.sign()*qSign >= 0 {
		return false // reduced cost not negative: no certified ray here
	}
	col := make([]dyad, m)
	for i := 0; i < m; i++ {
		col[i] = a[i][ray]
	}
	for _, v := range lu.solveCols(col) {
		if v.Sign() > 0 {
			return false // ratio test would have stopped the ray
		}
	}
	return true
}
