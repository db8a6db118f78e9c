package lp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// con builds a constraint whose preferred value is the interval
// midpoint.
func con(x, lo, hi float64) Constraint {
	return Constraint{X: x, Lo: lo, Hi: hi, V: math.NaN()}
}

// stdLP is a standard-form LP, min costᵀx s.t. A x = b, x >= 0, with
// float64 (hence dyadic) entries.
type stdLP struct {
	a       [][]float64
	b, cost []float64
}

func (p stdLP) dyads() (a [][]dyad, b, cost []dyad) {
	a = make([][]dyad, len(p.a))
	for i, row := range p.a {
		a[i] = make([]dyad, len(row))
		for j, v := range row {
			a[i][j].setFloat64(v)
		}
	}
	b = make([]dyad, len(p.b))
	for i, v := range p.b {
		b[i].setFloat64(v)
	}
	cost = make([]dyad, len(p.cost))
	for j, v := range p.cost {
		cost[j].setFloat64(v)
	}
	return a, b, cost
}

func (p stdLP) rats(tb testing.TB) (a [][]*big.Rat, b, cost []*big.Rat) {
	a = make([][]*big.Rat, len(p.a))
	for i, row := range p.a {
		a[i] = make([]*big.Rat, len(row))
		for j, v := range row {
			a[i][j] = ratFloat(tb, v)
		}
	}
	b = make([]*big.Rat, len(p.b))
	for i, v := range p.b {
		b[i] = ratFloat(tb, v)
	}
	cost = make([]*big.Rat, len(p.cost))
	for j, v := range p.cost {
		cost[j] = ratFloat(tb, v)
	}
	return a, b, cost
}

// solveBoth runs the exact engine (solveDyadic, cold) and the big.Rat
// reference on p and requires the same outcome: the same error, or the
// same multipliers π, strong duality πᵀb = the reference's objective,
// and a nil basis exactly when the reference kept an artificial basic.
// It returns the reference's answer.
func solveBoth(t *testing.T, p stdLP) (*refSolution, error) {
	t.Helper()
	ad, bd, cd := p.dyads()
	sol, err := solveDyadic(ad, bd, cd, nil)
	ar, br, cr := p.rats(t)
	ref, refErr := solveStandardRat(ar, br, cr)
	if err != refErr {
		t.Fatalf("engine error %v, reference error %v", err, refErr)
	}
	if err != nil {
		return nil, err
	}
	dual := new(big.Rat)
	refDual := new(big.Rat)
	var tmp big.Rat
	for i := range br {
		pi := new(big.Rat).SetFrac(&sol.piNum[i], &sol.piDen)
		if pi.Cmp(ref.pi[i]) != 0 {
			t.Fatalf("π[%d] = %v, reference %v", i, pi, ref.pi[i])
		}
		dual.Add(dual, tmp.Mul(pi, br[i]))
		refDual.Add(refDual, tmp.Mul(ref.pi[i], br[i]))
	}
	if dual.Cmp(ref.obj) != 0 || refDual.Cmp(ref.obj) != 0 {
		t.Fatalf("strong duality: πᵀb = %v (reference %v), reference objective %v", dual, refDual, ref.obj)
	}
	if (sol.basis == nil) != ref.artificialBasic {
		t.Fatalf("basis = %v, reference artificial basic = %v", sol.basis, ref.artificialBasic)
	}
	return ref, nil
}

// textbookLP is min −x1 − 2x2 s.t. x1 + x2 + s1 = 4, x1 + 3x2 + s2 = 6,
// with its optimum at x1 = 3, x2 = 1: objective −5.
var textbookLP = stdLP{
	a:    [][]float64{{1, 1, 1, 0}, {1, 3, 0, 1}},
	b:    []float64{4, 6},
	cost: []float64{-1, -2, 0, 0},
}

func TestSolveStandardKnown(t *testing.T) {
	ref, err := solveBoth(t, textbookLP)
	if err != nil {
		t.Fatal(err)
	}
	if ref.obj.Cmp(big.NewRat(-5, 1)) != 0 {
		t.Errorf("objective = %v, want -5", ref.obj)
	}
	if ref.x[0].Cmp(big.NewRat(3, 1)) != 0 || ref.x[1].Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("solution = %v,%v, want 3,1", ref.x[0], ref.x[1])
	}
}

func TestSolveStandardNegativeRHS(t *testing.T) {
	// The textbook LP with the first row negated (tests sign flipping
	// and multiplier un-flipping): -x1 - x2 - s1 = -4.
	p := textbookLP
	p.a = [][]float64{{-1, -1, -1, 0}, textbookLP.a[1]}
	p.b = []float64{-4, 6}
	ref, err := solveBoth(t, p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.obj.Cmp(big.NewRat(-5, 1)) != 0 || ref.x[0].Cmp(big.NewRat(3, 1)) != 0 {
		t.Errorf("obj=%v x=%v", ref.obj, ref.x)
	}
}

func TestSolveStandardInfeasible(t *testing.T) {
	// x1 = 1 and x1 = 2 simultaneously.
	p := stdLP{a: [][]float64{{1}, {1}}, b: []float64{1, 2}, cost: []float64{0}}
	if _, err := solveBoth(t, p); err != errInfeasibleEq {
		t.Fatalf("err = %v, want errInfeasibleEq", err)
	}
}

// TestDyadicMatchesRatReference runs the exact engine against the
// big.Rat reference on hand-picked edge cases and a seeded corpus of
// small dyadic LPs; solveBoth checks the multipliers, strong duality,
// the basis and the error of every one.
func TestDyadicMatchesRatReference(t *testing.T) {
	cases := map[string]struct {
		p              stdLP
		wantErr        error
		wantArtificial bool
	}{
		"flipped rows": {p: stdLP{
			a:    [][]float64{{-1, -0.5, 1, 0}, {0.25, -1, 0, -1}},
			b:    []float64{-2, -0.75},
			cost: []float64{1, 3, 0, 0},
		}},
		"redundant row": {p: stdLP{
			a:    [][]float64{{1, 1}, {2, 2}},
			b:    []float64{2, 4},
			cost: []float64{1, 2},
		}, wantArtificial: true},
		"infeasible": {p: stdLP{
			a:    [][]float64{{1, 1}, {1, 1}},
			b:    []float64{1, 0.5},
			cost: []float64{1, 1},
		}, wantErr: errInfeasibleEq},
		"unbounded": {p: stdLP{
			a:    [][]float64{{1, -1}},
			b:    []float64{1},
			cost: []float64{-1, 0},
		}, wantErr: errUnbounded},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			ref, err := solveBoth(t, c.p)
			if err != c.wantErr {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if c.wantArtificial && !ref.artificialBasic {
				t.Fatal("redundant row should keep its artificial basic")
			}
		})
	}

	rng := rand.New(rand.NewSource(11))
	entry := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return float64(rng.Intn(17)-8) / float64(int(1)<<rng.Intn(4))
	}
	outcomes := map[error]int{}
	for trial := 0; trial < 400; trial++ {
		m, n := 1+rng.Intn(4), 1+rng.Intn(8)
		p := stdLP{a: make([][]float64, m), b: make([]float64, m), cost: make([]float64, n)}
		for i := range p.a {
			p.a[i] = make([]float64, n)
			for j := range p.a[i] {
				p.a[i][j] = entry()
			}
			p.b[i] = entry()
		}
		for j := range p.cost {
			p.cost[j] = entry()
		}
		_, err := solveBoth(t, p)
		outcomes[err]++
	}
	for _, want := range []error{nil, errUnbounded, errInfeasibleEq} {
		if outcomes[want] == 0 {
			t.Errorf("corpus has no LP with outcome %v: %v", want, outcomes)
		}
	}
}

// TestSetFloat64MatchesRat pins setFloat64 to the lowest-terms
// numerator and power-of-two denominator of big.Rat.SetFloat64, which
// is how the engine read its inputs when they arrived as rationals.
func TestSetFloat64MatchesRat(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 3, -7, 1 << 52, 1<<53 + 2, 1e300,
		0.5, 0.75, -0.375, math.Ldexp(1, -1074), -math.Ldexp(3, -1074),
		math.Ldexp(1, -1022) - math.Ldexp(1, -1074), math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, math.Ldexp(1, 1023), math.Ldexp(1, -1022)}
	for e := -1074; e <= 1023; e += 97 {
		xs = append(xs, math.Ldexp(1, e), -math.Ldexp(1, e))
	}
	rng := rand.New(rand.NewSource(3))
	for len(xs) < 10000+60 {
		x := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			xs = append(xs, x)
		}
	}
	for _, x := range xs {
		r := new(big.Rat).SetFloat64(x)
		wantExp := -int(r.Denom().TrailingZeroBits())
		var d dyad
		d.setFloat64(x)
		if d.Num.Cmp(r.Num()) != 0 || d.Exp != wantExp {
			t.Fatalf("setFloat64(%v) = (%v, %d), want (%v, %d)", x, &d.Num, d.Exp, r.Num(), wantExp)
		}
	}
}

// TestSolveRejectsNonFinite requires a NaN or infinite X, Lo or Hi to
// come back as an error, not a panic.
func TestSolveRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 3; field++ {
			c := con(0.5, 1, 2)
			switch field {
			case 0:
				c.X = bad
			case 1:
				c.Lo = bad
			case 2:
				c.Hi = bad
			}
			p := &Problem{Terms: []int{0, 1}, Cons: []Constraint{con(0.25, 1, 2), c}}
			if res, err := Solve(p); err == nil {
				t.Errorf("field %d = %v: Solve returned %+v and no error", field, bad, res)
			}
		}
	}
}

// TestNonFiniteVIsMidpoint requires a NaN or infinite preferred value to
// give exactly the answer of an explicit interval midpoint.
func TestNonFiniteVIsMidpoint(t *testing.T) {
	solve := func(v float64) *Result {
		t.Helper()
		p := &Problem{Terms: []int{0, 1}, Cons: []Constraint{
			{X: 0, Lo: 0.75, Hi: 1.25, V: v},
			{X: 0.5, Lo: 1.5, Hi: 2.5, V: 2.25},
			{X: 1, Lo: 2.5, Hi: 3.75, V: 3},
		}}
		res, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := solve(1) // the midpoint of [0.75, 1.25]
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got := solve(v)
		if got.Dist.Cmp(want.Dist) != 0 {
			t.Errorf("V=%v: Dist %v, midpoint gives %v", v, got.Dist, want.Dist)
		}
		for j := range want.Coeffs {
			if got.Coeffs[j].Cmp(want.Coeffs[j]) != 0 {
				t.Errorf("V=%v: coefficient %d = %v, midpoint gives %v", v, j, got.Coeffs[j], want.Coeffs[j])
			}
		}
	}
}

func TestPolyFitLine(t *testing.T) {
	// Two points, tight intervals around y = 2x + 1.
	p := &Problem{
		Terms: []int{0, 1},
		Cons:  []Constraint{con(0, 0.9, 1.1), con(1, 2.9, 3.1)},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("line fit should be feasible")
	}
	// A line can pass through both preferred values (the interval
	// midpoints) exactly, so the achieved distance is 0.
	if d, _ := res.Dist.Float64(); math.Abs(d) > 1e-12 {
		t.Errorf("distance = %v, want 0 (line through both midpoints)", res.Dist)
	}
	c := CoeffsToFloat(res.Coeffs)
	if math.Abs(c[0]-1) > 1e-12 || math.Abs(c[1]-2) > 1e-12 {
		t.Errorf("coefficients = %v, want ~(1,2)", c)
	}
}

func TestPolyFitInfeasibleDegree(t *testing.T) {
	// Three points on a strict parabola cannot be fit by a line with
	// tiny intervals.
	tiny := 1e-9
	pts := []struct{ x, y float64 }{{0, 0}, {1, 1}, {2, 4}}
	p := &Problem{Terms: []int{0, 1}}
	for _, q := range pts {
		p.Cons = append(p.Cons, con(q.x, q.y-tiny, q.y+tiny))
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("line through strict parabola should be infeasible")
	}
	// A quadratic fits exactly.
	p.Terms = []int{0, 1, 2}
	res, err = Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("quadratic should be feasible")
	}
}

func TestPolyFitParity(t *testing.T) {
	// Fit sin-like data with an odd polynomial c1 x + c3 x^3.
	p := &Problem{Terms: []int{1, 3}}
	for _, x := range []float64{-0.3, -0.1, 0.1, 0.2, 0.3} {
		y := math.Sin(x)
		p.Cons = append(p.Cons, con(x, y-1e-4, y+1e-4))
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("odd cubic should fit sin on small domain")
	}
	c := CoeffsToFloat(res.Coeffs)
	if math.Abs(c[0]-1) > 1e-2 {
		t.Errorf("leading coefficient %v should be near 1", c[0])
	}
}

func TestPolyFitRandomCertified(t *testing.T) {
	// Random feasible problems built from a known polynomial: Solve
	// must find a certified solution; the Solve-internal exact re-check
	// plus this external check make the certificate trustworthy.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		deg := 1 + rng.Intn(4)
		terms := make([]int, deg+1)
		truth := make([]float64, deg+1)
		for j := range terms {
			terms[j] = j
			truth[j] = rng.Float64()*4 - 2
		}
		p := &Problem{Terms: terms}
		npts := 5 + rng.Intn(40)
		for i := 0; i < npts; i++ {
			x := rng.Float64()*2 - 1
			y := 0.0
			for j, c := range truth {
				y += c * math.Pow(x, float64(j))
			}
			w := math.Abs(y)*1e-6 + 1e-9
			p.Cons = append(p.Cons, con(x, y-w, y+w))
		}
		res, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("trial %d: problem built from a degree-%d truth should be feasible", trial, deg)
		}
		if !certified(t, p, res) {
			t.Fatalf("trial %d: certificate violated", trial)
		}
	}
}

func TestPolyFitDuplicatedPointConflict(t *testing.T) {
	// Same x with disjoint intervals: infeasible for any polynomial.
	p := &Problem{
		Terms: []int{0, 1, 2},
		Cons:  []Constraint{con(0.5, 1, 2), con(0.5, 3, 4)},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("conflicting intervals at one point must be infeasible")
	}
}

func TestRatPow(t *testing.T) {
	x := big.NewRat(3, 2)
	if ratPow(x, 0).Cmp(big.NewRat(1, 1)) != 0 {
		t.Error("x^0 != 1")
	}
	if ratPow(x, 3).Cmp(big.NewRat(27, 8)) != 0 {
		t.Error("(3/2)^3 != 27/8")
	}
}

func TestEvalRat(t *testing.T) {
	// 1 + 2x + 3x^2 at 1/2 = 1 + 1 + 3/4 = 11/4.
	c := []*big.Rat{big.NewRat(1, 1), big.NewRat(2, 1), big.NewRat(3, 1)}
	v := EvalRat(c, []int{0, 1, 2}, big.NewRat(1, 2))
	if v.Cmp(big.NewRat(11, 4)) != 0 {
		t.Errorf("EvalRat = %v, want 11/4", v)
	}
}

// FuzzSolveMatchesReference solves a small dense fit built from fuzzed
// points and interval ends with the full Solver and with the big.Rat
// reference. Non-finite inputs must be rejected with an error; for
// finite ones feasibility must match, both answers must be certified
// against every constraint, and with distinct points (the Solver
// merges duplicates, the reference does not) Dist must be equal.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Add(0.0, 0.9, 1.1, 0.5, 1.9, 2.1, 1.0, 2.9, 3.1, uint8(1))
	f.Add(-0.25, 0.7788, 0.7789, 0.125, 1.1331, 1.1332, 0.375, 1.4549, 1.4550, uint8(3))
	f.Add(1e-200, 0.75, 1.25, 2e-200, 1.75, 2.25, 3e-200, 2.75, 3.25, uint8(2))
	f.Add(0.5, 1.0, 2.0, 0.5, 3.0, 4.0, 0.25, 0.0, 1.0, uint8(2))
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 4.0, 4.0, uint8(1))
	f.Fuzz(func(t *testing.T, x0, l0, h0, x1, l1, h1, x2, l2, h2 float64, deg uint8) {
		terms := make([]int, 1+deg%4)
		for j := range terms {
			terms[j] = j
		}
		p := &Problem{Terms: terms}
		finite := true
		for _, c := range [][3]float64{{x0, l0, h0}, {x1, l1, h1}, {x2, l2, h2}} {
			for _, v := range c {
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
			p.Cons = append(p.Cons, con(c[0], math.Min(c[1], c[2]), math.Max(c[1], c[2])))
		}
		got, err := NewSolver().Solve(p)
		if !finite {
			if err == nil {
				t.Fatalf("non-finite input accepted: %+v", p.Cons)
			}
			return
		}
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		ref, err := solveRatReference(t, p)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if got.Feasible != ref.Feasible {
			t.Fatalf("feasible = %v, reference %v", got.Feasible, ref.Feasible)
		}
		if !got.Feasible {
			return
		}
		if !certified(t, p, got) || !certified(t, p, ref) {
			t.Fatal("certificate violated")
		}
		if distinctX(p) && got.Dist.Cmp(ref.Dist) != 0 {
			t.Fatalf("Dist = %v, reference %v", got.Dist, ref.Dist)
		}
	})
}

// distinctX reports whether no two constraints of p share a point.
func distinctX(p *Problem) bool {
	seen := make(map[float64]bool, len(p.Cons))
	for _, c := range p.Cons {
		if seen[c.X] {
			return false
		}
		seen[c.X] = true
	}
	return true
}

func BenchmarkSolve100Constraints(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := &Problem{Terms: []int{0, 1, 2, 3, 4}}
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		y := math.Exp(x)
		p.Cons = append(p.Cons, con(x, y*(1-1e-8), y*(1+1e-8)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
