package redint

import (
	"math"
	"math/rand/v2"
	"testing"

	"rlibm32/internal/fp"
	"rlibm32/internal/interval"
)

func TestDeduceSingleIdentity(t *testing.T) {
	// OC = identity. The reduced interval must equal the target
	// interval exactly (every value inside works, first outside fails).
	target := interval.Interval{Lo: 1.0, Hi: 1.0 + 100*0x1p-52}
	v := 1.0 + 50*0x1p-52
	lo, hi, _, ok := Deduce([2]float64{v}, 1, func(vals [2]float64) float64 { return vals[0] }, target)
	if !ok {
		t.Fatal("identity OC must succeed")
	}
	if lo[0] != target.Lo || hi[0] != target.Hi {
		t.Errorf("identity widening: [%v,%v], want [%v,%v]", lo[0], hi[0], target.Lo, target.Hi)
	}
}

func TestDeduceAffine(t *testing.T) {
	// OC(v) = v*8 + 1 (exact in doubles): reduced interval maps back.
	target := interval.Interval{Lo: 17, Hi: 17 + 64*0x1p-48}
	v := (17.0 + 32*0x1p-48 - 1) / 8
	oc := func(vals [2]float64) float64 { return vals[0]*8 + 1 }
	lo, hi, _, ok := Deduce([2]float64{v}, 1, oc, target)
	if !ok {
		t.Fatal("affine OC must succeed")
	}
	// Every point in [lo,hi] must satisfy OC in target; neighbours must not.
	for _, p := range []float64{lo[0], hi[0], (lo[0] + hi[0]) / 2} {
		if !target.Contains(oc([2]float64{p})) {
			t.Errorf("point %v inside reduced interval violates target", p)
		}
	}
	if target.Contains(oc([2]float64{fp.NextDown64(lo[0])})) {
		t.Error("reduced interval not maximal at lo")
	}
	if target.Contains(oc([2]float64{fp.NextUp64(hi[0])})) {
		t.Error("reduced interval not maximal at hi")
	}
}

func TestDeduceTwoFunctions(t *testing.T) {
	// OC(s, c) = 0.6*c + 0.8*s (like sinpi's table-based output
	// compensation with positive table entries): monotone increasing in
	// both. Soundness: corners of the deduced box stay inside target.
	s0, c0 := 0.25, 0.97
	oc := func(v [2]float64) float64 { return 0.6*v[1] + 0.8*v[0] }
	mid := oc([2]float64{s0, c0})
	target := interval.Interval{Lo: mid - 1e-13, Hi: mid + 1e-13}
	lo, hi, _, ok := Deduce([2]float64{s0, c0}, 2, oc, target)
	if !ok {
		t.Fatal("two-function OC must succeed")
	}
	corners := [][2]float64{
		{lo[0], lo[1]}, {hi[0], hi[1]},
	}
	for _, c := range corners {
		if !target.Contains(oc(c)) {
			t.Errorf("corner %v outside target", c)
		}
	}
	// Monotone OC: the extreme corners are (lo,lo) and (hi,hi); any
	// mixed corner lies between them.
	if oc([2]float64{lo[0], hi[1]}) < target.Lo-1e-30 || oc([2]float64{lo[0], hi[1]}) > target.Hi+1e-30 {
		t.Error("mixed corner escaped target for monotone OC")
	}
	// Intervals must actually have widened beyond the singleton.
	if lo[0] == s0 && hi[0] == s0 {
		t.Error("no freedom deduced for the sin component")
	}
}

func TestDeduceDecreasingOC(t *testing.T) {
	// OC(v) = 2 - v: monotone decreasing. Widening must still be sound.
	v := 0.5
	oc := func(vals [2]float64) float64 { return 2 - vals[0] }
	target := interval.Interval{Lo: 1.5 - 1e-14, Hi: 1.5 + 1e-14}
	lo, hi, _, ok := Deduce([2]float64{v}, 1, oc, target)
	if !ok {
		t.Fatal("decreasing OC must succeed")
	}
	for _, p := range []float64{lo[0], hi[0]} {
		if !target.Contains(oc([2]float64{p})) {
			t.Errorf("endpoint %v violates target under decreasing OC", p)
		}
	}
	if !(lo[0] < v && v < hi[0]) {
		t.Errorf("interval [%v,%v] should straddle %v", lo[0], hi[0], v)
	}
}

func TestDeduceFailsWhenCenterOutside(t *testing.T) {
	target := interval.Interval{Lo: 10, Hi: 11}
	_, _, _, ok := Deduce([2]float64{1}, 1, func(v [2]float64) float64 { return v[0] }, target)
	if ok {
		t.Fatal("Deduce must fail when the oracle values miss the target (Algorithm 2 line 8)")
	}
}

func TestDeduceHugeFreedom(t *testing.T) {
	// Target covering everything: widening must terminate and grant
	// enormous (capped at 2^62 steps, which is sound: under-widening
	// only reduces freedom) room on both sides.
	target := interval.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	lo, hi, _, ok := Deduce([2]float64{1}, 1, func(v [2]float64) float64 { return v[0] }, target)
	if !ok || !(lo[0] <= -1e-308 || lo[0] < 0) || !(hi[0] > 1e300) {
		t.Errorf("unbounded target should widen enormously, got [%v,%v]", lo[0], hi[0])
	}
}

// refWiden is the plain widening search: geometric probing from k = 1
// for the first failure, then bisection. It and widen both return the
// unique boundary of a monotone predicate, so they must agree exactly.
func refWiden(s *search, target interval.Interval, dir int64) int64 {
	inside := func(k int64) bool { return target.Contains(s.apply(dir * k)) }
	var good, bad int64 = 0, -1
	for k := int64(1); k > 0 && k <= maxSteps; k *= 2 {
		if inside(k) {
			good = k
		} else {
			bad = k
			break
		}
	}
	if bad < 0 {
		return good
	}
	for bad-good > 1 {
		mid := good + (bad-good)/2
		if inside(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	return good
}

// refDeduce is Deduce with refWiden in place of widen.
func refDeduce(vals [2]float64, n int, oc OC, target interval.Interval) (lo, hi, center [2]float64, ok bool) {
	s := &search{vals: vals, n: n, oc: oc}
	if !target.Contains(s.apply(0)) {
		k, ok := recenter(s, target)
		if !ok {
			return lo, hi, center, false
		}
		s.base = k
	}
	down := refWiden(s, target, -1)
	up := refWiden(s, target, +1)
	for i := 0; i < n; i++ {
		lo[i] = fp.StepBy64(vals[i], s.base-down)
		hi[i] = fp.StepBy64(vals[i], s.base+up)
		center[i] = fp.StepBy64(vals[i], s.base)
	}
	return lo, hi, center, true
}

// ocCase is one Deduce problem: a monotone OC in the shape of a
// rangered family, its oracle values and a target interval.
type ocCase struct {
	vals   [2]float64
	n      int
	oc     OC
	target interval.Interval
}

var testTargets = []interval.Target{
	interval.Float32Target{}, interval.Posit32Target{}, interval.BFloat16Target(),
}

// roundingTarget is the rounding interval of tgt around OC(vals), the
// target gentool hands Deduce.
func roundingTarget(rng *rand.Rand, c *ocCase) bool {
	tgt := testTargets[rng.IntN(len(testTargets))]
	iv, ok := tgt.Interval(tgt.Round(c.oc(c.vals)))
	c.target = iv
	return ok
}

func signOf(rng *rand.Rand) float64 {
	if rng.IntN(2) == 0 {
		return -1
	}
	return 1
}

// ocAdd is the log family's A + v with |v| ≪ |A|: a staircase in the
// step count. v runs from 2^-8|A| down to 0.
func ocAdd(rng *rand.Rand) ocCase {
	a := signOf(rng) * math.Ldexp(1+rng.Float64(), rng.IntN(12)-2)
	var v float64
	switch rng.IntN(8) {
	case 0:
		v = 0
	case 1:
		v = signOf(rng) * math.Ldexp(1+rng.Float64(), -1000-rng.IntN(60))
	default:
		v = signOf(rng) * math.Ldexp((1+rng.Float64())*math.Abs(a), -8-rng.IntN(50))
	}
	return ocCase{vals: [2]float64{v}, n: 1, oc: func(vs [2]float64) float64 { return a + vs[0] }}
}

// ocMul is the exp family's A·v with v near 1 and A of either sign.
func ocMul(rng *rand.Rand) ocCase {
	a := signOf(rng) * math.Ldexp(1+rng.Float64(), rng.IntN(200)-100)
	v := 1 + (rng.Float64()-0.5)/32
	return ocCase{vals: [2]float64{v}, n: 1, oc: func(vs [2]float64) float64 { return a * vs[0] }}
}

// ocPair is the sinh/cosh and sinpi/cospi S·(A·v1 + B·v0) with A, B ≥ 0.
func ocPair(rng *rand.Rand) ocCase {
	a, b, sg := rng.Float64(), rng.Float64(), signOf(rng)
	if rng.IntN(4) == 0 {
		b = 0
	}
	r := (rng.Float64() - 0.5) / 256
	return ocCase{vals: [2]float64{math.Sin(math.Pi * r), math.Cos(math.Pi * r)}, n: 2,
		oc: func(vs [2]float64) float64 { return sg * (a*vs[1] + b*vs[0]) }}
}

func checkAgainstReference(t *testing.T, kind string, i int, c ocCase) {
	t.Helper()
	lo, hi, ctr, ok := Deduce(c.vals, c.n, c.oc, c.target)
	rlo, rhi, rctr, rok := refDeduce(c.vals, c.n, c.oc, c.target)
	if ok != rok || lo != rlo || hi != rhi || ctr != rctr {
		t.Fatalf("%s case %d (vals %v, target %v): got (%v %v %v %v), reference (%v %v %v %v)",
			kind, i, c.vals, c.target, lo, hi, ctr, ok, rlo, rhi, rctr, rok)
	}
}

// TestWidenMatchesReference checks that the secant search returns
// exactly the reference's intervals over seeded monotone OCs of every
// family shape.
func TestWidenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1))
	for _, g := range []struct {
		kind string
		gen  func(*rand.Rand) ocCase
	}{{"add", ocAdd}, {"mul", ocMul}, {"pair", ocPair}} {
		for i := 0; i < 3000; i++ {
			c := g.gen(rng)
			if !roundingTarget(rng, &c) {
				continue
			}
			checkAgainstReference(t, g.kind, i, c)
		}
	}
}

// TestWidenMatchesReferenceRecenter starts a few ulps outside the
// target, so both searches widen from the recentred point.
func TestWidenMatchesReferenceRecenter(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 2))
	recentred := 0
	for i := 0; i < 2000; i++ {
		c := ocMul(rng)
		if i%2 == 1 {
			c = ocPair(rng)
		}
		y := c.oc(c.vals)
		w := math.Abs(y) * math.Ldexp(1, -8-rng.IntN(20))
		if rng.IntN(2) == 0 {
			lo := fp.StepBy64(y, 1+rng.Int64N(4))
			c.target = interval.Interval{Lo: lo, Hi: lo + w}
		} else {
			hi := fp.StepBy64(y, -1-rng.Int64N(4))
			c.target = interval.Interval{Lo: hi - w, Hi: hi}
		}
		if _, _, ctr, ok := Deduce(c.vals, c.n, c.oc, c.target); ok && ctr != c.vals {
			recentred++
		}
		checkAgainstReference(t, "recenter", i, c)
	}
	if recentred < 1000 {
		t.Errorf("only %d of 2000 cases recentred", recentred)
	}
}

// TestWidenMatchesReferenceDegenerate covers targets unbounded on one
// or both sides, where the answer is maxSteps.
func TestWidenMatchesReferenceDegenerate(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 3))
	inf := math.Inf(1)
	for i := 0; i < 300; i++ {
		c := []func(*rand.Rand) ocCase{ocAdd, ocMul, ocPair}[i%3](rng)
		y := c.oc(c.vals)
		switch i % 3 {
		case 0:
			c.target = interval.Interval{Lo: -inf, Hi: inf}
		case 1:
			c.target = interval.Interval{Lo: -inf, Hi: y + math.Abs(y)*0x1p-20}
		default:
			c.target = interval.Interval{Lo: y - math.Abs(y)*0x1p-20, Hi: inf}
		}
		checkAgainstReference(t, "degenerate", i, c)
	}
}

// TestDeduceEvaluationsOCMul guards the point of the secant search: on
// the exp family's OC it needs a handful of evaluations per Deduce
// where walking out from one step needed ~100.
func TestDeduceEvaluationsOCMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 4))
	evals, deduces := 0, 0
	for i := 0; i < 2000; i++ {
		c := ocMul(rng)
		if !roundingTarget(rng, &c) {
			continue
		}
		oc := c.oc
		counted := func(vs [2]float64) float64 { evals++; return oc(vs) }
		if _, _, _, ok := Deduce(c.vals, c.n, counted, c.target); ok {
			deduces++
		}
	}
	if mean := float64(evals) / float64(deduces); mean > 20 {
		t.Errorf("%.1f OC evaluations per Deduce on OCMul, want <= 20", mean)
	} else {
		t.Logf("%.1f OC evaluations per Deduce over %d OCMul cases", mean, deduces)
	}
}

// TestDeduceNoAllocs pins Deduce's allocation-free contract: the
// generator calls it once per input.
func TestDeduceNoAllocs(t *testing.T) {
	a := 1.5
	oc := OC(func(vs [2]float64) float64 { return a * vs[0] })
	target, _ := interval.Rounding32(float32(a))
	if n := testing.AllocsPerRun(100, func() { Deduce([2]float64{1}, 1, oc, target) }); n != 0 {
		t.Errorf("Deduce allocates %v times per call", n)
	}
}
