// Double-precision reference evaluators, the tier-0 rung below the Ziv
// ladder.
//
// Each reference computes f(x) in float64 with a small known ulp error
// so that decide (and RoundDecided32, its typed float32 twin) can
// certify the rounding for almost every input without spinning up
// big.Float at all.
// Six of the ten functions map straight onto Go's math package
// (documented/observed accuracy of a couple of ulps). The remaining four
// need care:
//
//   - log2 is not math.Log2: that computes Log(frac)·(1/ln2) + exp
//     after Frexp, and for x just above 1 (frac just above 1/2, exp = 1)
//     the final addition cancels to a result whose absolute error is a
//     double ulp of 1: 2.7·10^6 ulps of log2(1+2^-23), and a wrong
//     posit32 rounding at the posit 0x400035f0 (1.0001028…).
//     math.Log(x)·(1/ln2) keeps Log's relative accuracy everywhere
//     (three roundings in total).
//   - exp10 has no math counterpart; math.Pow(10, x) loses accuracy as
//     |x·ln10| grows, so a compensated exp(x·ln10) with a double-double
//     ln10 constant is used instead.
//   - sinpi/cospi cannot be math.Sin(math.Pi*x): near the zeros of the
//     result the rounding of π·x destroys all relative accuracy. The
//     argument is instead reduced exactly (float32 inputs widen to
//     float64 exactly, and Mod/round/subtract below are exact), so the
//     only errors are the final π multiply and the sin/cos call — a few
//     ulps relative, everywhere.
//
// The accuracy contract holds for float32-origin inputs (the reduction
// in sinpi/cospi relies on the 24-bit significand). Target consults
// them there for float32 and for the 16-bit targets, whose values are
// all float32 values. The exhaustive float32 sweeps (internal/exhaust,
// all 2^32 inputs per function) validate the combination of these
// references with RoundDecided32 against the generated tables, so the
// tier-0 fast path rests on swept evidence, not just the analytic ulp
// argument; every 16-bit input is checked against the ladder
// (tier0_test.go). The other eight references keep the contract on
// every double, which is where Target consults them for posit32:
// posit32 inputs carry up to 27 significand bits. For sinpi/cospi it
// uses the high word of the double-double kernels instead
// (posit32Ref). The posit32 tier 0 of all ten is checked against the
// ladder on the posit edges and on 2^16 seeded random posits per
// function (oracle_test.go), not swept exhaustively.
package oracle

import (
	"math"

	"rlibm32/internal/bigfp"
)

// ln10Lo is ln(10) - math.Ln10 (the double-double tail of ln 10).
const ln10Lo = -2.1707562233822494e-16

// exp10Ref computes 10^x with compensated argument transformation:
// p = RN(x·ln10hi), e = the exactly-FMA'd rounding error plus the tail
// term x·ln10lo, and e^(p+e) = e^p·(1+e) to first order (|e| ≲ 710·2^-53
// whenever e^p is finite, so the truncated e²/2 term is far below
// double ulp).
func exp10Ref(x float64) float64 {
	p := x * math.Ln10
	y := math.Exp(p)
	if y == 0 || math.IsInf(y, 0) || math.IsNaN(y) {
		// Underflowed/overflowed beyond double range (or NaN input):
		// the correction cannot change the float32 rounding.
		return y
	}
	e := math.FMA(x, math.Ln10, -p) + x*ln10Lo
	return y + y*e
}

// reducePi2 returns d, n with x ≡ d + n (mod 2), d ∈ [-0.5, 0.5] and n
// ∈ {0, 1}, all steps exact for float32-origin x: such x carry a 24-bit
// significand, Mod(x, 2) keeps a suffix of those bits, Round is exact,
// and the final subtraction is exact by Sterbenz-style alignment.
func reducePi2(x float64) (d float64, odd bool) {
	r := math.Mod(x, 2) // (-2, 2), exact
	n := math.Round(r)  // nearest integer in {-2,-1,0,1,2}, exact
	return r - n, int64(n)&1 != 0
}

// sinpiRef computes sin(πx) for float32-origin x to a few double ulps
// of relative accuracy, including arbitrarily close to the zeros at the
// integers, where it returns +0.
func sinpiRef(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return math.NaN()
	}
	if ax := math.Abs(x); ax >= 1<<24 {
		// Every float32 with |x| ≥ 2^24 is an even integer: sin(πx) = 0.
		return 0
	}
	d, odd := reducePi2(x)
	if d == 0 {
		// x is an integer. The exact zero is +0, as the ladder's is.
		return 0
	}
	s := math.Sin(math.Pi * d) // |πd| ≤ π/2; relative error a few ulps
	if odd {
		s = -s
	}
	return s
}

// cospiRef computes cos(πx) for float32-origin x to a few double ulps
// of relative accuracy, including arbitrarily close to the zeros at the
// half-integers: there the quadrant is folded through sin(π(1/2-|d|)),
// whose argument is exact (|d| ∈ (1/4, 1/2] keeps all bits within a
// 53-bit window below 2^-1).
func cospiRef(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return math.NaN()
	}
	if math.Abs(x) >= 1<<24 {
		return 1 // cos of an even integer multiple of π
	}
	d, odd := reducePi2(x)
	var c float64
	if ad := math.Abs(d); ad <= 0.25 {
		c = math.Cos(math.Pi * d)
	} else {
		c = math.Sin(math.Pi * (0.5 - ad))
	}
	if c == 0 {
		// x is a half-integer. The exact zero is +0, as the ladder's is.
		return 0
	}
	if odd {
		c = -c
	}
	return c
}

// log2Ref computes log2(x) as ln(x)·(1/ln2), accurate to a few ulps of
// relative error on every double, including just above 1.
func log2Ref(x float64) float64 {
	return math.Log(x) * (1 / math.Ln2)
}

// ref64 maps each oracle function to its double reference.
var ref64 = map[bigfp.Func]func(float64) float64{
	bigfp.Log:   math.Log,
	bigfp.Log2:  log2Ref,
	bigfp.Log10: math.Log10,
	bigfp.Exp:   math.Exp,
	bigfp.Exp2:  math.Exp2,
	bigfp.Exp10: exp10Ref,
	bigfp.Sinh:  math.Sinh,
	bigfp.Cosh:  math.Cosh,
	bigfp.SinPi: sinpiRef,
	bigfp.CosPi: cospiRef,
}

// posit32Ref returns f's posit32 tier-0 reference, which must keep its
// accuracy contract on every double, or nil. sinpi/cospi take the high
// word of the double-double kernels, whose exact reduction works on
// any double; the other eight use their ref64 entry.
func posit32Ref(f bigfp.Func) func(float64) float64 {
	switch f {
	case bigfp.SinPi:
		return func(x float64) float64 { v, _ := ddEval(bigfp.SinPi, x); return v.Hi }
	case bigfp.CosPi:
		return func(x float64) float64 { v, _ := ddEval(bigfp.CosPi, x); return v.Hi }
	}
	return ref64[f]
}

// Ref64 returns the double-precision reference evaluator for f, or
// false if none exists. The returned function is accurate to a few
// float64 ulps on every float32-origin input — the contract
// RoundDecided32's guard band is sized against. A second contract lets
// callers skip the oracle on domain errors: each reference returns NaN
// exactly when the mathematical result is NaN (negative arguments of
// the log family, NaN inputs), never spuriously for a finite result.
func Ref64(f bigfp.Func) (func(float64) float64, bool) {
	fn, ok := ref64[f]
	return fn, ok
}
