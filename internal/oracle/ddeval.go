// Double-double tier 0 of the float64 oracle.
//
// Algorithm 2 needs, for every sampled input, each reduced function's
// value correctly rounded to double, and the CRDouble baseline asks the
// same question of arbitrary doubles. A double-double (dd) evaluation
// whose relative error is proven below errRel answers it whenever both
// ends of the error band round to the same double: CR-LIBM's quick
// phase, with the Ziv ladder as its accurate phase. A ±2^-80 band
// straddles a rounding boundary (one per double ulp, 2^-52 relative or
// finer) for roughly one query in 2^27.
//
// Every kernel reduces its argument exactly, or with an error far below
// errRel, and sums a truncated series in dd arithmetic (about 2^-104
// relative error per operation):
//
//   - exp/exp2/exp10: x = k·log_b(2)/64 + r with a dd constant, 2^(j/64)
//     from a dd table, and e^r by a degree-10 Taylor series (|r| ≤
//     ln2/128, truncation below 2^-107).
//   - log/log2/log10: x = 2^e·F·(1 + r) with F = 1 + j/128 and dd tables
//     of ln F and 1/F. Within 2^-7 of 1 the kernel takes ln(1 + (x−1))
//     directly, because e·ln2 + ln F would cancel there.
//   - log1p/log21p/log101p on |r| ≤ 2^-4, the reduced log range of
//     every variant (2^-7 for the 32-bit ones): the atanh series
//     2s(1 + s²/3 + s⁴/5 + …) with s = r/(2+r), through s¹⁴/15 for |r| ≤
//     2^-7 and through s²⁰/21 above, truncating below 2^-113 of the
//     result. The coefficients are dd values: rounded to double, 1/3
//     and 1/5 alone would contribute errors of 2^-71 and 2^-88.
//   - sinh/cosh: the odd Taylor series for |x| < 1/2, (e^x ∓ e^-x)/2
//     above.
//   - sinpi/cospi: the exact mod-2 reduction to L ∈ [0, 1/2] and the
//     sin/cos Taylor series of πL or π(1/2 − L), both at most π/4.
//
// The analysis puts every kernel near 2^-95. errRel = 2^-80 leaves a
// wide margin, and TestDDKernelErrorBounds measures each kernel against
// 300-bit bigfp and requires at most errRel/2^8.
//
// The relative bound holds only while every dd component is a normal
// double. Tier 0 therefore decides only finite results with |hi| ≥
// minTier0, plus the exact zeros (sinpi at integers, log(1), …), which
// it recognises from x and returns with the ladder's sign. All other
// queries fall through to the ladder: subnormal and overflowing results
// (including sinh and cosh on 709.78 < |x| < 711, where the kernels'
// e^|x| overflows) and arguments no kernel covers.
package oracle

import (
	"math"
	"math/big"
	"sync"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/dd"
)

// errRel bounds the relative error of every dd kernel.
const errRel = 0x1p-80

// minTier0 is the smallest |hi| tier 0 decides: above it the low word
// of a dd result (about 2^-53·hi) is still a normal double.
const minTier0 = 0x1p-969

// float64Tier0 returns RN(f(x)) when the dd evaluation's error band
// rounds to one finite, normal, non-zero double, or when f(x) is an
// exact zero.
func float64Tier0(f bigfp.Func, x float64) (float64, bool) {
	v, ok := ddEval(f, x)
	if ok && v.Hi == 0 {
		return exactZero(f, x)
	}
	a := math.Abs(v.Hi)
	if !ok || !(a >= minTier0 && a <= math.MaxFloat64) {
		return 0, false
	}
	e := a * errRel
	lo := v.Hi + (v.Lo - e)
	hi := v.Hi + (v.Lo + e)
	return lo, lo == hi && math.Abs(lo) <= math.MaxFloat64
}

// exactZero reports whether f(x) = 0 exactly, and returns the zero the
// ladder produces there: +0, except sinh(±0) = ±0. A dd result of zero
// alone does not tell, because a tiny result can underflow.
func exactZero(f bigfp.Func, x float64) (float64, bool) {
	switch f {
	case bigfp.Log, bigfp.Log2, bigfp.Log10:
		return 0, x == 1
	case bigfp.Log1p, bigfp.Log21p, bigfp.Log101p:
		return 0, x == 0
	case bigfp.Sinh:
		return x, x == 0
	case bigfp.SinPi:
		return 0, x == math.Trunc(x)
	case bigfp.CosPi:
		return 0, math.Abs(x-math.Trunc(x)) == 0.5 // x − Trunc(x) is exact
	}
	return 0, false
}

// ddEval evaluates f(x) in double-double, or reports false where no
// kernel covers x. Callers have removed the domainEdge inputs.
func ddEval(f bigfp.Func, x float64) (dd.DD, bool) {
	ddcOnce.Do(buildDDTables)
	switch f {
	case bigfp.Exp:
		if x > -746 && x < 710 {
			return expDD(x), true
		}
	case bigfp.Exp2:
		if x > -1076 && x < 1025 {
			k := math.Round(x * 64)
			// x·64 − k is exact: both share x·64's scale.
			return expScaled(k, dd.MulF(ddc.ln2, (x*64-k)*0x1p-6)), true
		}
	case bigfp.Exp10:
		if x > -324 && x < 309 {
			k := math.Round(x * ddc.invC64Ten)
			r := dd.Mul(dd.AddF(dd.MulF(ddc.c64Ten, -k), x), ddc.ln10)
			return expScaled(k, r), true
		}
	case bigfp.Log:
		return logDD(x), true
	case bigfp.Log2:
		return dd.Mul(logDD(x), ddc.invLn2), true
	case bigfp.Log10:
		return dd.Mul(logDD(x), ddc.invLn10), true
	case bigfp.Log1p, bigfp.Log21p, bigfp.Log101p:
		if math.Abs(x) > 0x1p-4 {
			break
		}
		v := logKernel(dd.FromFloat64(x))
		switch f {
		case bigfp.Log21p:
			v = dd.Mul(v, ddc.invLn2)
		case bigfp.Log101p:
			v = dd.Mul(v, ddc.invLn10)
		}
		return v, true
	case bigfp.Sinh, bigfp.Cosh:
		if math.Abs(x) < 711 {
			return hyperbolicDD(f == bigfp.Sinh, x), true
		}
	case bigfp.SinPi:
		return sinpiDD(x), true
	case bigfp.CosPi:
		return cospiDD(x), true
	}
	return dd.DD{}, false
}

// ddc holds the dd constants and tables, built from bigfp on the first
// ddEval call: every program that links the runtime library links this
// package, and most never query the oracle.
var (
	ddcOnce sync.Once
	ddc     struct {
		ln2, ln10, pi   dd.DD
		invLn2, invLn10 dd.DD
		c64             dd.DD // ln2/64
		invC64          float64
		c64Ten          dd.DD // log10(2)/64
		invC64Ten       float64
		invOdd          [11]dd.DD  // 1/(2k+1)
		exp2T           [64]dd.DD  // 2^(j/64)
		lnF             [128]dd.DD // ln(1 + j/128)
		invF            [128]dd.DD // 1/(1 + j/128)
		invFact         [32]dd.DD  // 1/n!
	}
)

// toDD splits f into the nearest double and the nearest double to the
// remainder.
func toDD(f *big.Float) dd.DD {
	hi, _ := f.Float64()
	rest := new(big.Float).SetPrec(f.Prec()).Sub(f, new(big.Float).SetFloat64(hi))
	lo, _ := rest.Float64()
	return dd.DD{Hi: hi, Lo: lo}
}

func buildDDTables() {
	const p = 160
	quo := func(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(p).Quo(a, b) }
	one := big.NewFloat(1)
	ln2, ln10 := bigfp.Ln2(p), bigfp.Ln10(p)
	ddc.ln2, ddc.ln10, ddc.pi = toDD(ln2), toDD(ln10), toDD(bigfp.Pi(p))
	ddc.invLn2, ddc.invLn10 = toDD(quo(one, ln2)), toDD(quo(one, ln10))
	c := quo(ln2, big.NewFloat(64))
	ddc.c64 = toDD(c)
	ddc.invC64, _ = quo(one, c).Float64()
	cTen := quo(quo(ln2, ln10), big.NewFloat(64))
	ddc.c64Ten = toDD(cTen)
	ddc.invC64Ten, _ = quo(one, cTen).Float64()
	for k := range ddc.invOdd {
		ddc.invOdd[k] = toDD(quo(one, big.NewFloat(float64(2*k+1))))
	}
	for j := range ddc.exp2T {
		ddc.exp2T[j] = toDD(bigfp.Eval(bigfp.Exp2, float64(j)*0x1p-6, p))
	}
	ddc.invF[0] = dd.FromFloat64(1)
	for j := 1; j < len(ddc.lnF); j++ {
		f := 1 + float64(j)*0x1p-7
		ddc.lnF[j] = toDD(bigfp.Eval(bigfp.Log, f, p))
		ddc.invF[j] = toDD(quo(one, big.NewFloat(f)))
	}
	fact := new(big.Float).SetPrec(p).SetInt64(1)
	for n := range ddc.invFact {
		if n > 0 {
			fact.Mul(fact, new(big.Float).SetInt64(int64(n)))
		}
		ddc.invFact[n] = toDD(quo(one, fact))
	}
}

// expKernel computes e^r for |r| ≤ ln2/128 (degree-10 Taylor series).
func expKernel(r dd.DD) dd.DD {
	acc := ddc.invFact[10]
	for n := 9; n >= 0; n-- {
		acc = dd.Add(dd.Mul(acc, r), ddc.invFact[n])
	}
	return acc
}

// expScaled returns 2^(k/64)·e^r.
func expScaled(k float64, r dd.DD) dd.DD {
	ki := int(k)
	m := ki >> 6
	v := dd.Mul(ddc.exp2T[ki-m<<6], expKernel(r))
	if m > 1023 { // 2^m overflows, though the result may not
		v, m = dd.Scale(v, m-1023), 1023
	}
	return dd.Scale(v, m)
}

// expDD returns e^x for |x| < 746.
func expDD(x float64) dd.DD {
	k := math.Round(x * ddc.invC64)
	return expScaled(k, dd.AddF(dd.MulF(ddc.c64, -k), x))
}

// logKernel computes ln(1+r) for |r| ≤ 2^-4 by the atanh series.
func logKernel(r dd.DD) dd.DD {
	s := dd.Div(r, dd.AddF(r, 2)) // |s| < 2^-4.9, and < 2^-7.9 for |r| ≤ 2^-7
	s2 := dd.Sqr(s)
	k := 7
	if math.Abs(r.Hi) > 0x1p-7 {
		k = 10
	}
	acc := ddc.invOdd[k]
	for k--; k >= 0; k-- {
		acc = dd.Add(dd.Mul(acc, s2), ddc.invOdd[k])
	}
	return dd.Scale(dd.Mul(acc, s), 1)
}

// logDD returns ln(x) for finite x > 0.
func logDD(x float64) dd.DD {
	if x > 1-0x1p-7 && x < 1+0x1p-7 {
		return logKernel(dd.FromFloat64(x - 1)) // x − 1 is exact (Sterbenz)
	}
	fr, e := math.Frexp(x)
	mhat := 2 * fr
	j := int((mhat - 1) * 128)
	F := 1 + float64(j)*0x1p-7
	r := dd.MulF(ddc.invF[j], mhat-F) // the numerator is exact
	l := dd.Add(logKernel(r), ddc.lnF[j])
	return dd.Add(l, dd.MulF(ddc.ln2, float64(e-1)))
}

// hyperbolicDD returns sinh(x) or cosh(x) for |x| < 711.
func hyperbolicDD(sinh bool, x float64) dd.DD {
	ax := math.Abs(x)
	var v dd.DD
	if sinh && ax < 0.5 {
		// Odd Taylor series through x^21: truncation below 2^-96.
		x2 := dd.MulFF(ax, ax)
		acc := ddc.invFact[21]
		for n := 19; n >= 1; n -= 2 {
			acc = dd.Add(dd.Mul(acc, x2), ddc.invFact[n])
		}
		v = dd.MulF(acc, ax)
	} else {
		e := expDD(ax)
		inv := dd.Div(dd.FromFloat64(1), e)
		if sinh {
			inv = dd.Neg(inv)
		}
		v = dd.Scale(dd.Add(e, inv), -1)
	}
	if sinh && x < 0 {
		v = dd.Neg(v)
	}
	return v
}

// sinKernel computes sin(t) for 0 ≤ t ≤ π/4 (terms through t^25:
// truncation below 2^-100).
func sinKernel(t dd.DD) dd.DD {
	t2 := dd.Sqr(t)
	var acc dd.DD
	for n := 25; n >= 1; n -= 2 {
		c := ddc.invFact[n]
		if n%4 == 3 {
			c = dd.Neg(c)
		}
		acc = dd.Add(dd.Mul(acc, t2), c)
	}
	return dd.Mul(acc, t)
}

// cosKernel computes cos(t) for 0 ≤ t ≤ π/4 (terms through t^26:
// truncation below 2^-105).
func cosKernel(t dd.DD) dd.DD {
	t2 := dd.Sqr(t)
	var acc dd.DD
	for n := 26; n >= 0; n -= 2 {
		c := ddc.invFact[n]
		if n%4 == 2 {
			c = dd.Neg(c)
		}
		acc = dd.Add(dd.Mul(acc, t2), c)
	}
	return acc
}

// piReduce returns L ∈ [0, 1/2] and the signs with sinpi(x) =
// sSign·sinpi(L) and cospi(x) = cSign·cospi(L). Every step is exact
// for any finite double (Mod, a subtraction within [1, 2), and 1 − j
// by Sterbenz).
func piReduce(x float64) (L, sSign, cSign float64) {
	sSign, cSign = 1, 1
	if x < 0 {
		sSign = -1
	}
	j := math.Mod(math.Abs(x), 2)
	if j >= 1 {
		j--
		sSign, cSign = -sSign, -cSign
	}
	if j > 0.5 {
		j = 1 - j
		cSign = -cSign
	}
	return j, sSign, cSign
}

// sinpiDD returns sin(πx) for finite x.
func sinpiDD(x float64) dd.DD {
	L, s, _ := piReduce(x)
	var v dd.DD
	if L <= 0.25 {
		v = sinKernel(dd.MulF(ddc.pi, L))
	} else {
		v = cosKernel(dd.MulF(ddc.pi, 0.5-L)) // 1/2 − L is exact
	}
	return dd.MulF(v, s)
}

// cospiDD returns cos(πx) for finite x.
func cospiDD(x float64) dd.DD {
	L, _, c := piReduce(x)
	var v dd.DD
	if L <= 0.25 {
		v = cosKernel(dd.MulF(ddc.pi, L))
	} else {
		v = sinKernel(dd.MulF(ddc.pi, 0.5-L))
	}
	return dd.MulF(v, c)
}
