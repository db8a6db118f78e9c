// Package oracle produces correctly rounded results RN_T(f(x)) for
// every interval.Target (the 32- and 16-bit formats) and for float64,
// replacing the paper's use of the MPFR library ("with up to 400
// precision bits").
//
// It drives internal/bigfp through a Ziv-style loop: evaluate f(x) at a
// working precision, widen the value by bigfp's guaranteed error bound,
// and accept the rounding only if both ends of the widened interval
// round identically; otherwise retry at higher precision. The precision
// ladder ends at 400 bits — the paper's own cap, justified by worst-case
// rounding-distance results (Lefèvre-Muller) for double precision,
// which dominate the 32-bit targets used here.
//
// Every query runs the same three steps: the domain edge (NaN,
// infinities, arguments outside the function's domain), a tier 0 that
// decides almost every rounding without big.Float, then the ladder.
// For the 32- and 16-bit targets tier 0 is a double reference plus a
// guard band (ref.go, guard.go): decide accepts the reference's
// rounding when both ends of the band round to one target value. For
// float64 it is a double-double evaluator (ddeval.go). Nothing is
// memoized: with tier 0 deciding in tens to hundreds of nanoseconds, a
// cache in front of it costs more than it saves, and callers that need
// an answer twice hold on to it themselves.
package oracle

import (
	"math"
	"math/big"
	"sync"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/interval"
	"rlibm32/posit32"
)

// precisions is the Ziv ladder.
var precisions = []uint{96, 160, 256, 400}

// domainEdge handles inputs outside the open domain where bigfp
// evaluates (NaN, infinities, non-positive logarithm arguments),
// making the oracle total. ok=true means y is the exact real-extended
// result (possibly NaN/±Inf) and bigfp must not be called.
func domainEdge(f bigfp.Func, x float64) (y float64, ok bool) {
	if math.IsNaN(x) {
		return math.NaN(), true
	}
	switch f {
	case bigfp.Log, bigfp.Log2, bigfp.Log10:
		if x < 0 {
			return math.NaN(), true
		}
		if x == 0 {
			return math.Inf(-1), true
		}
		if math.IsInf(x, 1) {
			return math.Inf(1), true
		}
	case bigfp.Log1p, bigfp.Log21p, bigfp.Log101p:
		if x < -1 {
			return math.NaN(), true
		}
		if x == -1 {
			return math.Inf(-1), true
		}
		if math.IsInf(x, 1) {
			return math.Inf(1), true
		}
	case bigfp.Exp, bigfp.Exp2, bigfp.Exp10:
		if math.IsInf(x, 1) {
			return math.Inf(1), true
		}
		if math.IsInf(x, -1) {
			return 0, true
		}
	case bigfp.Sinh:
		if math.IsInf(x, 0) {
			return x, true
		}
	case bigfp.Cosh:
		if math.IsInf(x, 0) {
			return math.Inf(1), true
		}
	case bigfp.SinPi, bigfp.CosPi:
		if math.IsInf(x, 0) {
			return math.NaN(), true
		}
	}
	return 0, false
}

// zivScratch holds the big.Float temporaries of one Ziv ladder run, so
// a full oracle evaluation performs no top-level allocations (the
// remaining ones are internal to math/big arithmetic).
type zivScratch struct {
	w, e, lo, hi big.Float
}

var zivPool = sync.Pool{New: func() any { return new(zivScratch) }}

// band widens w by bigfp's relative error bound at precision p,
// leaving lo <= f(x) <= hi in the scratch fields.
func (s *zivScratch) band(w *big.Float, prec uint) (lo, hi *big.Float) {
	if w.Sign() == 0 {
		// bigfp returns exact zeros only when the result is exactly zero.
		return w, w
	}
	e := s.e.SetPrec(w.Prec()).Abs(w)
	e.SetMantExp(e, -int(prec)+bigfp.ErrLog2)
	lo = s.lo.SetPrec(w.Prec()+8).Sub(w, e)
	hi = s.hi.SetPrec(w.Prec()+8).Add(w, e)
	return lo, hi
}

// Float32 returns the correctly rounded float32 value of f(x).
// Out-of-domain and infinite inputs follow the IEEE conventions
// (log of a negative is NaN, exp(-Inf) is 0, ...).
func Float32(f bigfp.Func, x float64) float32 {
	v, _ := Target(interval.Float32Target{}, f, x)
	return float32(v)
}

// Posit32 returns the correctly rounded posit32 value of f(x): NaR
// where the result is not a real (NaN, or an infinite domain-edge
// result, since posits have no infinities).
func Posit32(f bigfp.Func, x float64) posit32.Posit {
	v, ok := Target(interval.Posit32Target{}, f, x)
	if !ok {
		return posit32.NaR
	}
	return posit32.FromFloat64(v)
}

// Target returns RN_T(f(x)) as the exact double embedding for the given
// target, plus ok=false when the result is not a T value (NaN, float32
// NaN, posit NaR). Every target runs the same sequence: the domain
// edge, tier 0 (a double reference and decide), then the Ziv ladder.
func Target(t interval.Target, f bigfp.Func, x float64) (float64, bool) {
	if y, ok := domainEdge(f, x); ok {
		v := t.Round(y) // posit targets round ±Inf to NaR
		return v, !math.IsNaN(v)
	}
	if ref := tier0Ref(t, f, x); ref != nil {
		if v, ok := decide(t, ref(x)); ok {
			noteTier0()
			return v, true
		}
	}
	return zivTarget(t, f, x)
}

// tier0Ref returns the double reference whose accuracy contract holds
// for x, or nil. posit32 inputs carry up to 27 significand bits, so
// posit32 takes posit32Ref, which keeps its contract on every double.
// Every other target takes ref64 on float32-origin inputs: float32,
// and the 16-bit targets, whose values (bfloat16, float16, and posit16
// with es=2, range 2^±56 and at most 11 fraction bits) are all exactly
// float32 values.
func tier0Ref(t interval.Target, f bigfp.Func, x float64) func(float64) float64 {
	if _, ok := t.(interval.Posit32Target); ok {
		return posit32Ref(f)
	}
	if float64(float32(x)) != x {
		return nil
	}
	return ref64[f]
}

// zivTarget runs the Ziv ladder for the T rounding of f(x).
func zivTarget(t interval.Target, f bigfp.Func, x float64) (float64, bool) {
	s := zivPool.Get().(*zivScratch)
	defer zivPool.Put(s)
	var w *big.Float
	var last float64
	var lastOK bool
	for i, p := range precisions {
		w = bigfp.EvalTo(&s.w, f, x, p)
		lo, hi := s.band(w, p)
		a, aok := t.RoundBig(lo)
		b, bok := t.RoundBig(hi)
		if aok && bok && t.SameResult(a, b) {
			noteZiv(i)
			return a, true
		}
		last, lastOK = a, aok
	}
	// The 400-bit band still straddles a rounding boundary, which means
	// f(x) lies exactly on one: posit32 exp2(-118) = 2^-118 sits halfway
	// between MinPos and the next posit. The 32-bit targets accept the
	// lower end's rounding and the others the center's: the committed
	// tables were generated that way (posit32 and posit16 exp2 place
	// their underflow cutoffs by it).
	noteZivFallback()
	switch t.(type) {
	case interval.Float32Target, interval.Posit32Target:
		return last, lastOK
	}
	return t.RoundBig(w)
}

// Float64 returns the correctly rounded float64 value of f(x). It is
// both the reduced-function oracle of Algorithm 2 and the CRDouble
// baseline library. The double-double tier 0 (ddeval.go) decides it
// unless the value lies too close to a rounding boundary, is zero,
// subnormal or infinite, or no kernel covers x; those run the ladder.
func Float64(f bigfp.Func, x float64) float64 {
	if y, ok := domainEdge(f, x); ok {
		return y
	}
	if y, ok := float64Tier0(f, x); ok {
		noteTier0()
		return y
	}
	return float64Ziv(f, x)
}

// float64Ziv runs the Ziv ladder for the float64 rounding of f(x).
func float64Ziv(f bigfp.Func, x float64) float64 {
	s := zivPool.Get().(*zivScratch)
	defer zivPool.Put(s)
	var last float64
	for i, p := range precisions {
		w := bigfp.EvalTo(&s.w, f, x, p)
		lo, hi := s.band(w, p)
		a, _ := lo.Float64()
		b, _ := hi.Float64()
		last = a
		if a == b || (a != a && b != b) {
			noteZiv(i)
			return a
		}
	}
	noteZivFallback()
	return last
}
