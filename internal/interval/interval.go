// Package interval implements rounding intervals (Algorithm 1, lines
// 14-17 of the paper): for a target-representation value y, the closed
// interval [l, h] of double-precision values that round to y. If the
// generated polynomial pipeline produces any value in [l, h], rounding
// it to the target yields the correctly rounded result.
//
// It also defines Target, the abstraction over the rounding targets
// used throughout the generator: the two 32-bit targets (IEEE float32
// and posit32) and the 16-bit ones (bfloat16, float16, posit16, in
// mini.go). Target values are carried around as float64: every target
// embeds exactly into double precision, which is the paper's
// higher-precision type H.
package interval

import (
	"math"
	"math/big"

	"rlibm32/internal/fp"
	"rlibm32/posit32"
)

// Interval is a closed interval [Lo, Hi] of float64 values.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool {
	return iv.Lo <= v && v <= iv.Hi
}

// Width returns Hi - Lo (may overflow to +Inf for the huge intervals
// around extremal values; callers use it only for tightness heuristics).
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Intersect returns the intersection and whether it is nonempty.
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	r := Interval{math.Max(iv.Lo, o.Lo), math.Min(iv.Hi, o.Hi)}
	return r, r.Lo <= r.Hi
}

// Rounding32 returns the closed interval of doubles that round to the
// float32 y under round-to-nearest-even, and ok=false for NaN.
// For y = ±0 the interval covers both signed zeros' preimages, because
// the library validates outputs by value (+0 == -0).
func Rounding32(y float32) (Interval, bool) {
	switch {
	case fp.IsNaN32(y):
		return Interval{}, false
	case y == 0:
		// (-2^-150, 2^-150), closed: the half-ulp midpoints tie to the
		// even mantissa, which is zero.
		return Interval{-0x1p-150, 0x1p-150}, true
	case fp.IsInf32(y, 1):
		// Values at or above the overflow midpoint round to +Inf (the
		// tie goes to the even, carried pattern).
		return Interval{overflow32Boundary, math.Inf(1)}, true
	case fp.IsInf32(y, -1):
		return Interval{math.Inf(-1), -overflow32Boundary}, true
	}
	even := fp.MantissaEven32(y)
	var lo, hi float64
	prev := fp.NextDown32(y)
	next := fp.NextUp32(y)
	if fp.IsInf32(prev, -1) {
		lo = -overflow32Boundary
	} else {
		lo = fp.Midpoint32(prev, y)
	}
	if fp.IsInf32(next, 1) {
		hi = overflow32Boundary
	} else {
		hi = fp.Midpoint32(y, next)
	}
	if even {
		// Midpoints tie to y: closed on both sides, except that the
		// overflow boundary itself rounds to Inf.
		if hi == overflow32Boundary {
			hi = fp.NextDown64(hi)
		}
		if lo == -overflow32Boundary {
			lo = fp.NextUp64(lo)
		}
		return Interval{lo, hi}, true
	}
	return Interval{fp.NextUp64(lo), fp.NextDown64(hi)}, true
}

// overflow32Boundary is the midpoint between MaxFloat32 and 2^128: a
// double at or beyond it rounds (to nearest-even) to float32 +Inf.
const overflow32Boundary = 0x1.ffffffp+127 // 2^128 − 2^103

// RoundingPosit returns the closed interval of doubles that round to
// the posit p, and ok=false for NaR.
func RoundingPosit(p posit32.Posit) (Interval, bool) {
	if p.IsNaR() {
		return Interval{}, false
	}
	lo, hi := p.RoundingIntervalF64()
	return Interval{lo, hi}, true
}

// Target abstracts a rounding target T. Values of T are carried as
// float64 (the embedding is exact for every supported target).
type Target interface {
	// Name returns the target's name: "float32", "posit32",
	// "bfloat16", "float16" or "posit16".
	Name() string
	// RoundBig rounds an arbitrary-precision real to T, returned as the
	// exact double embedding. The bool is false for values with no
	// real result (NaN → float32 NaN / posit NaR).
	RoundBig(f *big.Float) (float64, bool)
	// Round rounds a double to T (the RN_T used at library runtime).
	Round(v float64) float64
	// Interval returns the rounding interval of the T-value v (which
	// must be an exact embedding, e.g. from RoundBig or Round).
	Interval(v float64) (Interval, bool)
	// SameResult reports whether two embedded T-values are the same
	// library result (value equality; +0 == -0).
	SameResult(a, b float64) bool
	// Ord maps an embedded T-value to an order-preserving integer
	// (adjacent T-values map to adjacent integers), and FromOrd inverts
	// it. These drive the paper's representation-proportional sampling
	// and the special-case cutoff searches.
	Ord(v float64) int64
	FromOrd(i int64) float64
}

// OrdRange returns the inclusive ordinal range [Ord(a), Ord(b)].
func OrdRange(t Target, a, b float64) (int64, int64) {
	return t.Ord(a), t.Ord(b)
}

// Float32Target is the IEEE binary32 target.
type Float32Target struct{}

// Name implements Target.
func (Float32Target) Name() string { return "float32" }

// RoundBig implements Target. Infinite big values (possible only from
// deliberate construction; the oracle handles overflow thresholds
// before this point) round to ±Inf.
func (Float32Target) RoundBig(f *big.Float) (float64, bool) {
	v, _ := f.Float32()
	return float64(v), true
}

// Round implements Target.
func (Float32Target) Round(v float64) float64 { return float64(float32(v)) }

// Interval implements Target.
func (Float32Target) Interval(v float64) (Interval, bool) {
	return Rounding32(float32(v))
}

// SameResult implements Target.
func (Float32Target) SameResult(a, b float64) bool {
	af, bf := float32(a), float32(b)
	if fp.IsNaN32(af) && fp.IsNaN32(bf) {
		return true
	}
	return af == bf
}

// Ord implements Target.
func (Float32Target) Ord(v float64) int64 {
	return int64(fp.OrderedInt32(float32(v)))
}

// FromOrd implements Target.
func (Float32Target) FromOrd(i int64) float64 {
	return float64(fp.FromOrderedInt32(int32(i)))
}

// Posit32Target is the 32-bit posit (es=2) target.
type Posit32Target struct{}

// Name implements Target.
func (Posit32Target) Name() string { return "posit32" }

// RoundBig implements Target.
func (Posit32Target) RoundBig(f *big.Float) (float64, bool) {
	p := posit32.RoundBig(f)
	if p.IsNaR() {
		return math.NaN(), false
	}
	return p.Float64(), true
}

// Round implements Target.
func (Posit32Target) Round(v float64) float64 {
	return posit32.FromFloat64(v).Float64()
}

// Interval implements Target.
func (Posit32Target) Interval(v float64) (Interval, bool) {
	return RoundingPosit(posit32.FromFloat64(v))
}

// SameResult implements Target.
func (Posit32Target) SameResult(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return posit32.FromFloat64(a) == posit32.FromFloat64(b)
}

// Ord implements Target: posit bit patterns ordered as int32 order by
// value.
func (Posit32Target) Ord(v float64) int64 {
	return int64(int32(posit32.FromFloat64(v).Bits()))
}

// FromOrd implements Target.
func (Posit32Target) FromOrd(i int64) float64 {
	return posit32.FromBits(uint32(int32(i))).Float64()
}
