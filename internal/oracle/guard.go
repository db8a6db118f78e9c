// Guard-band escalation: the cheap front half of the exhaustive
// verifier's two-tier oracle, and tier 0 of the oracle for every
// interval.Target.
//
// A double-precision approximation of f(x) that is accurate to within a
// known number of float64 ulps determines the correctly rounded float32
// result for the overwhelming majority of inputs: a float32 rounding
// boundary (the midpoint of two adjacent float32 values) is ~2^28
// float64 ulps away from a random double, so a guard band of a few
// hundred ulps around the approximation almost never straddles one.
// The same holds for posit32, whose rounding boundaries are at least
// ~2^25 float64 ulps apart (27 fraction bits at most, near 1).
// Only when it does — or when the caller has independent reason to
// distrust the approximation — must the full Ziv ladder run.
package oracle

import (
	"math"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/interval"
)

// DefaultGuardUlps is the guard-band half-width used by the exhaustive
// verifier, in float64 ulps of the reference value. The double
// references (Go's math package plus the compensated exp10/sinpi/cospi
// in internal/exhaust) are accurate to a few ulps; 256 leaves two
// orders of magnitude of slack while keeping the expected escalation
// fraction near 2*256*2^-52 / 2^-24 ≈ 2^-19 of inputs.
const DefaultGuardUlps = 256

// RoundDecided32 rounds ref — a double-precision approximation of a
// true real value, accurate to within guardUlps float64 ulps — to
// float32, reporting whether the rounding is insensitive to the
// approximation error: ok means every value in the guard band rounds to
// the same float32, so the returned value IS the correct rounding of
// the true value (given the accuracy contract).
//
// Non-finite and zero references are decided by range reasoning rather
// than a band: a double that overflowed to ±Inf stands for a magnitude
// ≥ ~2^1023, far beyond the float32 overflow threshold 2^128; a double
// that is exactly zero stands for a magnitude ≤ guardUlps*2^-1074, far
// below the smallest float32 midpoint 2^-150. NaN references are never
// decided (the caller's domain knowledge, not a band, must rule there).
func RoundDecided32(ref float64, guardUlps float64) (float32, bool) {
	if math.IsNaN(ref) {
		return float32(math.NaN()), false
	}
	if math.IsInf(ref, 0) || ref == 0 {
		return float32(ref), true
	}
	// Conservative band: guardUlps * (2^-52|ref| + 2^-1074) bounds
	// guardUlps ulps for every finite ref, normal or subnormal.
	eps := guardUlps * (0x1p-52*math.Abs(ref) + 0x1p-1074)
	a := float32(ref - eps)
	b := float32(ref + eps)
	if a == b {
		return float32(ref), true
	}
	return float32(ref), false
}

// decide is tier 0 for any target: it rounds ref — a double-precision
// approximation of a true real value, accurate to within
// DefaultGuardUlps float64 ulps — to t, and reports whether both ends
// of the guard band round to one value under t.Round/SameResult. Then
// that value IS the correct rounding of the true value (given the
// accuracy contract), because rounding is monotone.
//
// The band also settles zero and infinite references by range. A zero
// reference stands for a magnitude ≤ DefaultGuardUlps·2^-1074 and an
// infinite one for a magnitude ≥ MaxFloat64: formats that underflow
// and overflow (float32, bfloat16, float16) round both band ends to ±0
// or ±Inf and decide, exactly as RoundDecided32 does; posits saturate,
// so the ends round to ±MinPos or to MaxPos and NaR, and the ladder
// settles those. NaN references are never decided.
func decide(t interval.Target, ref float64) (float64, bool) {
	var lo, hi float64
	switch {
	case math.IsNaN(ref):
		return ref, false
	case math.IsInf(ref, 0):
		lo, hi = math.Copysign(math.MaxFloat64, ref), ref
	default:
		eps := DefaultGuardUlps * (0x1p-52*math.Abs(ref) + 0x1p-1074)
		lo, hi = ref-eps, ref+eps
	}
	if !t.SameResult(t.Round(lo), t.Round(hi)) {
		return ref, false
	}
	return t.Round(ref), true
}

// Float32Guarded returns the correctly rounded float32 of f(x) using
// the two-tier scheme: if the guard band around ref (a double
// approximation of f(x) accurate to guardUlps float64 ulps) decides the
// rounding, that value is returned without touching the Ziv ladder;
// otherwise the full oracle (Float32) is consulted.
// escalated reports which tier answered.
func Float32Guarded(f bigfp.Func, x, ref float64, guardUlps float64) (v float32, escalated bool) {
	if v, ok := RoundDecided32(ref, guardUlps); ok {
		return v, false
	}
	return Float32(f, x), true
}
