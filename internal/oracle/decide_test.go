package oracle

import (
	"math"
	"math/rand"
	"testing"

	"rlibm32/internal/interval"
	"rlibm32/posit32"
)

// RoundDecidedPosit32 is the typed posit32 guard band decide must
// reproduce: a zero, infinite or NaN reference never decides (posits
// saturate), any other one decides when both band ends round to one
// posit.
func RoundDecidedPosit32(ref float64, guardUlps float64) (posit32.Posit, bool) {
	if ref == 0 || math.IsInf(ref, 0) || math.IsNaN(ref) {
		return posit32.NaR, false
	}
	eps := guardUlps * (0x1p-52*math.Abs(ref) + 0x1p-1074)
	a := posit32.FromFloat64(ref - eps)
	if a != posit32.FromFloat64(ref+eps) {
		return posit32.FromFloat64(ref), false
	}
	return a, true
}

// decideRefs returns references that exercise every branch of the
// guard band: the signed zeros, infinities, NaN, ±MaxFloat64, float32
// and float64 subnormals, seeded random doubles of every magnitude,
// and doubles within a band's width of float32 and posit32 rounding
// boundaries.
func decideRefs() []float64 {
	refs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64,
		0x1p-1074, -0x1p-1074, 0x1p-1022, 0x1p-149, -0x1p-149, 0x1p-150, 0x1.8p-150,
		0x1p-126, float64(math.MaxFloat32), 0x1.ffffffp127, 0x1p128,
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1<<14; i++ {
		refs = append(refs, math.Float64frombits(rng.Uint64()))
		// A float32 rounding boundary, then a posit32 one, each moved
		// by up to twice the band's half-width.
		var mids []float64
		if a := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(a)) && !math.IsInf(float64(a), 0) {
			mids = append(mids, float64(a)/2+float64(math.Nextafter32(a, float32(math.Inf(1))))/2)
		}
		if p := posit32.FromBits(rng.Uint32()); !p.IsNaR() && p != posit32.MaxPos {
			mids = append(mids, p.Float64()/2+p.NextUp().Float64()/2)
		}
		for _, m := range mids {
			d := float64(rng.Intn(4*DefaultGuardUlps+1) - 2*DefaultGuardUlps)
			refs = append(refs, m+d*(0x1p-52*math.Abs(m)+0x1p-1074))
		}
	}
	return refs
}

// TestDecideMatchesTypedGuards checks that decide gives exactly the
// typed guard bands' verdicts and values: RoundDecided32's on float32
// (zero and infinite references decided by range) and
// RoundDecidedPosit32's on posit32 (those references declined).
func TestDecideMatchesTypedGuards(t *testing.T) {
	f32, p32 := interval.Float32Target{}, interval.Posit32Target{}
	for _, ref := range decideRefs() {
		want, wantOK := RoundDecided32(ref, DefaultGuardUlps)
		got, ok := decide(f32, ref)
		if ok != wantOK || (ok && math.Float32bits(float32(got)) != math.Float32bits(want)) {
			t.Errorf("float32 ref %v (%#x): decide (%v,%v), RoundDecided32 (%v,%v)",
				ref, math.Float64bits(ref), got, ok, want, wantOK)
		}
		pwant, pwantOK := RoundDecidedPosit32(ref, DefaultGuardUlps)
		pgot, pok := decide(p32, ref)
		if pok != pwantOK || (pok && posit32.FromFloat64(pgot) != pwant) {
			t.Errorf("posit32 ref %v (%#x): decide (%v,%v), RoundDecidedPosit32 (%#08x,%v)",
				ref, math.Float64bits(ref), pgot, pok, pwant.Bits(), pwantOK)
		}
	}
}
