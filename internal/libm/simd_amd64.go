//go:build amd64

package libm

import (
	"math"

	"rlibm32/internal/piecewise"
	"rlibm32/internal/rangered"
)

// AVX2 batch kernel for the exponential families' float32 path: the
// one place the pure-Go kernels leave large factors on the table,
// because the whole lane — guard, round-half-away, Cody–Waite, table
// scaling, per-sign polynomial — is data-parallel and fits in 4-wide
// vector registers. The assembly follows kernel.go's exp lane step for
// step; see simd_amd64.s. Per-lane semantics are bit-identical:
// VMULPD/VADDPD/VSUBPD are IEEE double mul/add/sub exactly like their
// scalar Go counterparts, and the per-sign coefficient pick is a
// VBLENDVPD on r's sign bit instead of the scalar row index — same
// coefficients, same arithmetic, same result to the last bit. The
// parity sweep (parity_test.go) drives this path against the scalar
// evaluator like any other kernel.
//
// Special-case inputs are flagged conservatively (one unsigned
// integer band compare on |x|'s bits — anything outside
// (tinyBand, overflowBand) is flagged, which over-triggers near the
// band edges but never misses) and repaired by the shared fixup pass;
// the vector lane itself is total for arbitrary bit patterns
// (VCVTTPD2DQ saturates, table indices are masked to [0, 63]).

// cpuidex and xgetbv0 are implemented in simd_amd64.s.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// expAVX2Exact evaluates n elements (n % 4 == 0, n > 0) of the exp
// lane with the validated Horner polynomial core. The return value is
// nonzero iff any input was flagged (conservatively) as special.
func expAVX2Exact(dst, xs *float32, n int, c *expAsmConsts) (bad int)

// expAsmConsts is the constant block the assembly kernels broadcast
// from. Field order and offsets are hard-coded in simd_amd64.s —
// append only, never reorder.
type expAsmConsts struct {
	invC  float64      // 0
	chi   float64      // 8
	clo   float64      // 16
	lo    uint64       // 24  |x| bits lower edge of the ordinary band
	spanB uint64       // 32  band width, sign-biased for signed-unsigned compare
	sign  uint64       // 40  1<<63
	abs   uint64       // 48  ^uint64(1<<63)
	k7ff  uint64       // 56
	k1023 uint64       // 64
	k1022 uint64       // 72
	k1075 uint64       // 80
	kHalf uint64       // 88  1<<51
	kMant uint64       // 96  1<<52 - 1
	kExp  uint64       // 104 1023<<52
	k63   uint64       // 112 (low dword used as the int32 index mask)
	cPos  [5]float64   // 120..152
	cNeg  [5]float64   // 160..192
	ttab  *[64]float64 // 200
}

// logAVX2Exact is the log-family counterpart of expAVX2Exact (same
// n % 4 == 0 contract, same conservative flag return).
func logAVX2Exact(dst, xs *float32, n int, c *logAsmConsts) (bad int)

// logAsmConsts is the log kernels' constant block; same append-only
// offset contract as expAsmConsts.
type logAsmConsts struct {
	scale    float64  // 0
	invScale float64  // 8
	lb2      float64  // 16
	lo       uint64   // 24  1<<52: ordinary band = positive normal doubles
	spanB    uint64   // 32  (0x7ff<<52 - 1<<52), sign-biased
	sign     uint64   // 40  1<<63
	mant     uint64   // 48  1<<52 - 1
	exp0     uint64   // 56  1023<<52
	magic    uint64   // 64  0x4330<<48: int-in-double exponent-extraction bias
	magicSub float64  // 72  2^52 + 1023: subtracted to land on float64(ep)
	one      float64  // 80
	jmask    uint64   // 88  (low dword used as the int32 index mask)
	minB     uint64   // 96
	maxB     uint64   // 104
	shift    uint64   // 112
	rw       uint64   // 120
	rmask    uint64   // 128
	ftab     *float64 // 136
	co       *float64 // 144
}

// simdAVX2 reports hardware support, read once at init from CPUID:
// AVX2 plus OS-enabled YMM state.
var simdAVX2 = probeAVX2()

func probeAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xmmYmm, _ := xgetbv0(); xmmYmm&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0
}

// simdLogSlice builds the AVX2 float32 batch evaluator for a log
// family, or returns nil when the hardware can't run it. The exponent
// is extracted as a double with the classic 2^52 bias trick instead of
// an int64→double conversion (which AVX2 lacks); the result is exact
// for the whole ordinary range. m̂ ∈ [1,2) holds for every bit
// pattern, so r ≥ 0 on all lanes and the assembly's signed clamps
// agree with the scalar kernel's unsigned ones everywhere.
func simdLogSlice(fam *rangered.LogFamily, pt *piecewise.Prepared, sc func(float64) float64, goKern func(dst, xs []float32)) func(dst, xs []float32) {
	if !simdAVX2 {
		return nil
	}
	tb := uint(fam.TabBits)
	c := &logAsmConsts{
		scale:    float64(int(1) << tb),
		invScale: math.Float64frombits(uint64(1023-tb) << 52),
		lb2:      fam.Scale,
		lo:       1 << 52,
		spanB:    ((0x7ff << 52) - (1 << 52)) ^ (1 << 63),
		sign:     1 << 63,
		mant:     1<<52 - 1,
		exp0:     1023 << 52,
		magic:    0x4330000000000000,
		magicSub: 1<<52 + 1023,
		one:      1,
		jmask:    1<<tb - 1,
		minB:     pt.MinBits,
		maxB:     pt.MaxBits,
		shift:    uint64(pt.Shift),
		rw:       uint64(pt.RowShift),
		rmask:    pt.Mask,
		ftab:     &fam.FTab[0],
		co:       &pt.Coeffs[0],
	}
	ord := func(x float64) bool { return ordNormalPositive(math.Float64bits(x)) }
	return func(dst, xs []float32) {
		n4 := len(xs) &^ 3
		if n4 > 0 {
			if bad := logAVX2Exact(&dst[0], &xs[0], n4, c); bad != 0 {
				fixupSpecials(dst[:n4], xs[:n4], sc, ord)
			}
		}
		if n4 < len(xs) {
			goKern(dst[n4:], xs[n4:])
		}
	}
}

// simdExpSlice builds the AVX2 float32 batch evaluator for an
// exponential family, or returns nil when the hardware can't run it
// (the caller falls back to the pure-Go kernel, which is also used
// here for the n%4 tail). goKern must be the pure-Go kernel for the
// same family.
func simdExpSlice(fam *rangered.ExpFamily, co []float64, sc func(float64) float64, goKern func(dst, xs []float32)) func(dst, xs []float32) {
	if !simdAVX2 {
		return nil
	}
	// Conservative ordinary band on |x| bits: everything at or below
	// the widest tiny bound, and everything at or above the nearest
	// overflow/underflow bound, is flagged for the fixup pass. NaN and
	// ±Inf order above every finite bound.
	tinyMax := max(math.Float64bits(fam.TinyHi), math.Float64bits(-fam.TinyLo))
	ovfMin := min(math.Float64bits(fam.OvfLo), math.Float64bits(-fam.UndHi))
	c := &expAsmConsts{
		invC:  fam.InvC,
		chi:   fam.CHi,
		clo:   fam.CLo,
		lo:    tinyMax + 1,
		spanB: (ovfMin - tinyMax - 1) ^ (1 << 63),
		sign:  1 << 63,
		abs:   ^uint64(1 << 63),
		k7ff:  0x7ff,
		k1023: 1023,
		k1022: 1022,
		k1075: 1023 + 52,
		kHalf: 1 << 51,
		kMant: 1<<52 - 1,
		kExp:  1023 << 52,
		k63:   63,
		ttab:  (*[64]float64)(fam.TTab),
	}
	copy(c.cPos[:], co[0:5])
	copy(c.cNeg[:], co[8:13])
	undHi, ovfLo, tinyLo, tinyHi := fam.UndHi, fam.OvfLo, fam.TinyLo, fam.TinyHi
	ord := func(x float64) bool {
		return x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)
	}
	return func(dst, xs []float32) {
		n4 := len(xs) &^ 3
		if n4 > 0 {
			if bad := expAVX2Exact(&dst[0], &xs[0], n4, c); bad != 0 {
				fixupSpecials(dst[:n4], xs[:n4], sc, ord)
			}
		}
		if n4 < len(xs) {
			goKern(dst[n4:], xs[n4:])
		}
	}
}
