// Fused batch kernels: the hardware-limit hot path behind EvalSlice
// and the XxxSlice entry points.
//
// Each kernel runs the whole recipe — range reduction, branchless
// sub-domain select, polynomial, output compensation, final rounding —
// in one fully inlined pass per element, with every table parameter
// hoisted and every data-dependent select done by bit arithmetic
// (sign-bit row indexing, min/max clamps, mask-blend folds) instead of
// compare-chains. A staged pipeline (convert, reduce, polynomial and
// compensation as separate loops over stack buffers) preceded them and
// paid for its modularity in memory traffic: every element was stored
// and reloaded three times.
//
// Loop structure, chosen by measurement (kernel_shape_test.go keeps
// the evidence). Four shapes were built and rejected first:
//   - lane closures called from the loop: a call through a closure
//     variable is never inlined; the indirect call alone profiled at
//     9% and the caller spills every hoisted parameter around it;
//   - top-level lane functions called directly: not inlined either
//     (cost 117–283 vs. the compiler's budget of 80), and Go's ABI
//     has no callee-saved registers, so each call reloads the whole
//     parameter set — slower than the closures;
//   - 4-wide manually unrolled lane blocks (parallel assignments or
//     sequential blocks): inline fine, but lose ~2x to the plain loop
//     — the wide body's register pressure causes spills, while the
//     out-of-order core already overlaps consecutive iterations of
//     the narrow loop by register renaming, which is exactly the
//     parallelism manual unrolling tries to create;
//   - per-coefficient mask-blend row select on hoisted registers:
//     loses to the sign-indexed row load for the same reason (ten
//     live coefficient registers spill).
//
// What wins is the simplest shape: a 1-wide loop whose body is pure
// straight-line inlined arithmetic, no calls, no data-dependent
// branches. Special-case handling is pulled off the fast path
// entirely: the lane computes unconditionally (every table index is
// clamped or masked so arbitrary bit patterns stay in range), a
// branchless flag accumulates whether any special input was seen, and
// a cold fixup pass re-evaluates only those elements through the
// compiled scalar path. Ordinary-only batches — the overwhelming case
// — never branch on data.
//
// The builders carry //go:noinline: if a builder is inlined into its
// (generic) caller, the compiler re-emits the returned closure from
// the pre-inline body and every helper inside the loop degrades to a
// real call — a 2.5x slowdown that go build -gcflags=-m does not
// report. The parity sweep plus kernel_shape_test.go guard the
// regression.
//
// Bit-exactness contract. The lanes repeat, token for token, the
// operation sequence the generator validated (the same sequence
// compile() runs): Horner in double inside the LP-derived rounding
// intervals. Their results are therefore bit-identical to the scalar
// library by construction, and the kernel parity sweep
// (parity_test.go) checks it input by input. There is deliberately no
// second polynomial core: an FMA-contracted or reassociated polynomial
// is a different double, and the correctness proof covers only the
// validated sequence.
//
// Keep every arithmetic step in sync with the Family Reduce/OC methods
// in internal/rangered — that shared sequence is the paper's soundness
// invariant.
package libm

import (
	"math"

	"rlibm32/internal/piecewise"
	"rlibm32/internal/rangered"
)

// fpv are the element types batch kernels are instantiated at:
// float32 for the public XxxSlice/EvalSlice entry points, float64 for
// the posit and 16-bit mirrors that evaluate over exact embeddings.
// The two instantiations have distinct gcshapes, so each gets fully
// specialized code.
type fpv interface{ ~float32 | ~float64 }

// roundHalfAway is math.Round, copied so it inlines into the exp
// kernels (math.Round itself is above the inlining budget). It must
// stay bit-identical to math.Round — TestRoundHalfAwayMatchesMathRound
// pins that.
func roundHalfAway(x float64) float64 {
	b := math.Float64bits(x)
	e := uint(b>>52) & 0x7ff
	if e < 1023 {
		b &= 1 << 63
		if e == 1022 {
			b |= 1023 << 52
		}
	} else if e < 1023+52 {
		const half = 1 << 51
		e -= 1023
		b += half >> e
		b &^= (1<<52 - 1) >> e
	}
	return math.Float64frombits(b)
}

// signbit64 returns the sign bit of x in place (0 or 1<<63).
func signbit64(x float64) uint64 { return math.Float64bits(x) & (1 << 63) }

// blend64 returns y's bits where m is set and x's elsewhere (m is 0 or
// all-ones): the branchless float select used by the mirror folds.
func blend64(x, y float64, m uint64) float64 {
	return math.Float64frombits(math.Float64bits(x)&^m | math.Float64bits(y)&m)
}

// gtMask returns all-ones iff a > b, for non-negative finite doubles
// (whose bit patterns order like integers). Pure integer arithmetic,
// never a branch.
func gtMask(a, b float64) uint64 {
	d := int64(math.Float64bits(b)) - int64(math.Float64bits(a))
	return uint64(d >> 63)
}

// prepareSignPair packs a per-sign piecewise pair (one dense quartic
// per sign, as the exponential families generate) into two 8-float
// cache-line rows on a 64-byte-aligned base: row 0 holds the Pos
// coefficients, row 1 the Neg ones, so the kernel selects a row by
// bits(r)>>63 alone. RN never produces r = -0 from the Cody–Waite
// remainder (a nonzero-result subtraction rounds to +0 when it rounds
// to zero, and x = 0 sits inside the round-to-one special band), so
// the sign-bit index agrees exactly with the scalar "r < 0" dispatch.
func prepareSignPair(neg, pos *piecewise.Table) []float64 {
	buf := make([]float64, 16+7)
	co := piecewise.Align64(buf)[:16:16]
	copy(co[0:5], pos.Coeffs)
	copy(co[8:13], neg.Coeffs)
	return co
}

// ordNormalPositive reports whether b is the bit pattern of a
// positive, normal, finite double — the log families' entire ordinary
// domain (every positive 32-bit target value embeds as a normal
// double) — with a single unsigned compare.
func ordNormalPositive(b uint64) bool {
	return b-(1<<52) < (0x7ff<<52)-(1<<52)
}

// fixupSpecials re-evaluates every non-ordinary element of the batch
// through the compiled scalar path. Cold: it runs only when the fast
// loop's accumulated flag says at least one special input is present,
// so ordinary-only batches never reach it.
func fixupSpecials[T fpv](dst, xs []T, sc func(float64) float64, ord func(float64) bool) {
	for i := range xs {
		x := float64(xs[i])
		if !ord(x) {
			dst[i] = T(sc(x))
		}
	}
}

// logKernel builds the fused batch evaluator for a log family backed
// by a single non-negative-domain NoConst-3 piecewise table (ln, log2,
// log10 across all variants). Per lane: Tang reduction by bit
// extraction, branchless clamp+shift sub-domain select on the padded
// table, polynomial core, additive output compensation. r ≥ 0 always
// (F = 1 + floor((m̂−1)·2^tb)/2^tb ≤ m̂), so the piecewise index needs
// no sign handling. The lane is total: for special bit patterns m̂ is
// still in [1,2) and every index stays masked in range, so the loop
// computes garbage harmlessly and the fixup pass overwrites it.
//
//go:noinline
func logKernel[T fpv](fam *rangered.LogFamily, pt *piecewise.Prepared, sc func(float64) float64) func(dst, xs []T) {
	tb := uint(fam.TabBits)
	scale := float64(int(1) << tb)
	invScale := math.Float64frombits(uint64(1023-tb) << 52) // exact 2^−TabBits
	jmask := int(1)<<tb - 1                                 // j ∈ [0, 2^tb) by construction; the mask only discharges the bounds check
	lb2 := fam.Scale
	ftab := fam.FTab
	shift, mask := pt.Shift, pt.Mask
	minB, maxB := pt.MinBits, pt.MaxBits
	rw := pt.RowShift
	co := pt.Coeffs
	ord := func(x float64) bool { return ordNormalPositive(math.Float64bits(x)) }
	return func(dst, xs []T) {
		bad := 0
		for i := 0; i < len(xs); i++ {
			b := math.Float64bits(float64(xs[i]))
			if !ordNormalPositive(b) {
				bad = 1
			}
			mhat := math.Float64frombits(b&(1<<52-1) | 1023<<52)
			ep := int(b>>52) - 1023
			j := int((mhat-1)*scale) & jmask
			F := 1 + float64(j)*invScale
			r := (mhat - F) / F
			a := float64(ep)*lb2 + ftab[j]
			c := co[int((min(max(math.Float64bits(r), minB), maxB)>>shift)&mask)<<rw:]
			dst[i] = T(a + piecewise.QuadExact(c[0], c[1], c[2], r)*r)
		}
		if bad != 0 {
			fixupSpecials(dst, xs, sc, ord)
		}
	}
}

// expKernel builds the fused batch evaluator for an exponential family
// backed by a per-sign Dense-5 pair (exp, exp2, exp10 across all
// variants). Per lane: Cody–Waite additive reduction with the faithful
// math.Round copy, exact 2^m scaling, sign-bit row select on the
// packed per-sign pair (co is the prepareSignPair packing), polynomial
// core, multiplicative output compensation. The lane is total: int(k)
// of a NaN/±Inf reduction saturates, and ki&63 / the sign-bit row
// index stay in range for any saturated value, so special inputs
// compute garbage harmlessly for the fixup pass to overwrite.
//
//go:noinline
func expKernel[T fpv](fam *rangered.ExpFamily, co []float64, sc func(float64) float64) func(dst, xs []T) {
	invC, chi, clo := fam.InvC, fam.CHi, fam.CLo
	ovfLo, undHi, tinyLo, tinyHi := fam.OvfLo, fam.UndHi, fam.TinyLo, fam.TinyHi
	ttab := (*[64]float64)(fam.TTab)
	// Exact complement of Special (NaN fails x > undHi).
	ord := func(x float64) bool {
		return x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)
	}
	return func(dst, xs []T) {
		bad := 0
		for i := 0; i < len(xs); i++ {
			x := float64(xs[i])
			if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
				bad = 1
			}
			k := roundHalfAway(x * invC)
			r := (x - k*chi) - k*clo
			ki := int(k)
			a := rangered.Exp2i(ki>>6) * ttab[ki&63]
			c := co[int(math.Float64bits(r)>>63)<<3:]
			dst[i] = T(a * piecewise.Dense5Exact(c[0], c[1], c[2], c[3], c[4], r))
		}
		if bad != 0 {
			fixupSpecials(dst, xs, sc, ord)
		}
	}
}

// sinhcoshKernel builds the fused batch evaluator for sinh/cosh: one
// Odd-3 table for sinh(r), one Even-3 for cosh(r), single row each.
// Per lane: Cody–Waite reduction of |x| with Floor, exact (2^m±2^-m)/2
// combination with the sinh-vs-cosh pick hoisted into ±1 coefficient
// flips (pS/qS), addition-theorem output compensation, and the odd
// symmetry applied as a sign-bit XOR (sgnMask is 1<<63 for sinh, 0
// for cosh — multiplying by ±1 is an exact sign flip). Total for
// special inputs: int(Floor(NaN·c)) saturates and ki&63 stays in
// range.
//
//go:noinline
func sinhcoshKernel[T fpv](fam *rangered.SinhCoshFamily, p0, p1 *piecewise.Table, sc func(float64) float64) func(dst, xs []T) {
	invC, chi, clo := fam.InvC, fam.CHi, fam.CLo
	st := (*[64]float64)(fam.ST)
	ct := (*[64]float64)(fam.CT)
	ovfLo, tinyHi := fam.OvfLo, fam.TinyHi
	isSinh := fam.IsSinh
	// Reduce computes cha = (2^m + 2^-m)/2, sha = (2^m − 2^-m)/2 and
	// picks (sha, cha) for sinh, (cha, sha) for cosh; ±1·2^-m is exact,
	// so the hoisted pick is bit-identical.
	pS, qS := -1.0, 1.0
	if !isSinh {
		pS, qS = 1.0, -1.0
	}
	var sgnMask uint64
	if isSinh {
		sgnMask = 1 << 63 // sinh is odd: S = −1 for x < 0; cosh has S = 1 always
	}
	d0, d1, d2 := p0.Coeffs[0], p0.Coeffs[1], p0.Coeffs[2]
	e0, e1, e2 := p1.Coeffs[0], p1.Coeffs[1], p1.Coeffs[2]
	// Exact complement of Special (NaN fails |x| < ovfLo).
	ord := func(x float64) bool {
		ax := math.Abs(x)
		if isSinh {
			return ax < ovfLo && x != 0
		}
		return ax < ovfLo && ax > tinyHi
	}
	return func(dst, xs []T) {
		bad := 0
		for i := 0; i < len(xs); i++ {
			x := float64(xs[i])
			y := math.Abs(x)
			if !(y < ovfLo && (isSinh && x != 0 || !isSinh && y > tinyHi)) {
				bad = 1
			}
			k := math.Floor(y * invC)
			r := (y - k*chi) - k*clo
			ki := int(k)
			m := ki >> 6
			e := rangered.Exp2i(m)
			ei := rangered.Exp2i(-m)
			p := (e + pS*ei) * 0.5
			q := (e + qS*ei) * 0.5
			j := ki & 63
			a := p*ct[j] + q*st[j]
			b := p*st[j] + q*ct[j]
			r2 := r * r
			v0 := piecewise.QuadExact(d0, d1, d2, r2) * r
			v1 := piecewise.QuadExact(e0, e1, e2, r2)
			z := a*v1 + b*v0
			dst[i] = T(math.Float64frombits(math.Float64bits(z) ^ (signbit64(x) & sgnMask)))
		}
		if bad != 0 {
			fixupSpecials(dst, xs, sc, ord)
		}
	}
}

// sinpiKernel builds the fused batch evaluator for sinpi: Odd-3
// sinpi(R) and Even-3 cospi(R) tables, single row each. Per lane:
// branchless piReduce (mod 2 via the floor identity, fold at 1 via
// floor, fold at 1/2 via mask-blend — 1−j is exact by Sterbenz when
// taken), N/512 split, polynomial cores, pair output compensation with
// the accumulated sign applied as an XOR (sinpi is odd). The table
// index is clamped on BOTH sides: for ordinary inputs n ∈ [0, 255]
// already, and the max(·, 0) only keeps the saturated int(NaN·512) of
// a special input from going negative.
//
//go:noinline
func sinpiKernel[T fpv](fam *rangered.SinPiFamily, p0, p1 *piecewise.Table, sc func(float64) float64) func(dst, xs []T) {
	sinT, cosT := fam.SinT, fam.CosT
	tinyHi, hugeLo := fam.TinyHi, fam.HugeLo
	d0, d1, d2 := p0.Coeffs[0], p0.Coeffs[1], p0.Coeffs[2]
	e0, e1, e2 := p1.Coeffs[0], p1.Coeffs[1], p1.Coeffs[2]
	// Exact complement of Special (NaN and ±Inf fail ax < hugeLo).
	ord := func(x float64) bool {
		ax := math.Abs(x)
		return ax > tinyHi && ax < hugeLo
	}
	return func(dst, xs []T) {
		bad := 0
		for i := 0; i < len(xs); i++ {
			x := float64(xs[i])
			ax := math.Abs(x)
			if !(ax > tinyHi && ax < hugeLo) {
				bad = 1
			}
			sgn := signbit64(x)
			j := ax - 2*math.Floor(ax*0.5)
			t := math.Floor(j)
			j -= t // exact for t ∈ {0, 1}
			sgn ^= uint64(int64(t)) << 63
			j = blend64(j, 1-j, gtMask(j, 0.5))
			n := min(max(int(j*512), 0), 255)
			r := j - float64(n)*0x1p-9
			a, b := sinT[n], cosT[n]
			r2 := r * r
			v0 := piecewise.QuadExact(d0, d1, d2, r2) * r
			v1 := piecewise.QuadExact(e0, e1, e2, r2)
			z := a*v1 + b*v0
			dst[i] = T(math.Float64frombits(math.Float64bits(z) ^ sgn))
		}
		if bad != 0 {
			fixupSpecials(dst, xs, sc, ord)
		}
	}
}

// cospiKernel builds the fused batch evaluator for cospi: Odd-3
// sinpi(R) and Even-3 cospi(R) tables, single row each. Per lane:
// branchless piReduce (cospi is even — the sign comes only from the
// folds) plus the branchless N == 0 split of the cancellation-free
// output compensation (N > 0 uses N' = N+1 and the exact complement
// R = 1/512 − Q; N = 0 keeps index 0 and R = Q). Same two-sided index
// clamp as sinpiKernel for totality.
//
//go:noinline
func cospiKernel[T fpv](fam *rangered.CosPiFamily, p0, p1 *piecewise.Table, sc func(float64) float64) func(dst, xs []T) {
	sinT, cosT := fam.SinT, fam.CosT
	tinyHi, hugeLo := fam.TinyHi, fam.HugeLo
	d0, d1, d2 := p0.Coeffs[0], p0.Coeffs[1], p0.Coeffs[2]
	e0, e1, e2 := p1.Coeffs[0], p1.Coeffs[1], p1.Coeffs[2]
	// Exact complement of Special (NaN and ±Inf fail ax < hugeLo).
	ord := func(x float64) bool {
		ax := math.Abs(x)
		return ax > tinyHi && ax < hugeLo
	}
	return func(dst, xs []T) {
		bad := 0
		for i := 0; i < len(xs); i++ {
			x := float64(xs[i])
			ax := math.Abs(x)
			if !(ax > tinyHi && ax < hugeLo) {
				bad = 1
			}
			j := ax - 2*math.Floor(ax*0.5)
			t := math.Floor(j)
			j -= t
			sgn := uint64(int64(t)) << 63
			m := gtMask(j, 0.5)
			sgn ^= m & (1 << 63)
			j = blend64(j, 1-j, m)
			n := min(max(int(j*512), 0), 255)
			q := j - float64(n)*0x1p-9
			mnz := uint64(int64(-n) >> 63) // all-ones iff n > 0
			idx := int(uint64(n+1) & mnz)
			r := blend64(q, 0x1p-9-q, mnz)
			a, b := cosT[idx], sinT[idx]
			r2 := r * r
			v0 := piecewise.QuadExact(d0, d1, d2, r2) * r
			v1 := piecewise.QuadExact(e0, e1, e2, r2)
			z := a*v1 + b*v0
			dst[i] = T(math.Float64frombits(math.Float64bits(z) ^ sgn))
		}
		if bad != 0 {
			fixupSpecials(dst, xs, sc, ord)
		}
	}
}

// fusedSlice builds the fused batch evaluator for f when its
// generated table shapes match a kernel (they do for every shipped
// function); it returns nil for shapes the kernels don't cover.
func fusedSlice[T fpv](f *impl) func(dst, xs []T) {
	sc := compile(f)
	switch fam := f.fam.(type) {
	case *rangered.LogFamily:
		if len(f.pieces) != 1 {
			return nil
		}
		p := f.pieces[0]
		if p.Neg != nil || p.Pos == nil || p.Pos.Kind != piecewise.NoConst || len(p.Pos.Terms) != 3 ||
			fam.TabBits <= 0 || len(fam.FTab) != 1<<uint(fam.TabBits) {
			return nil
		}
		return logKernel[T](fam, p.Pos.Prepare(), sc)
	case *rangered.ExpFamily:
		if len(f.pieces) != 1 {
			return nil
		}
		p := f.pieces[0]
		if p.Neg == nil || p.Pos == nil || len(fam.TTab) != 64 ||
			p.Neg.Kind != piecewise.Dense || p.Pos.Kind != piecewise.Dense ||
			len(p.Neg.Terms) != 5 || len(p.Pos.Terms) != 5 || p.Neg.N != 0 || p.Pos.N != 0 {
			return nil
		}
		return expKernel[T](fam, prepareSignPair(p.Neg, p.Pos), sc)
	case *rangered.SinhCoshFamily:
		p0, p1, ok := singleOddEvenPair(f)
		if !ok || len(fam.ST) != 64 || len(fam.CT) != 64 {
			return nil
		}
		return sinhcoshKernel[T](fam, p0, p1, sc)
	case *rangered.SinPiFamily:
		p0, p1, ok := singleOddEvenPair(f)
		if !ok || len(fam.SinT) < 256 || len(fam.CosT) < 256 {
			return nil
		}
		return sinpiKernel[T](fam, p0, p1, sc)
	case *rangered.CosPiFamily:
		p0, p1, ok := singleOddEvenPair(f)
		if !ok || len(fam.SinT) < 257 || len(fam.CosT) < 257 {
			return nil
		}
		return cospiKernel[T](fam, p0, p1, sc)
	}
	return nil
}

// scalarSlice is the batch form of an unmatched table shape: a plain
// loop over the compiled scalar evaluator. No shipped function takes
// it — the kernel parity tests fail if one would.
func scalarSlice[T fpv](sc func(float64) float64) func(dst, xs []T) {
	return func(dst, xs []T) {
		for i, x := range xs {
			dst[i] = T(sc(float64(x)))
		}
	}
}

// Kernel kinds reported by fusedSlice32: the AVX2 vector kernel, the
// pure-Go fused kernel, or the scalar-loop fallback.
const (
	kindSIMD   = "simd"
	kindGo     = "go"
	kindScalar = "scalar"
)

// fusedSlice32 builds the float32 batch evaluator for f and reports
// which kind it built. On hardware that can run it, the exp and log
// families' kernel is the AVX2 vector implementation (simd_amd64.go),
// which keeps the pure-Go kernel for the n%4 tail; other architectures
// and families get the pure-Go kernel, and unmatched shapes the scalar
// loop. This is the only place the kind is decided: KernelKind32 and
// the served EvalSlice kernels both read it from here.
func fusedSlice32(f *impl) (func(dst, xs []float32), string) {
	sc := compile(f)
	k := fusedSlice[float32](f)
	if k == nil {
		return scalarSlice[float32](sc), kindScalar
	}
	switch fam := f.fam.(type) {
	case *rangered.ExpFamily:
		p := f.pieces[0]
		if sk := simdExpSlice(fam, prepareSignPair(p.Neg, p.Pos), sc, k); sk != nil {
			return sk, kindSIMD
		}
	case *rangered.LogFamily:
		if sk := simdLogSlice(fam, f.pieces[0].Pos.Prepare(), sc, k); sk != nil {
			return sk, kindSIMD
		}
	}
	return k, kindGo
}

// singleOddEvenPair matches the two-reduced-function families' table
// shape: pieces[0] a single Odd-3 polynomial, pieces[1] a single
// Even-3 polynomial, both non-negative-domain single-row tables.
func singleOddEvenPair(f *impl) (p0, p1 *piecewise.Table, ok bool) {
	if len(f.pieces) != 2 {
		return nil, nil, false
	}
	a, b := f.pieces[0], f.pieces[1]
	if a.Neg != nil || b.Neg != nil || a.Pos == nil || b.Pos == nil {
		return nil, nil, false
	}
	if a.Pos.Kind != piecewise.Odd || len(a.Pos.Terms) != 3 || a.Pos.N != 0 {
		return nil, nil, false
	}
	if b.Pos.Kind != piecewise.Even || len(b.Pos.Terms) != 3 || b.Pos.N != 0 {
		return nil, nil, false
	}
	return a.Pos, b.Pos, true
}
