package oracle

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"rlibm32/internal/bigfp"
)

// kernelRange is the input range over which tier 0 uses a kernel (its
// results are finite and at least minTier0 in magnitude), plus points
// inside it that deserve a look of their own.
type kernelRange struct {
	f      bigfp.Func
	lo, hi float64
	logU   bool // sample log-uniformly (lo > 0)
	extra  []float64
}

var kernelRanges = []kernelRange{
	{f: bigfp.Exp, lo: -671.5, hi: 709.78, extra: []float64{0x1p-60, -0x1p-60, 0.0054, -0.0054, 1}},
	{f: bigfp.Exp2, lo: -968.9, hi: 1023.99, extra: []float64{0x1p-60, 1.0 / 128, -1.0 / 128, 0.5}},
	{f: bigfp.Exp10, lo: -291.6, hi: 308.25, extra: []float64{0x1p-60, -0x1p-60, 0.0023, 1}},
	{f: bigfp.Log, lo: 0x1p-1074, hi: math.MaxFloat64, logU: true, extra: logExtras},
	{f: bigfp.Log2, lo: 0x1p-1074, hi: math.MaxFloat64, logU: true, extra: logExtras},
	{f: bigfp.Log10, lo: 0x1p-1074, hi: math.MaxFloat64, logU: true, extra: logExtras},
	{f: bigfp.Log1p, lo: -0x1p-4, hi: 0x1p-4, extra: log1pExtras},
	{f: bigfp.Log21p, lo: -0x1p-4, hi: 0x1p-4, extra: log1pExtras},
	{f: bigfp.Log101p, lo: -0x1p-4, hi: 0x1p-4, extra: log1pExtras},
	{f: bigfp.Sinh, lo: -709.78, hi: 709.78, extra: []float64{0x1p-960, 0.4999999999999999, 0.5, -0.5, 0.0108}},
	{f: bigfp.Cosh, lo: -709.78, hi: 709.78, extra: []float64{0x1p-960, 0.4999999999999999, 0.5, 0.0108}},
	{f: bigfp.SinPi, lo: -4, hi: 4, extra: piExtras},
	{f: bigfp.CosPi, lo: -4, hi: 4, extra: piExtras},
}

var logExtras = []float64{
	1 - 0x1p-7, 1 - 0x1p-7 - 0x1p-52, 1 + 0x1p-7, 1 + 0x1p-52, 1 - 0x1p-53,
	1.0155925209888708, 1 + 2.0/128 - 0x1p-60, 0.5, 2, 3, 0x1p-1022,
}

var log1pExtras = []float64{0x1p-900, 0x1p-7, 0x1p-7 + 0x1p-59, 0x1p-7 - 0x1p-59, 0x1p-5, 0x1p-4 - 0x1p-56}

var piExtras = []float64{
	0x1p-960, 0.25, 0.25 - 0x1p-54, 0.5 - 0x1p-40, 1 - 0x1p-45, 1.5 + 0x1p-50,
	0x1p-9, 0x1p52 + 1, 0x1p52 + 0.5, 1e15 + 0.25,
}

// relErr returns |v − ref|/|ref| for the dd value v = hi + lo.
func relErr(hi, lo float64, ref *big.Float) float64 {
	if math.IsInf(hi+lo, 0) || hi+lo != hi+lo {
		return math.Inf(1)
	}
	v := new(big.Float).SetPrec(300).SetFloat64(hi)
	v.Add(v, new(big.Float).SetFloat64(lo))
	v.Sub(v, ref)
	v.Quo(v, ref)
	e, _ := v.Float64()
	return math.Abs(e)
}

// TestDDKernelErrorBounds measures every dd kernel against 300-bit
// bigfp at both ends of its tier-0 range, at its internal switch
// points and on seeded samples, and requires the errRel claim to hold
// with 2^8 to spare.
func TestDDKernelErrorBounds(t *testing.T) {
	const limit = errRel / 0x1p8
	samples := 3000
	if testing.Short() {
		samples = 300
	}
	for _, kr := range kernelRanges {
		t.Run(kr.f.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(kr.f) + 15))
			xs := append([]float64{kr.lo, kr.hi, math.Nextafter(kr.lo, kr.hi), math.Nextafter(kr.hi, kr.lo)}, kr.extra...)
			for _, x := range kr.extra {
				xs = append(xs, -x)
			}
			if kr.f == bigfp.Log {
				// The seed's kernel misrounded here: r → 2^-7 after the
				// table reduction.
				for i := 0; i < 200; i++ {
					xs = append(xs, 1+2.0/128-0x1p-11*rng.Float64())
				}
			}
			for i := 0; i < samples; i++ {
				u := rng.Float64()
				if kr.logU {
					xs = append(xs, math.Exp(math.Log(kr.lo)+u*(math.Log(kr.hi)-math.Log(kr.lo))))
				} else {
					xs = append(xs, kr.lo+u*(kr.hi-kr.lo))
				}
			}
			worst, worstX := 0.0, 0.0
			for _, x := range xs {
				if _, edge := domainEdge(kr.f, x); edge {
					continue
				}
				v, ok := ddEval(kr.f, x)
				if !ok {
					t.Errorf("%v(%v): no kernel inside its range", kr.f, x)
					continue
				}
				ref := bigfp.Eval(kr.f, x, 300)
				if ref.Sign() == 0 {
					if v.Hi != 0 || v.Lo != 0 {
						t.Errorf("%v(%v) = %v + %v, want exact zero", kr.f, x, v.Hi, v.Lo)
					}
					continue
				}
				if e := relErr(v.Hi, v.Lo, ref); e > worst || e != e {
					worst, worstX = e, x
				}
			}
			t.Logf("%v: max relative error 2^%.1f at x = %v over %d inputs",
				kr.f, math.Log2(worst), worstX, len(xs))
			if !(worst <= limit) {
				t.Errorf("%v: relative error %g (2^%.1f) at x = %v exceeds errRel/2^8",
					kr.f, worst, math.Log2(worst), worstX)
			}
		})
	}
}

// TestFloat64Tier0Witnesses pins the inputs where a double-double tier
// 0 can go wrong: the truncated log series, results that are subnormal
// (where the relative bound fails and tier 0 must decline), and exact
// zeros, which must carry the ladder's sign.
func TestFloat64Tier0Witnesses(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	// A log series stopped at s^7/7 was 1 ulp off here.
	if got, want := Float64(bigfp.Log, 1.0155925209888708), float64Ziv(bigfp.Log, 1.0155925209888708); !same(got, want) {
		t.Errorf("log(1.0155925209888708) = %b, ladder %b", got, want)
	}
	for _, c := range []struct {
		f    bigfp.Func
		x    float64
		want float64
	}{
		{bigfp.Exp, -744.6274817698396, 5e-324},
		{bigfp.Exp2, -1022.5500681980668, 1.5196983926731895e-308},
	} {
		if v, ok := float64Tier0(c.f, c.x); ok {
			t.Errorf("tier 0 decided %v(%v) = %v, a subnormal result", c.f, c.x, v)
		}
		if got := Float64(c.f, c.x); !same(got, c.want) {
			t.Errorf("%v(%v) = %v, want %v", c.f, c.x, got, c.want)
		}
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		f bigfp.Func
		x float64
	}{
		{bigfp.SinPi, 1}, {bigfp.SinPi, -2}, {bigfp.SinPi, negZero}, {bigfp.SinPi, 0x1p60},
		{bigfp.CosPi, 0.5}, {bigfp.CosPi, -1.5}, {bigfp.CosPi, 0x1p51 + 0.5},
		{bigfp.Log, 1}, {bigfp.Log2, 1}, {bigfp.Log10, 1},
		{bigfp.Log1p, 0}, {bigfp.Log21p, negZero}, {bigfp.Log101p, 0},
		{bigfp.Sinh, 0}, {bigfp.Sinh, negZero},
	} {
		v, ok := float64Tier0(c.f, c.x)
		if want := float64Ziv(c.f, c.x); !ok || !same(v, want) {
			t.Errorf("tier 0 %v(%v) = %v (decided %v), ladder %v (%#x)", c.f, c.x, v, ok, want, math.Float64bits(want))
		}
	}
	// A dd zero is not an exact zero: log1p(2^-1074) underflows s.
	if v, ok := float64Tier0(bigfp.Log1p, 0x1p-1074); ok {
		t.Errorf("tier 0 decided log1p(2^-1074) = %v", v)
	}
	// Every input whose result lies in or near the subnormal range
	// goes to the ladder.
	rng := rand.New(rand.NewSource(15))
	for _, r := range []struct {
		f      bigfp.Func
		lo, hi float64
	}{
		{bigfp.Exp, -745.2, -708.4},
		{bigfp.Exp2, -1075, -1022},
		{bigfp.Exp10, -323.6, -307.7},
	} {
		for i := 0; i < 20000; i++ {
			x := r.lo + rng.Float64()*(r.hi-r.lo)
			if v, ok := float64Tier0(r.f, x); ok {
				t.Fatalf("tier 0 decided %v(%v) = %v, a subnormal result", r.f, x, v)
			}
		}
	}
}

var benchSink float64

// BenchmarkOracleFloat64 measures Float64 on reduced arguments in
// (0, 2^-9], where tier 0 decides, next to the Ziv ladder alone.
func BenchmarkOracleFloat64(b *testing.B) {
	for _, f := range []bigfp.Func{bigfp.Exp, bigfp.Log21p, bigfp.Sinh, bigfp.SinPi} {
		b.Run(f.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += Float64(f, float64(i%4096+1)*0x1p-21)
			}
		})
		b.Run(f.String()+"/ladder", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += float64Ziv(f, float64(i%4096+1)*0x1p-21)
			}
		})
	}
}
