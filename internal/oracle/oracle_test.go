package oracle

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/interval"
	"rlibm32/posit32"
)

// tableFuncs are the ten functions of the Table 1/2 reproductions.
var tableFuncs = []bigfp.Func{
	bigfp.Log, bigfp.Log2, bigfp.Log10,
	bigfp.Exp, bigfp.Exp2, bigfp.Exp10,
	bigfp.Sinh, bigfp.Cosh, bigfp.SinPi, bigfp.CosPi,
}

func ordf32(f float32) int32 {
	b := int32(math.Float32bits(f))
	if b < 0 {
		b = int32(-0x80000000) - b
	}
	return b
}

func fromOrdf32(i int32) float32 {
	if i < 0 {
		i = int32(-0x80000000) - i
	}
	return math.Float32frombits(uint32(i))
}

// boundarySample is the harness's hard-input lattice: every exponent's
// power-of-two neighbourhood (±8 ulps), the window around ±0, and the
// NaN/Inf edges.
func boundarySample() []float64 {
	var xs []float64
	seen := make(map[int32]struct{})
	add := func(o int32) {
		if _, dup := seen[o]; dup {
			return
		}
		seen[o] = struct{}{}
		xs = append(xs, float64(fromOrdf32(o)))
	}
	for e := -149; e <= 127; e++ {
		for _, s := range [2]float32{1, -1} {
			b := ordf32(s * float32(math.Ldexp(1, e)))
			for d := int32(-8); d <= 8; d++ {
				add(b + d)
			}
		}
	}
	for d := int32(-16); d <= 16; d++ {
		add(d)
	}
	// Representable edges and non-finite inputs.
	xs = append(xs,
		float64(math.MaxFloat32), -float64(math.MaxFloat32),
		math.Inf(1), math.Inf(-1), math.NaN())
	return xs
}

// float32Ladder is the float32 oracle without tier 0: the domain edge,
// then the Ziv ladder.
func float32Ladder(f bigfp.Func, x float64) float32 {
	if y, ok := domainEdge(f, x); ok {
		return float32(y)
	}
	v, _ := zivTarget(interval.Float32Target{}, f, x)
	return float32(v)
}

// TestFloat32MatchesLadder runs the boundary-window sample through
// Float32 (tier 0, then the ladder) and through the ladder alone for
// all ten table functions and demands bit-identical answers.
func TestFloat32MatchesLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-heavy")
	}
	xs := boundarySample()
	for _, f := range tableFuncs {
		for _, x := range xs {
			got, want := Float32(f, x), float32Ladder(f, x)
			if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
				t.Fatalf("%v(%v): oracle %v, ladder %v", f, x, got, want)
			}
		}
	}
}

// TestPosit32AndFloat64MatchLadder checks Posit32 and Float64 against
// their ladders alone on a subsample of the boundary windows.
func TestPosit32AndFloat64MatchLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-heavy")
	}
	xs := boundarySample()
	for _, f := range []bigfp.Func{bigfp.Log, bigfp.Exp, bigfp.Sinh} {
		for i, x := range xs {
			if i%16 != 0 {
				continue
			}
			if _, edge := domainEdge(f, x); edge {
				continue
			}
			pv, _ := zivTarget(interval.Posit32Target{}, f, x)
			if got, want := Posit32(f, x), posit32.FromFloat64(pv); got != want {
				t.Fatalf("posit %v(%v): %#x, ladder %#x", f, x, got, want)
			}
			if got, want := Float64(f, x), float64Ziv(f, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("double %v(%v): %v, ladder %v", f, x, got, want)
			}
		}
	}
}

// TestTargetGenericEdges checks a 16-bit target on ordinary inputs and
// on the domain edges: zero, an infinity (rounded to the format's
// infinity) and NaN (no result).
func TestTargetGenericEdges(t *testing.T) {
	tgt := interval.BFloat16Target()
	for _, x := range []float64{0.5, 1, 2, 100, -3, 0} {
		wantV, wantOK := zivTarget(tgt, bigfp.Exp, x)
		if gotV, gotOK := Target(tgt, bigfp.Exp, x); gotOK != wantOK || math.Float64bits(gotV) != math.Float64bits(wantV) {
			t.Errorf("exp(%v): (%v,%v), ladder (%v,%v)", x, gotV, gotOK, wantV, wantOK)
		}
	}
	if v, ok := Target(tgt, bigfp.Exp, math.Inf(1)); !ok || !math.IsInf(v, 1) {
		t.Errorf("exp(+Inf) = (%v,%v), want (+Inf,true)", v, ok)
	}
	if v, ok := Target(tgt, bigfp.Exp, math.Inf(-1)); !ok || math.Float64bits(v) != 0 {
		t.Errorf("exp(-Inf) = (%v,%v), want (0,true)", v, ok)
	}
	if _, ok := Target(tgt, bigfp.Exp, math.NaN()); ok {
		t.Error("exp(NaN) reported a result")
	}
	if _, ok := Target(interval.Posit16Target(), bigfp.Exp, math.Inf(1)); ok {
		t.Error("posit16 exp(+Inf) reported a result, want NaR")
	}
}

// TestLadderFallbackOnTies pins what the ladder returns when f(x) lies
// exactly on a rounding boundary, so no precision separates the band
// ends: exp2(-118) = 2^-118 is halfway between posit32 MinPos = 2^-120
// and 2^-116, and exp2(-54) halfway between posit16 MinPos = 2^-56 and
// 2^-52. posit32 takes the lower end's rounding, posit16 the center's
// (ties to the even pattern); the committed exp2 underflow cutoffs
// depend on both.
func TestLadderFallbackOnTies(t *testing.T) {
	if got := Posit32(bigfp.Exp2, -118); got != posit32.MinPos {
		t.Errorf("posit32 exp2(-118) = %#08x, want MinPos", got.Bits())
	}
	if got, _ := Target(interval.Posit16Target(), bigfp.Exp2, -54); got != 0x1p-52 {
		t.Errorf("posit16 exp2(-54) = %v, want 2^-52", got)
	}
}

// TestConcurrentQueries runs every entry point concurrently on
// overlapping inputs, which share the pooled ladder scratch (run under
// -race in CI).
func TestConcurrentQueries(t *testing.T) {
	tgt := interval.Float16Target()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				x := 0.5 + float64((i+w)%64)*0.03125
				f := tableFuncs[(i+w)%len(tableFuncs)]
				if got, want := Float32(f, x), float32Ladder(f, x); got != want {
					t.Errorf("concurrent %v(%v): %v != %v", f, x, got, want)
					return
				}
				Float64(f, x)
				Posit32(f, x)
				Target(tgt, f, x)
			}
		}(w)
	}
	wg.Wait()
}

func TestFloat32AgainstStdlib(t *testing.T) {
	// Go's math package is faithfully rounded: the correctly rounded
	// float32 must be within one float32 ulp of float32(math.F(x)), and
	// almost always equal.
	rng := rand.New(rand.NewSource(1))
	mismatches := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		x := rng.Float64()*20 - 10
		pairs := []struct {
			f   bigfp.Func
			ref float64
		}{
			{bigfp.Exp, math.Exp(x)},
			{bigfp.Sinh, math.Sinh(x)},
			{bigfp.Cosh, math.Cosh(x)},
			{bigfp.Log, math.Log(math.Abs(x) + 0.1)},
		}
		for _, p := range pairs {
			arg := x
			if p.f == bigfp.Log {
				arg = math.Abs(x) + 0.1
			}
			got := Float32(p.f, arg)
			want := float32(p.ref)
			if got != want {
				mismatches++
				// Must still be adjacent (double-rounding of a faithful
				// double result differs by at most 1 ulp).
				if math.Abs(float64(got)-float64(want)) > 2*math.Abs(float64(want))*0x1p-23 {
					t.Fatalf("%v(%v): oracle %v too far from stdlib %v", p.f, arg, got, want)
				}
			}
		}
	}
	if mismatches > trials/10 {
		t.Errorf("suspiciously many oracle/stdlib mismatches: %d", mismatches)
	}
}

func TestFloat32SpecialValues(t *testing.T) {
	if Float32(bigfp.Exp, 0) != 1 {
		t.Error("exp(0) != 1")
	}
	if Float32(bigfp.Log, 1) != 0 {
		t.Error("log(1) != 0")
	}
	if Float32(bigfp.Exp2, 10) != 1024 {
		t.Error("exp2(10) != 1024")
	}
	if Float32(bigfp.Exp10, 3) != 1000 {
		t.Error("exp10(3) != 1000")
	}
	if Float32(bigfp.SinPi, 0.5) != 1 || Float32(bigfp.CosPi, 1) != -1 {
		t.Error("sinpi/cospi exact points wrong")
	}
	// Overflow to +Inf.
	if v := Float32(bigfp.Exp, 200); !math.IsInf(float64(v), 1) {
		t.Errorf("exp(200) should round to +Inf in float32, got %v", v)
	}
	// Deep underflow to 0.
	if v := Float32(bigfp.Exp, -200); v != 0 {
		t.Errorf("exp(-200) should round to 0 in float32, got %v", v)
	}
	// Subnormal result.
	v := Float32(bigfp.Exp, -100)
	if v <= 0 || v >= 0x1p-126 {
		t.Errorf("exp(-100) should be subnormal float32, got %v", v)
	}
}

func TestFloat64MatchesFloat32Consistency(t *testing.T) {
	// Rounding the correctly rounded double to float32 must agree with
	// the direct float32 oracle except at double-rounding boundaries
	// (which exist: that is CR-LIBM's failure mode in Table 1), so here
	// we only check near-agreement.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 5
		d := Float64(bigfp.Exp, x)
		f := Float32(bigfp.Exp, x)
		if df := float32(d); df != f {
			if math.Abs(float64(df)-float64(f)) > math.Abs(float64(f))*0x1p-22 {
				t.Fatalf("double-rounded oracle too far at %v: %v vs %v", x, df, f)
			}
		}
	}
}

func TestPosit32Oracle(t *testing.T) {
	if Posit32(bigfp.Exp, 0) != posit32.One {
		t.Error("posit exp(0) != 1")
	}
	if Posit32(bigfp.Log, 1) != posit32.Zero {
		t.Error("posit log(1) != 0")
	}
	// Saturation: exp of a large input rounds to MaxPos (no overflow).
	if Posit32(bigfp.Exp, 100) != posit32.MaxPos {
		t.Error("posit exp(100) should saturate to MaxPos")
	}
	if Posit32(bigfp.Exp, -100) != posit32.MinPos {
		t.Error("posit exp(-100) should saturate to MinPos")
	}
	// Consistency with the float64 oracle away from boundaries.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		x := rng.Float64()*4 - 2
		p := Posit32(bigfp.Cosh, x)
		d := Float64(bigfp.Cosh, x)
		if q := posit32.FromFloat64(d); q != p {
			// Double rounding may differ by one ulp at most.
			if q != p.NextUp() && q != p.NextDown() {
				t.Fatalf("posit oracle for cosh(%v): %#x vs double-rounded %#x", x, p, q)
			}
		}
	}
}

func TestTargetDispatch(t *testing.T) {
	v, ok := Target(interval.Float32Target{}, bigfp.Exp, 1)
	if !ok || float32(v) != Float32(bigfp.Exp, 1) {
		t.Error("Target(float32) disagrees with Float32")
	}
	pv, ok := Target(interval.Posit32Target{}, bigfp.Exp, 1)
	if !ok || posit32.FromFloat64(pv) != Posit32(bigfp.Exp, 1) {
		t.Error("Target(posit32) disagrees with Posit32")
	}
}

// BenchmarkOracleFloat32 measures one query on a fresh input per
// iteration (tier 0 decides almost all of them).
func BenchmarkOracleFloat32(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Float32(bigfp.Exp, 0.5+float64(i)*1e-9)
	}
}

// BenchmarkOracleFloat32Ladder measures the Ziv ladder alone.
func BenchmarkOracleFloat32Ladder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		zivTarget(interval.Float32Target{}, bigfp.Exp, 0.5+float64(i)*1e-9)
	}
}

// positEdgeInputs lists the posit32 inputs where a tier-0 guard band is
// most likely to be wrong: the saturation ends, the regime boundaries
// (powers of 16, where the fraction width changes), the neighbours of
// 1, small arguments (exp near 0) and a run of posits just above and
// below 1 (log near 1), plus 0x400035f0, where math.Log2's cancellation
// just above 1 decides log2 wrongly.
func positEdgeInputs() []posit32.Posit {
	var ps []posit32.Posit
	add := func(p posit32.Posit, n int) {
		up, down := p, p
		ps = append(ps, p, p.Neg())
		for i := 0; i < n; i++ {
			up, down = up.NextUp(), down.NextDown()
			ps = append(ps, up, up.Neg(), down, down.Neg())
		}
	}
	add(posit32.MinPos, 4)
	add(posit32.MaxPos, 4)
	for e := -120; e <= 120; e += 4 {
		add(posit32.FromFloat64(math.Ldexp(1, e)), 2)
	}
	for e := -120; e < 0; e++ {
		add(posit32.FromFloat64(math.Ldexp(1, e)), 1)
	}
	add(posit32.FromFloat64(1), 4096)
	return append(ps, posit32.FromBits(0x400035f0))
}

// checkPositTier0 asserts that tier 0 agrees with the ladder wherever it
// decides, and returns how many inputs it decided.
func checkPositTier0(t *testing.T, f bigfp.Func, ps []posit32.Posit) (decided int) {
	t.Helper()
	ref := posit32Ref(f)
	tgt := interval.Posit32Target{}
	for _, p := range ps {
		if p.IsNaR() {
			continue
		}
		x := p.Float64()
		if _, edge := domainEdge(f, x); edge {
			continue
		}
		v, ok := decide(tgt, ref(x))
		if !ok {
			continue
		}
		decided++
		if want, _ := zivTarget(tgt, f, x); math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("%v(%#08x = %v): tier 0 decided %v, ladder %v", f, p.Bits(), x, v, want)
		}
	}
	return decided
}

// TestPosit32Tier0MatchesLadder checks the posit32 guard band against
// the Ziv ladder for all ten functions, sinpi/cospi through the
// double-double kernels: on the edge inputs and on 2^16 seeded random
// posits each.
func TestPosit32Tier0MatchesLadder(t *testing.T) {
	edges := positEdgeInputs()
	for f := range ref64 {
		t.Run(f.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(f) + 14))
			ps := append([]posit32.Posit(nil), edges...)
			for i := 0; i < 1<<16; i++ {
				ps = append(ps, posit32.FromBits(rng.Uint32()))
			}
			if n := checkPositTier0(t, f, ps); n < len(ps)/4 {
				t.Errorf("tier 0 decided only %d of %d inputs", n, len(ps))
			}
		})
	}
}

// TestPosit32Tier0Declines checks where tier 0 must not decide: a zero,
// infinite or NaN reference (posits saturate, so those say nothing
// about the result), including sinpi/cospi at their exact zeros.
func TestPosit32Tier0Declines(t *testing.T) {
	for _, ref := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, ok := decide(interval.Posit32Target{}, ref); ok {
			t.Errorf("decide(posit32, %v) decided", ref)
		}
	}
	ResetCache()
	defer ResetCache()
	for _, x := range []float64{1, -2, 3} {
		if got := Posit32(bigfp.SinPi, x); got != posit32.Zero {
			t.Errorf("sinpi(%v) = %#08x, want 0", x, got.Bits())
		}
		if got := Posit32(bigfp.CosPi, x+0.5); got != posit32.Zero {
			t.Errorf("cospi(%v) = %#08x, want 0", x+0.5, got.Bits())
		}
	}
	// exp underflows the double reference to 0 and overflows it to
	// +Inf long before posit32 saturates: the ladder must answer.
	for _, x := range []float64{-800, -1e6, 800, 1e6} {
		Posit32(bigfp.Exp, x)
	}
	if got := Posit32(bigfp.Exp, -800); got != posit32.MinPos {
		t.Errorf("exp(-800) = %#08x, want MinPos", got.Bits())
	}
	if got := Posit32(bigfp.Exp, 800); got != posit32.MaxPos {
		t.Errorf("exp(800) = %#08x, want MaxPos", got.Bits())
	}
	if z := Ziv(); z.Tier0 != 0 || z.Runs() == 0 {
		t.Errorf("tier 0 decided %d of %d evaluations, want 0", z.Tier0, z.Runs())
	}
}
