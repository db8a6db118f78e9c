package oracle

import (
	"math"
	"math/rand"
	"testing"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/interval"
	"rlibm32/posit32"
)

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

func BenchmarkOracleFloat32Exp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Float32(bigfp.Exp, 1.5+float64(i%100)*1e-4)
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
	ref := ref64[f]
	for _, p := range ps {
		if p.IsNaR() {
			continue
		}
		x := p.Float64()
		if _, edge := domainEdge(f, x); edge {
			continue
		}
		v, ok := RoundDecidedPosit32(ref(x), DefaultGuardUlps)
		if !ok {
			continue
		}
		decided++
		if want := posit32Ziv(f, x); v != want {
			t.Errorf("%v(%#08x = %v): tier 0 decided %#08x, ladder %#08x",
				f, p.Bits(), x, v.Bits(), want.Bits())
		}
	}
	return decided
}

// TestPosit32Tier0MatchesLadder checks the posit32 guard band against
// the Ziv ladder for every function whose reference holds on every
// double: on the edge inputs and on 2^16 seeded random posits each.
func TestPosit32Tier0MatchesLadder(t *testing.T) {
	edges := positEdgeInputs()
	for f := range ref64 {
		if !refEveryDouble(f) {
			continue
		}
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
// about the result), and sinpi/cospi, whose references need
// float32-origin inputs.
func TestPosit32Tier0Declines(t *testing.T) {
	for _, ref := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, ok := RoundDecidedPosit32(ref, DefaultGuardUlps); ok {
			t.Errorf("RoundDecidedPosit32(%v) decided", ref)
		}
	}
	ResetCache()
	defer ResetCache()
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 256; i++ {
		x := posit32.FromBits(rng.Uint32()).Float64()
		Posit32(bigfp.SinPi, x)
		Posit32(bigfp.CosPi, x)
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
