package libm

import (
	"math"
	"testing"

	"rlibm32/internal/rangered"
)

// TestRoundHalfAwayMatchesMathRound pins the kernel-local math.Round
// copy bit-for-bit: the exp kernels' bit-identity to the scalar path
// rests on it. Edge cases cover both rounding-branch boundaries, the
// largest-double-below-0.5 trap (Trunc(x+0.5) gets it wrong; Round
// must not), signed zeros, subnormals, infinities and NaN payloads.
func TestRoundHalfAwayMatchesMathRound(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 0.25, 0.5, 0.75, 1, 1.5, 2.5, -0.5, -1.5, -2.5,
		0.49999999999999994, -0.49999999999999994, // largest |x| < 0.5
		0.5000000000000001, 1e15, 1e15 + 0.5, -1e15 - 0.5,
		1 << 52, -(1 << 52), (1 << 52) - 0.5,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), // NaN payload preserved
	}
	for _, x := range cases {
		if got, want := math.Float64bits(roundHalfAway(x)), math.Float64bits(math.Round(x)); got != want {
			t.Errorf("roundHalfAway(%v) = %x, want %x", x, got, want)
		}
	}
	// Dense deterministic sweep across exponents, both signs.
	for e := -60; e <= 60; e++ {
		base := math.Ldexp(1, e)
		for i := 0; i < 200; i++ {
			x := base * (1 + float64(i)*0x1.3p-7)
			for _, v := range [...]float64{x, -x} {
				if got, want := math.Float64bits(roundHalfAway(v)), math.Float64bits(math.Round(v)); got != want {
					t.Fatalf("roundHalfAway(%v) = %x, want %x", v, got, want)
				}
			}
		}
	}
}

// TestFusedKernelCoverage asserts every shipped function in every
// variant actually gets a fused kernel — if a regenerated table ever
// changes shape, this fails loudly instead of silently dropping to the
// scalar-loop fallback.
func TestFusedKernelCoverage(t *testing.T) {
	for _, e := range Registry() {
		for _, f := range implsFor(e.Variant) {
			if f.name != e.Name {
				continue
			}
			if k := fusedSlice[float64](f); k == nil {
				t.Errorf("%s/%s: table shape has no fused kernel", e.Variant, e.Name)
			}
		}
	}
}

// TestKernelPathShape checks the telemetry-facing accessor: every
// shipped float32 function reports one of the documented kernel kinds
// ("simd" or "go" — no shipped table shape drops to "scalar"), and an
// unknown name reports "" with no kernel.
func TestKernelPathShape(t *testing.T) {
	for _, f := range float32Impls {
		if k := KernelKind32(f.name); k != kindSIMD && k != kindGo {
			t.Errorf("KernelKind32(%q) = %q, want %s|%s", f.name, k, kindSIMD, kindGo)
		}
	}
	if k, kind := Kernel32("nope"); k != nil || kind != "" {
		t.Errorf("Kernel32(nope) = (%v, %q), want (nil, \"\")", k != nil, kind)
	}
}

// TestKernelPathProbe pins the selection rule: the vector kernel is
// chosen exactly when the CPU check found AVX2 and the function is in
// the exponential or logarithm family; every other function serves
// the pure-Go fused kernel. The choice is deterministic, so repeated
// builds report the same kind.
func TestKernelPathProbe(t *testing.T) {
	for _, f := range float32Impls {
		want := kindGo
		switch f.fam.(type) {
		case *rangered.ExpFamily, *rangered.LogFamily:
			if simdAVX2 {
				want = kindSIMD
			}
		}
		k, kind := Kernel32(f.name)
		if k == nil || kind != want {
			t.Errorf("Kernel32(%q) kind = %q (kernel %v), want %q (simdAVX2=%v)", f.name, kind, k != nil, want, simdAVX2)
		}
		if again := KernelKind32(f.name); again != kind {
			t.Errorf("KernelKind32(%q) = %q, then %q", f.name, kind, again)
		}
	}
}
