// Kernel parity sweep: the fused batch kernels against the scalar
// evaluator, for all five representations.
//
// The kernels must agree with the scalar path to the last raw double
// bit — they run the identical operation sequence, so any discrepancy
// is a kernel bug.
//
// Default mode sweeps a deterministic quasi-random sample of the full
// input space per function (multiplicative-stride permutation prefix,
// so every exponent region is hit) plus every special-case boundary;
// -short shrinks the sample; RLIBM_PARITY_FULL=1 sweeps all 2^32
// inputs (hours of CPU — the manual exhaustive mode). The 16-bit
// variants are always swept exhaustively (2^16 is trivial).
package libm_test

import (
	"math"
	"os"
	"testing"

	"rlibm32/bfloat16"
	"rlibm32/float16"
	"rlibm32/internal/libm"
	"rlibm32/posit16"
	"rlibm32/posit32"
)

const parityBatch = 4096

// sweepSize picks the number of 32-bit patterns swept per function.
func sweepSize(t *testing.T) uint64 {
	if os.Getenv("RLIBM_PARITY_FULL") == "1" {
		return 1 << 32
	}
	if testing.Short() {
		return 1 << 14
	}
	return 1 << 19
}

// pattern32 returns the i-th pattern of a deterministic permutation of
// the 32-bit space (odd multiplier ⇒ full period): a stratified sweep
// whose prefix of any length covers all exponent regions. In full mode
// (n == 2^32) it degenerates to... still a permutation — every input
// exactly once.
func pattern32(i uint64) uint32 { return uint32(i * 2654435761) }

// boundary32 lists bit patterns every function must be checked on:
// zeros, infinities, NaNs, and dense neighborhoods of 1, the subnormal
// border and the extremes, where every family's special-case cutoffs
// live.
func boundary32() []uint32 {
	base := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, // quiet NaNs
		0x7f800001, 0x7fffffff, // signaling/max NaNs
		0x3f800000, 0xbf800000, // ±1
		0x00800000, 0x80800000, // ±min normal
		0x007fffff, 0x807fffff, // ±max subnormal
		0x00000001, 0x80000001, // ±min subnormal
		0x7f7fffff, 0xff7fffff, // ±max finite
		// Known hard cases for exp and exp10 respectively: the full
		// 2^32 sweep found an FMA-contracted evaluation of their
		// polynomials one ulp off here, so the results sit close to a
		// rounding boundary. Swept for every function so the sampled
		// runs keep covering them.
		0xc16912cd, 0x417d7f60,
	}
	out := make([]uint32, 0, len(base)*64)
	for _, b := range base {
		for d := uint32(0); d < 32; d++ {
			out = append(out, b+d, b-d)
		}
	}
	return out
}

// checkKernel32 sweeps one float32 function's served batch kernel
// bit-for-bit against the scalar evaluator.
func checkKernel32(t *testing.T, name string, n uint64) {
	k, kind := libm.Kernel32(name)
	if kind != "simd" && kind != "go" {
		t.Fatalf("%s: no fused kernel (kind %q: table shape not covered)", name, kind)
	}
	sc, ok := libm.ScalarFunc64(libm.VariantFloat32, name)
	if !ok {
		t.Fatalf("%s: no scalar evaluator", name)
	}
	xs := make([]float32, parityBatch)
	dst := make([]float32, parityBatch)
	bad := 0
	flush := func(m int) {
		k(dst[:m], xs[:m])
		for i := 0; i < m && bad < 5; i++ {
			wb := math.Float32bits(float32(sc(float64(xs[i]))))
			if gb := math.Float32bits(dst[i]); gb != wb {
				t.Errorf("%s %s: x=%x got=%x want=%x", name, kind, math.Float32bits(xs[i]), gb, wb)
				bad++
			}
		}
	}
	m := 0
	for _, u := range boundary32() {
		xs[m] = math.Float32frombits(u)
		if m++; m == parityBatch {
			flush(m)
			m = 0
		}
	}
	for i := uint64(0); i < n && bad < 5; i++ {
		xs[m] = math.Float32frombits(pattern32(i))
		if m++; m == parityBatch {
			flush(m)
			m = 0
		}
	}
	flush(m)
}

func TestKernelParityFloat32(t *testing.T) {
	n := sweepSize(t)
	for _, name := range libm.Names(libm.VariantFloat32) {
		name := name
		t.Run(name, func(t *testing.T) { checkKernel32(t, name, n) })
	}
}

// checkKernel64 sweeps one float64-embedding variant function over the
// decoded inputs, to the raw double bit.
func checkKernel64(t *testing.T, variant, name string, inputs func(yield func(float64))) {
	k, ok := libm.Kernel64(variant, name)
	if !ok {
		t.Fatalf("%s/%s: no fused kernel (table shape not covered)", variant, name)
	}
	sc, ok := libm.ScalarFunc64(variant, name)
	if !ok {
		t.Fatalf("%s/%s: no scalar evaluator", variant, name)
	}
	xs := make([]float64, parityBatch)
	dst := make([]float64, parityBatch)
	bad := 0
	flush := func(m int) {
		k(dst[:m], xs[:m])
		for i := 0; i < m && bad < 5; i++ {
			if gb, wb := math.Float64bits(dst[i]), math.Float64bits(sc(xs[i])); gb != wb {
				t.Errorf("%s/%s: x=%v got=%x want=%x", variant, name, xs[i], gb, wb)
				bad++
			}
		}
	}
	m := 0
	inputs(func(x float64) {
		if bad >= 5 {
			return
		}
		xs[m] = x
		if m++; m == parityBatch {
			flush(m)
			m = 0
		}
	})
	flush(m)
}

func TestKernelParityPosit32(t *testing.T) {
	n := sweepSize(t)
	inputs := func(yield func(float64)) {
		for i := uint64(0); i < n; i++ {
			yield(posit32.FromBits(pattern32(i)).Float64())
		}
	}
	for _, name := range libm.Names(libm.VariantPosit32) {
		name := name
		t.Run(name, func(t *testing.T) { checkKernel64(t, libm.VariantPosit32, name, inputs) })
	}
}

// sixteenBit sweeps an entire 16-bit variant exhaustively.
func sixteenBit(t *testing.T, variant string, dec func(uint16) float64) {
	inputs := func(yield func(float64)) {
		for u := 0; u < 1<<16; u++ {
			yield(dec(uint16(u)))
		}
	}
	for _, name := range libm.Names(variant) {
		name := name
		t.Run(name, func(t *testing.T) { checkKernel64(t, variant, name, inputs) })
	}
}

func TestKernelParityBfloat16(t *testing.T) {
	sixteenBit(t, libm.VariantBfloat16,
		func(u uint16) float64 { return bfloat16.FromBits(u).Float64() })
}

func TestKernelParityFloat16(t *testing.T) {
	sixteenBit(t, libm.VariantFloat16,
		func(u uint16) float64 { return float16.FromBits(u).Float64() })
}

func TestKernelParityPosit16(t *testing.T) {
	sixteenBit(t, libm.VariantPosit16,
		func(u uint16) float64 { return posit16.FromBits(u).Float64() })
}
