package perf

import (
	"math"
	"time"

	rlibm "rlibm32"
)

// Roofline harness: how close each batch kernel runs to what this
// machine can do at all.
//
// Two ceilings bound a batch evaluator. The memory ceiling is the cost
// of just streaming the values through the core (load a float32, store
// a float32) — no kernel can beat it. The compute ceiling is the
// kernel's arithmetic-op count times the machine's measured mul-add
// throughput, divided by the vector width of the path actually
// selected — the cost of the lane's arithmetic at full tilt with all
// bookkeeping free. Both are measured at startup with the same
// pseudo-benchmark discipline the kernels themselves are measured
// with, so the ratios are internally consistent even though absolute
// numbers drift with machine load.
//
// Every roofline run doubles as a correctness gate: the served batch
// kernel is swept against the scalar correctly rounded evaluator on a
// mixed ordinary+special input array, bit for bit, and a function
// whose kernel or scalar evaluator cannot be looked up fails the gate
// rather than dropping out of the table. CI runs this (see the
// bench-smoke job) so a perf regression hunt can never silently trade
// away correct rounding.

// RooflineRow is one function's roofline entry.
type RooflineRow struct {
	Func string
	// Kind is the kernel EvalSlice serves (simd, go or scalar).
	Kind string
	// ScalarNs is the scalar entry point (rlibm.Func) in a loop — the
	// "before" side; SelectedNs is the batch kernel EvalSlice serves.
	ScalarNs, SelectedNs float64
	// Flops counts the lane's double-precision arithmetic ops per
	// value (divides weighted ×4); static per family, see laneFlops.
	Flops int
	// MemBoundNs and CompBoundNs are the two ceilings for this
	// function on this machine run.
	MemBoundNs, CompBoundNs float64
	// ParityOK records the bit-exact sweep of the selected kernel
	// against the scalar evaluator over the mixed ordinary+special
	// array; it is false when either one could not be looked up.
	ParityOK bool
}

// Roofline is the full harness result.
type Roofline struct {
	// MulAddNs is the measured per-op cost of independent scalar
	// double mul-add chains — the machine's arithmetic throughput as
	// reachable from Go.
	MulAddNs float64
	// StreamNs is the measured per-value cost of a float32
	// load+store streaming loop — the memory/loop-overhead floor.
	StreamNs float64
	Rows     []RooflineRow
}

// laneFlops is the per-value double-precision arithmetic op count of
// each family's fused lane (adds and multiplies 1 each, divides
// weighted 4 for their lower issue rate); the constants are read off
// the kernel source, not measured.
func laneFlops(name string) int {
	switch name {
	case "ln", "log2", "log10":
		return 18 // reduction 5, divide 4, compensation 2, quad core 5, +r 2
	case "exp", "exp2", "exp10":
		return 15 // reduction 5, scale 1, dense-5 core 8, compensation 1
	case "sinh", "cosh":
		return 25 // reduction 5, 2^±m combine 6, two quad cores 10, addition theorem 4
	case "sinpi", "cospi":
		return 22 // π-reduction 8, two quad cores 10, recombination 4
	}
	return 0
}

// measureMulAdd times eight independent double mul-add chains —
// enough parallelism to saturate the FP units — and returns ns per
// mul-add.
func measureMulAdd() float64 {
	const n = 1 << 16
	best := math.Inf(1)
	for pass := 0; pass < 4; pass++ {
		a0, a1, a2, a3 := 1.0, 1.0, 1.0, 1.0
		a4, a5, a6, a7 := 1.0, 1.0, 1.0, 1.0
		x := 0.999999999
		t0 := time.Now()
		for i := 0; i < n; i++ {
			a0 = a0*x + 0x1p-60
			a1 = a1*x + 0x1p-59
			a2 = a2*x + 0x1p-58
			a3 = a3*x + 0x1p-57
			a4 = a4*x + 0x1p-56
			a5 = a5*x + 0x1p-55
			a6 = a6*x + 0x1p-54
			a7 = a7*x + 0x1p-53
		}
		el := time.Since(t0).Seconds() * 1e9 / (8 * n)
		rooflineSink += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
		if pass > 0 && el < best {
			best = el
		}
	}
	return best
}

var rooflineSink float64

// measureStream times dst[i] = xs[i] over the same batch size the
// kernels are measured at and returns ns per value.
func measureStream(n, reps int) float64 {
	xs := make([]float32, n)
	dst := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
	}
	best := math.Inf(1)
	for pass := 0; pass < 4; pass++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := range xs {
				dst[i] = xs[i]
			}
		}
		el := time.Since(t0).Seconds() * 1e9 / float64(reps*n)
		rooflineSink += float64(dst[0])
		if pass > 0 && el < best {
			best = el
		}
	}
	return best
}

// parityInputs builds the sweep array for the roofline's correctness
// gate: the ordinary benchmark distribution plus a block of special
// and boundary values (NaN, infinities, zeros, subnormals, extremes,
// both signs) so the fixup path is exercised too.
func parityInputs(name string, n int) []float32 {
	xs := Float32Inputs(name, n)
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		0x1p-126, -0x1p-126, math.MaxFloat32, -math.MaxFloat32,
		1, -1, 0.5, -0.5, 2, -2, 88, -88, 1000, -1000,
	}
	for i, s := range specials {
		if i < len(xs) {
			xs[i*37%len(xs)] = s
		}
	}
	return xs
}

// checkParity runs k over xs and compares bit-for-bit against the
// scalar evaluator.
func checkParity(k func(dst, xs []float32), sf func(float32) float32, xs []float32) bool {
	dst := make([]float32, len(xs))
	k(dst, xs)
	for i, x := range xs {
		if math.Float32bits(dst[i]) != math.Float32bits(sf(x)) {
			return false
		}
	}
	return true
}

// MeasureRoofline runs the full harness over every float32 function:
// machine ceilings once, then per function the scalar entry point, the
// selected batch kernel and the parity gate — one row per function,
// always. n is the batch size (the public benchmarks use 1024), reps
// the repetitions per timing pass.
func MeasureRoofline(n, reps int) Roofline {
	rl := Roofline{
		MulAddNs: measureMulAdd(),
		StreamNs: measureStream(n, reps),
	}
	for _, name := range rlibm.Names() {
		row := RooflineRow{Func: name, Kind: rlibm.KernelKind(name), Flops: laneFlops(name)}
		selected, ok1 := rlibm.FuncSlice(name)
		sf, ok2 := rlibm.Func(name)
		if ok1 && ok2 {
			xs := Float32Inputs(name, n)
			row.ScalarNs = MeasureFloat32(sf, xs, reps)
			row.SelectedNs = MeasureFloat32Batch(selected, xs, reps)
			width := 1.0
			if row.Kind == "simd" {
				width = 4
			}
			row.MemBoundNs = rl.StreamNs
			row.CompBoundNs = float64(row.Flops) * rl.MulAddNs / width
			row.ParityOK = checkParity(selected, sf, parityInputs(name, n))
		}
		rl.Rows = append(rl.Rows, row)
	}
	return rl
}
