package libm

import (
	"math"
	"testing"
)

// benchInputs mirrors the ordinary-domain input mix the public
// benchmarks use for exp: uniformly spread over the non-special band.
func benchInputs(n int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		u := uint32(i*2654435761) >> 8
		xs[i] = -80 + float32(u)*(160.0/float32(1<<24))
	}
	return xs
}

// BenchmarkKernelPathsExp pits the scalar-loop fallback against the
// pure-Go fused kernel and, where the hardware runs it, the AVX2
// kernel on the same process, same inputs — the in-process
// before/after comparison the roofline harness reports.
func BenchmarkKernelPathsExp(b *testing.B) {
	xs := benchInputs(1024)
	dst := make([]float32, 1024)
	var f *impl
	for _, g := range float32Impls {
		if g.name == "exp" {
			f = g
		}
	}
	if f == nil {
		b.Fatal("no exp impl")
	}
	run := func(name string, k func(dst, xs []float32)) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k(dst, xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/value")
		})
	}
	run("scalar", scalarSlice[float32](compile(f)))
	run("go", fusedSlice[float32](f))
	if k, kind := fusedSlice32(f); kind == kindSIMD {
		run("simd", k)
	}
	_ = math.Float32bits(dst[0])
}
