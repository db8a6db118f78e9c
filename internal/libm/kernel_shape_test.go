package libm

// Scratch micro-benchmarks that size the machine: what does one exp
// lane cost in isolation, how much does lane width buy, and what is
// the pure polynomial floor. These guided the 4-wide sequential-block
// shape in kernel.go; they stay because the answers are
// machine-specific and the roofline harness story references them.

import (
	"math"
	"testing"
)

var shapeSink float64

func BenchmarkKernelShape(b *testing.B) {
	const n = 1024
	xs := make([]float64, n)
	dst := make([]float64, n)
	for i := range xs {
		xs[i] = -80 + float64(uint32(i*2654435761)>>8)*(160.0/float64(1<<24))
	}
	c0, c1, c2, c3, c4 := 1.0, 0.9999, 0.5001, 0.1666, 0.0417
	invC, chi, clo := 92.332482616893657, 0.010830424696249144, -8.6779949748295693e-18
	var ttab [64]float64
	for i := range ttab {
		ttab[i] = 1 + float64(i)/64
	}
	b.Run("dense5-only", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i := 0; i < n; i++ {
				r := xs[i]
				dst[i] = (((c4*r+c3)*r+c2)*r+c1)*r + c0
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	b.Run("exp-1wide", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i := 0; i < n; i++ {
				x := xs[i]
				k := roundHalfAway(x * invC)
				r := (x - k*chi) - k*clo
				ki := int(k)
				a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
				dst[i] = a * ((((c4*r+c3)*r+c2)*r+c1)*r + c0)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	// Progressively more realistic variants: float32 I/O, the
	// special-case guard, the sign-selected coefficient row.
	xf := make([]float32, n)
	df := make([]float32, n)
	for i := range xf {
		xf[i] = float32(xs[i])
	}
	co := make([]float64, 16)
	copy(co[0:5], []float64{c0, c1, c2, c3, c4})
	copy(co[8:13], []float64{c0, c1, c2, c3, c4})
	undHi, ovfLo, tinyLo, tinyHi := -87.34, 88.73, -1e-7, 1e-7
	b.Run("exp-1wide-f32", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i := 0; i < n; i++ {
				x := float64(xf[i])
				k := roundHalfAway(x * invC)
				r := (x - k*chi) - k*clo
				ki := int(k)
				a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
				df[i] = float32(a * ((((c4*r+c3)*r+c2)*r+c1)*r + c0))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	b.Run("exp-1wide-f32-guard", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i := 0; i < n; i++ {
				x := float64(xf[i])
				if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
					df[i] = 0
					continue
				}
				k := roundHalfAway(x * invC)
				r := (x - k*chi) - k*clo
				ki := int(k)
				a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
				df[i] = float32(a * ((((c4*r+c3)*r+c2)*r+c1)*r + c0))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	b.Run("exp-1wide-f32-guard-row", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i := 0; i < n; i++ {
				x := float64(xf[i])
				if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
					df[i] = 0
					continue
				}
				k := roundHalfAway(x * invC)
				r := (x - k*chi) - k*clo
				ki := int(k)
				a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
				c := co[int(math.Float64bits(r)>>63)<<3:]
				df[i] = float32(a * ((((c[4]*r+c[3])*r+c[2])*r+c[1])*r + c[0]))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	// Same full lane, but the guard's cold arm calls a function value —
	// the shape the kernels originally had. A call anywhere in the loop
	// body forces every loop-carried value into a stack slot.
	sc := func(x float64) float64 { return x }
	b.Run("exp-1wide-f32-guard-row-call", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i := 0; i < n; i++ {
				x := float64(xf[i])
				if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
					df[i] = float32(sc(x))
					continue
				}
				k := roundHalfAway(x * invC)
				r := (x - k*chi) - k*clo
				ki := int(k)
				a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
				c := co[int(math.Float64bits(r)>>63)<<3:]
				df[i] = float32(a * ((((c[4]*r+c[3])*r+c[2])*r+c[1])*r + c[0]))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	// Deferred-fixup shape: unconditional lane compute, branchless
	// special accumulation, specials repaired after the loop.
	b.Run("exp-1wide-f32-row-fixup", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			bad := 0
			for i := 0; i < n; i++ {
				x := float64(xf[i])
				v := 0
				if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
					v = 1
				}
				bad |= v
				k := roundHalfAway(x * invC)
				r := (x - k*chi) - k*clo
				ki := int(k)
				a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
				c := co[int(math.Float64bits(r)>>63)<<3:]
				df[i] = float32(a * ((((c[4]*r+c[3])*r+c[2])*r+c[1])*r + c[0]))
			}
			if bad != 0 {
				for i := 0; i < n; i++ {
					x := float64(xf[i])
					if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
						df[i] = float32(sc(x))
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	// Candidate final shapes: coefficient row select replaced by
	// per-coefficient mask blends on hoisted registers (no loads on the
	// critical path), specials deferred to a fixup pass.
	p0, p1, p2, p3, p4 := co[0], co[1], co[2], co[3], co[4]
	q0, q1, q2, q3, q4 := co[8], co[9], co[10], co[11], co[12]
	b.Run("exp-1wide-blend-fixup", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			bad := 0
			for i := 0; i < n; i++ {
				x := float64(xf[i])
				v := 0
				if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
					v = 1
				}
				bad |= v
				k := roundHalfAway(x * invC)
				r := (x - k*chi) - k*clo
				ki := int(k)
				a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
				m := uint64(int64(math.Float64bits(r)) >> 63)
				c4b := blend64(p4, q4, m)
				c3b := blend64(p3, q3, m)
				c2b := blend64(p2, q2, m)
				c1b := blend64(p1, q1, m)
				c0b := blend64(p0, q0, m)
				df[i] = float32(a * ((((c4b*r+c3b)*r+c2b)*r+c1b)*r + c0b))
			}
			if bad != 0 {
				shapeSink++
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	b.Run("exp-2wide-blend-fixup", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			bad := 0
			for i := 0; i+2 <= n; i += 2 {
				{
					x := float64(xf[i])
					v := 0
					if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
						v = 1
					}
					bad |= v
					k := roundHalfAway(x * invC)
					r := (x - k*chi) - k*clo
					ki := int(k)
					a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
					m := uint64(int64(math.Float64bits(r)) >> 63)
					c4b := blend64(p4, q4, m)
					c3b := blend64(p3, q3, m)
					c2b := blend64(p2, q2, m)
					c1b := blend64(p1, q1, m)
					c0b := blend64(p0, q0, m)
					df[i] = float32(a * ((((c4b*r+c3b)*r+c2b)*r+c1b)*r + c0b))
				}
				{
					x := float64(xf[i+1])
					v := 0
					if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
						v = 1
					}
					bad |= v
					k := roundHalfAway(x * invC)
					r := (x - k*chi) - k*clo
					ki := int(k)
					a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
					m := uint64(int64(math.Float64bits(r)) >> 63)
					c4b := blend64(p4, q4, m)
					c3b := blend64(p3, q3, m)
					c2b := blend64(p2, q2, m)
					c1b := blend64(p1, q1, m)
					c0b := blend64(p0, q0, m)
					df[i+1] = float32(a * ((((c4b*r+c3b)*r+c2b)*r+c1b)*r + c0b))
				}
			}
			if bad != 0 {
				shapeSink++
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	b.Run("exp-1wide-row-fixup-again", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			bad := 0
			for i := 0; i < n; i++ {
				x := float64(xf[i])
				v := 0
				if !(x > undHi && x < ovfLo && (x < tinyLo || x > tinyHi)) {
					v = 1
				}
				bad |= v
				k := roundHalfAway(x * invC)
				r := (x - k*chi) - k*clo
				ki := int(k)
				a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
				c := co[int(math.Float64bits(r)>>63)<<3:]
				df[i] = float32(a * ((((c[4]*r+c[3])*r+c[2])*r+c[1])*r + c[0]))
			}
			if bad != 0 {
				shapeSink++
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	// Integer-band guard: conservative special detection via one
	// unsigned compare on the magnitude bits, off the FP critical path.
	tinyMax := math.Float64bits(1e-7)
	ovfMin := math.Float64bits(87.33)
	lo := tinyMax + 1
	span := ovfMin - tinyMax - 1
	b.Run("exp-1wide-row-fixup-intguard", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			bad := uint64(0)
			for i := 0; i < n; i++ {
				x := float64(xf[i])
				ub := math.Float64bits(x) &^ (1 << 63)
				if ub-lo >= span {
					bad = 1
				}
				k := roundHalfAway(x * invC)
				r := (x - k*chi) - k*clo
				ki := int(k)
				a := math.Float64frombits(uint64((ki>>6)+1023)<<52) * ttab[ki&63]
				c := co[int(math.Float64bits(r)>>63)<<3:]
				df[i] = float32(a * ((((c[4]*r+c[3])*r+c[2])*r+c[1])*r + c[0]))
			}
			if bad != 0 {
				shapeSink++
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	shapeSink = dst[0] + float64(df[0])
}
