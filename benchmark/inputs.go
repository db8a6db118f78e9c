package main

import (
	"fmt"
	"math"
	"math/rand"

	rlibm "rlibm32"
	"rlibm32/bfloat16"
	"rlibm32/float16"
	"rlibm32/internal/perf"
	"rlibm32/internal/server"
	"rlibm32/posit16"
	"rlibm32/posit32"
	"rlibm32/posit32/positmath"
)

// Every input the benchmark sends is drawn here from the run's seed.
// Each part of a workload draws from its own stream (seed, salt), so
// changing one part's size does not reshuffle the others.
func newRNG(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*0x9E3779B1 + salt))
}

// specialShare is the fraction of drawn inputs replaced by a special
// value (NaN, ±Inf, ±0, overflow/underflow edges), which the kernels
// route through their special-case paths.
const specialShare = 1.0 / 32

// repr is one representation: its name, wire type code and functions.
type repr struct {
	name  string
	code  uint8
	funcs []string
}

func representations() []repr {
	out := make([]repr, 0, len(reprNames))
	for _, name := range reprNames {
		code, ok := server.TypeCode(name)
		if !ok {
			panic("no wire type code for " + name)
		}
		var funcs []string
		switch name {
		case "float32":
			funcs = rlibm.Names()
		case "posit32":
			funcs = positmath.Names()
		case "bfloat16":
			funcs = bfloat16.Names()
		case "float16":
			funcs = float16.Names()
		case "posit16":
			funcs = posit16.Names()
		}
		out = append(out, repr{name: name, code: code, funcs: funcs})
	}
	return out
}

// domain is the input range a function is drawn from: the range that
// exercises its polynomial path. perf.InputDomain gives it for float32;
// the narrower formats overflow, underflow or run out of fraction bits
// sooner, so their ranges stop where results stay finite and nonzero
// and (for sinpi/cospi) where inputs still have fraction bits.
func domain(reprName, fn string) (lo, hi float64, logU bool) {
	lo, hi, logU = perf.InputDomain(fn)
	var exp, exp2, exp10, hyp, logLo, logHi, pi float64
	switch reprName {
	case "posit32":
		exp, exp2, exp10, hyp, logLo, logHi = 81, 117, 36, 81, 0x1p-120, 0x1p120
	case "bfloat16":
		pi = 64
	case "float16":
		exp, exp2, exp10, hyp, logLo, logHi, pi = 11, 15, 4.8, 11, 0x1p-24, 65504, 512
	case "posit16":
		exp, exp2, exp10, hyp, logLo, logHi = 19, 27, 8, 19, 0x1p-27, 0x1p27
	}
	switch {
	case fn == "exp" && exp > 0:
		lo, hi = -exp, exp
	case fn == "exp2" && exp2 > 0:
		lo, hi = -exp2, exp2
	case fn == "exp10" && exp10 > 0:
		lo, hi = -exp10, exp10
	case (fn == "sinh" || fn == "cosh") && hyp > 0:
		lo, hi = -hyp, hyp
	case (fn == "ln" || fn == "log2" || fn == "log10") && logHi > 0:
		lo, hi = logLo, logHi
	case (fn == "sinpi" || fn == "cospi") && pi > 0:
		lo, hi = -pi, pi
	}
	return lo, hi, logU
}

// drawBits draws n input bit patterns for (r, fn): seeded values across
// the function's domain with a specialShare of special inputs.
func drawBits(rng *rand.Rand, r repr, fn string, n int) []uint32 {
	lo, hi, logU := domain(r.name, fn)
	specials := specialBits(r, lo, hi)
	out := make([]uint32, n)
	for i := range out {
		if rng.Float64() < specialShare {
			out[i] = specials[rng.Intn(len(specials))]
			continue
		}
		var v float64
		if logU {
			v = math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
		} else {
			v = lo + rng.Float64()*(hi-lo)
		}
		out[i] = encode(r.name, v)
	}
	return out
}

// encode rounds v into the representation and returns its bit pattern
// (16-bit encodings in the low half).
func encode(reprName string, v float64) uint32 {
	switch reprName {
	case "float32":
		return math.Float32bits(float32(v))
	case "posit32":
		return uint32(posit32.FromFloat64(v))
	case "bfloat16":
		return uint32(bfloat16.FromFloat64(v).Bits())
	case "float16":
		return uint32(float16.FromFloat64(v).Bits())
	case "posit16":
		return uint32(posit16.FromFloat64(v).Bits())
	}
	panic("unknown representation " + reprName)
}

// specialBits lists the special inputs of a representation: NaN/NaR,
// infinities, signed zeros, the extreme finite and subnormal values,
// and the values one step outside and inside the function's domain.
func specialBits(r repr, lo, hi float64) []uint32 {
	var out []uint32
	switch r.name {
	case "float32":
		out = []uint32{0x7fc00000, 0x7f800000, 0xff800000, 0, 0x80000000,
			0x7f7fffff, 0xff7fffff, 1, 0x80000001, 0x00800000, 0x80800000}
	case "posit32":
		out = []uint32{0x80000000, 0, 0x7fffffff, 1, 0x80000001, 0xffffffff}
	case "bfloat16":
		out = []uint32{0x7fc0, 0x7f80, 0xff80, 0, 0x8000, 0x7f7f, 0xff7f, 1, 0x8001}
	case "float16":
		out = []uint32{0x7e00, 0x7c00, 0xfc00, 0, 0x8000, 0x7bff, 0xfbff, 1, 0x8001}
	case "posit16":
		out = []uint32{0x8000, 0, 0x7fff, 1, 0x8001, 0xffff}
	}
	for _, edge := range []float64{lo, hi} {
		b := encode(r.name, edge)
		out = append(out, b, b+1)
		if b > 0 {
			out = append(out, b-1)
		}
	}
	return out
}

// scalarFunc returns the in-process scalar function of (r, fn) on bit
// patterns: the reference every served and evaluated value is checked
// against.
func scalarFunc(r repr, fn string) (func(uint32) uint32, error) {
	var f func(uint32) uint32
	ok := false
	switch r.name {
	case "float32":
		var g func(float32) float32
		if g, ok = rlibm.Func(fn); ok {
			f = func(b uint32) uint32 { return math.Float32bits(g(math.Float32frombits(b))) }
		}
	case "posit32":
		var g func(posit32.Posit) posit32.Posit
		if g, ok = positmath.Func(fn); ok {
			f = func(b uint32) uint32 { return uint32(g(posit32.Posit(b))) }
		}
	case "bfloat16":
		var g func(bfloat16.BF16) bfloat16.BF16
		if g, ok = bfloat16.Func(fn); ok {
			f = func(b uint32) uint32 { return uint32(g(bfloat16.FromBits(uint16(b))).Bits()) }
		}
	case "float16":
		var g func(float16.F16) float16.F16
		if g, ok = float16.Func(fn); ok {
			f = func(b uint32) uint32 { return uint32(g(float16.FromBits(uint16(b))).Bits()) }
		}
	case "posit16":
		var g func(posit16.P16) posit16.P16
		if g, ok = posit16.Func(fn); ok {
			f = func(b uint32) uint32 { return uint32(g(posit16.FromBits(uint16(b))).Bits()) }
		}
	}
	if !ok {
		return nil, fmt.Errorf("no %s function %q", r.name, fn)
	}
	return f, nil
}

// expected computes the reference outputs of (r, fn) over in.
func expected(r repr, fn string, in []uint32) ([]uint32, error) {
	f, err := scalarFunc(r, fn)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, len(in))
	for i, b := range in {
		out[i] = f(b)
	}
	return out, nil
}

// logUniformWidths returns k batch widths log-uniform over [1, maxW],
// stratified: one draw in each of k equal slices of log-width, so every
// seed covers the whole range and only the draws within a slice vary.
func logUniformWidths(rng *rand.Rand, k, maxW int) []int {
	out := make([]int, k)
	lmax := math.Log(float64(maxW) + 1)
	for i := range out {
		w := int(math.Exp(lmax * (float64(i) + rng.Float64()) / float64(k)))
		out[i] = max(1, min(maxW, w))
	}
	return out
}

// poissonSchedule returns the due offsets of an open loop's requests at
// rate per second over dur: exponential gaps, so arrivals are a seeded
// Poisson process.
func poissonSchedule(rng *rand.Rand, rate, durS float64) []float64 {
	var out []float64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= durS {
			return out
		}
		out = append(out, t)
	}
}
