package main

import (
	"fmt"
	"math"
	"time"
	"unsafe"

	rlibm "rlibm32"
	"rlibm32/bfloat16"
	"rlibm32/float16"
	"rlibm32/internal/telemetry"
	"rlibm32/posit16"
	"rlibm32/posit32"
	"rlibm32/posit32/positmath"
)

// callsPerPair is how many kernel calls each (representation, function)
// pair gets in one pass; their widths cover 1..maxKernelWidth
// log-uniformly (stratified), so a pass holds ~46*32 calls and ~0.7M
// values whatever the seed.
const (
	callsPerPair   = 32
	maxKernelWidth = 4096
)

// kernelCall is one timed library call over a seeded batch.
type kernelCall struct {
	r, f  int // representation index, function index within it
	n     int
	in    []uint32
	want  []uint32
	run   func() error
	check func() int // index of the first wrong output, or -1
}

type kernelState struct {
	reprs []repr
	calls []kernelCall
}

// buildKernel draws the calls of one pass, computes their expected
// outputs with the scalar library, and shuffles them so
// representations and functions interleave.
func buildKernel(seed int64) (*kernelState, error) {
	st := &kernelState{reprs: representations()}
	rng := newRNG(seed, 1)
	// One result buffer per element type, shared by every call: the
	// check reads it right after the call.
	var (
		dst32 = make([]float32, maxKernelWidth)
		dstP  = make([]posit32.Posit, maxKernelWidth)
		dstB  = make([]bfloat16.BF16, maxKernelWidth)
		dstF  = make([]float16.F16, maxKernelWidth)
		dstP6 = make([]posit16.P16, maxKernelWidth)
	)
	for ri, r := range st.reprs {
		for fi, fn := range r.funcs {
			for _, w := range logUniformWidths(rng, callsPerPair, maxKernelWidth) {
				in := drawBits(rng, r, fn, w)
				want, err := expected(r, fn, in)
				if err != nil {
					return nil, err
				}
				c := kernelCall{r: ri, f: fi, n: w, in: in, want: want}
				if err := bindKernel(&c, r.name, fn, dst32, dstP, dstB, dstF, dstP6); err != nil {
					return nil, err
				}
				st.calls = append(st.calls, c)
			}
		}
	}
	rng.Shuffle(len(st.calls), func(i, j int) { st.calls[i], st.calls[j] = st.calls[j], st.calls[i] })
	return st, nil
}

// bindKernel sets c.run to the public batch entry point of the
// representation (EvalSlice for float32 and posit32, the scalar Func
// over the batch for the 16-bit types) and c.check to its bit-exact
// comparison against c.want.
func bindKernel(c *kernelCall, reprName, fn string, dst32 []float32, dstP []posit32.Posit,
	dstB []bfloat16.BF16, dstF []float16.F16, dstP6 []posit16.P16) error {
	n, want := c.n, c.want
	firstBad := func(got func(i int) uint32) int {
		for i := 0; i < n; i++ {
			if got(i) != want[i] {
				return i
			}
		}
		return -1
	}
	switch reprName {
	case "float32":
		xs := unsafe.Slice((*float32)(unsafe.Pointer(&c.in[0])), n)
		dst := dst32[:n]
		c.run = func() error { return rlibm.EvalSlice(fn, dst, xs) }
		c.check = func() int { return firstBad(func(i int) uint32 { return math.Float32bits(dst[i]) }) }
	case "posit32":
		ps := unsafe.Slice((*posit32.Posit)(unsafe.Pointer(&c.in[0])), n)
		dst := dstP[:n]
		c.run = func() error { return positmath.EvalSlice(fn, dst, ps) }
		c.check = func() int { return firstBad(func(i int) uint32 { return uint32(dst[i]) }) }
	case "bfloat16":
		f, ok := bfloat16.Func(fn)
		if !ok {
			return fmt.Errorf("no bfloat16 function %q", fn)
		}
		xs := make([]bfloat16.BF16, n)
		for i, b := range c.in {
			xs[i] = bfloat16.FromBits(uint16(b))
		}
		dst := dstB[:n]
		c.run = func() error {
			for i, x := range xs {
				dst[i] = f(x)
			}
			return nil
		}
		c.check = func() int { return firstBad(func(i int) uint32 { return uint32(dst[i].Bits()) }) }
	case "float16":
		f, ok := float16.Func(fn)
		if !ok {
			return fmt.Errorf("no float16 function %q", fn)
		}
		xs := make([]float16.F16, n)
		for i, b := range c.in {
			xs[i] = float16.FromBits(uint16(b))
		}
		dst := dstF[:n]
		c.run = func() error {
			for i, x := range xs {
				dst[i] = f(x)
			}
			return nil
		}
		c.check = func() int { return firstBad(func(i int) uint32 { return uint32(dst[i].Bits()) }) }
	case "posit16":
		f, ok := posit16.Func(fn)
		if !ok {
			return fmt.Errorf("no posit16 function %q", fn)
		}
		xs := make([]posit16.P16, n)
		for i, b := range c.in {
			xs[i] = posit16.FromBits(uint16(b))
		}
		dst := dstP6[:n]
		c.run = func() error {
			for i, x := range xs {
				dst[i] = f(x)
			}
			return nil
		}
		c.check = func() int { return firstBad(func(i int) uint32 { return uint32(dst[i].Bits()) }) }
	default:
		return fmt.Errorf("unknown representation %q", reprName)
	}
	return nil
}

// kernelTally accumulates one phase of the kernel workload.
type kernelTally struct {
	passRate  []float64   // values/s of each whole pass
	reprRate  [][]float64 // per representation: values/s of each pass
	latUs     [][]float64 // per pass: every call's duration
	funcNs    [][]float64 // per (representation, function): total ns
	funcVals  [][]float64
	spans     []telemetry.StitchedSpan
	spanLimit int
}

func newKernelTally(reprs []repr, spanLimit int) *kernelTally {
	t := &kernelTally{
		reprRate: make([][]float64, len(reprs)),
		funcNs:   make([][]float64, len(reprs)),
		funcVals: make([][]float64, len(reprs)),
	}
	for i, r := range reprs {
		t.funcNs[i] = make([]float64, len(r.funcs))
		t.funcVals[i] = make([]float64, len(r.funcs))
	}
	t.spanLimit = spanLimit
	return t
}

// kernelPasses runs whole passes over st.calls until deadline (at least
// one), timing every call on its own and checking every output bit
// outside the timed interval. With spanLimit > 0 each call also leaves
// a span, up to that many.
//
// A pass's rates weight every function equally: a representation's
// rate is its functions' count over the sum of their ns/value, and the
// overall rate does the same over every (representation, function)
// pair. Which pair the seed happened to give the widest batches then
// does not move the figure.
func kernelPasses(st *kernelState, deadline time.Time, rep *report, t *kernelTally) {
	passNs := make([][]int64, len(st.reprs))
	passVals := make([][]int, len(st.reprs))
	for r, rp := range st.reprs {
		passNs[r] = make([]int64, len(rp.funcs))
		passVals[r] = make([]int, len(rp.funcs))
	}
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for r := range passNs {
			clear(passNs[r])
			clear(passVals[r])
		}
		lat := make([]float64, 0, len(st.calls))
		for ci := range st.calls {
			c := &st.calls[ci]
			rep.attempted++
			t0 := time.Now()
			err := c.run()
			d := time.Since(t0).Nanoseconds()
			if err != nil {
				rep.fail("%s %s: %v", st.reprs[c.r].name, st.reprs[c.r].funcs[c.f], err)
				continue
			}
			if bad := c.check(); bad >= 0 {
				rep.fail("%s %s(%#x): wrong bits, want %#x", st.reprs[c.r].name,
					st.reprs[c.r].funcs[c.f], c.in[bad], c.want[bad])
				continue
			}
			passNs[c.r][c.f] += d
			passVals[c.r][c.f] += c.n
			lat = append(lat, float64(d)/1e3)
			if len(t.spans) < t.spanLimit {
				t.spans = append(t.spans, telemetry.StitchedSpan{TraceID: uint64(len(t.spans) + 1),
					Span: telemetry.SpanRecord{Start: t0.UnixNano(), Dur: d,
						Proc: telemetry.ProcClient, Stage: telemetry.StageKernel}})
			}
		}
		t.latUs = append(t.latUs, lat)
		var allNsPerVal float64
		pairs := 0
		for r := range passNs {
			var reprNsPerVal float64
			for f := range passNs[r] {
				if passVals[r][f] == 0 {
					continue
				}
				nsPerVal := float64(passNs[r][f]) / float64(passVals[r][f])
				reprNsPerVal += nsPerVal
				allNsPerVal += nsPerVal
				pairs++
				t.funcNs[r][f] += float64(passNs[r][f])
				t.funcVals[r][f] += float64(passVals[r][f])
			}
			if reprNsPerVal > 0 {
				t.reprRate[r] = append(t.reprRate[r], float64(len(passNs[r]))/reprNsPerVal*1e9)
			}
		}
		if allNsPerVal > 0 {
			t.passRate = append(t.passRate, float64(pairs)/allNsPerVal*1e9)
		}
	}
}

// runKernel is the kernel workload: one goroutine calling every
// (representation, function) kernel, interleaved.
func runKernel(cfg runConfig, rep *report) error {
	st, err := measureSetup(rep, func() (*kernelState, func(), error) {
		st, err := buildKernel(cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		// Warm-up pass: page in every kernel and build lazy tables.
		warm := newReport()
		kernelPasses(st, time.Time{}, warm, newKernelTally(st.reprs, 0))
		if warm.failed > 0 {
			return nil, nil, fmt.Errorf("warm-up pass: %s", warm.failures[0])
		}
		return st, func() {}, nil
	})
	if err != nil {
		return err
	}
	start := time.Now()
	plain := newKernelTally(st.reprs, 0)
	if !cfg.traced {
		kernelPasses(st, start.Add(cfg.seconds), rep, plain)
		reportKernel(st, plain, rep)
		return nil
	}
	// Traced run: the first half is untraced, so the second half's
	// cost of recording spans shows as trace.overhead_frac.
	kernelPasses(st, start.Add(cfg.seconds/2), rep, plain)
	traced := newKernelTally(st.reprs, maxSpans)
	kernelPasses(st, start.Add(cfg.seconds), rep, traced)
	reportKernel(st, traced, rep)
	for ri, r := range st.reprs {
		var sum, vals float64
		for fi, fn := range r.funcs {
			nsPerVal := traced.funcNs[ri][fi] / traced.funcVals[ri][fi]
			sum += nsPerVal
			vals += traced.funcVals[ri][fi]
			if r.name == "float32" || r.name == "posit32" {
				rep.set("libm."+r.name+"."+fn+".ns_per_value", nsPerVal, int(traced.funcVals[ri][fi]))
			}
		}
		rep.set("libm."+r.name+".ns_per_value", sum/float64(len(r.funcs)), int(vals))
	}
	rep.set("trace.overhead_frac", overhead(quietRate(plain.passRate), quietRate(traced.passRate)), len(traced.passRate))
	return writeStitched(cfg, traced.spans)
}

func reportKernel(st *kernelState, t *kernelTally, rep *report) {
	rep.set("values_per_s", quietRate(t.passRate), len(t.passRate))
	p50, n := windowQuantile(t.latUs, 0.50)
	p99, _ := windowQuantile(t.latUs, 0.99)
	rep.set("lat_p50_us", p50, n)
	rep.set("lat_p99_us", p99, n)
	for ri, r := range st.reprs {
		rep.set("values_per_s."+r.name, quietRate(t.reprRate[ri]), len(t.reprRate[ri]))
	}
}

// overhead is the share of the untraced rate the traced run lost.
func overhead(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (untraced - traced) / untraced
}
