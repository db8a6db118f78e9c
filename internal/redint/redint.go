// Package redint implements Algorithm 2 of the paper: deducing reduced
// rounding intervals when output compensation involves one or more
// elementary functions.
//
// Given the correctly rounded double values v_i of the reduced
// functions f_i(r), the rounding interval [l, h] of the original input
// x, and the (monotonic) output compensation OC evaluated in double
// precision, Deduce widens the singleton intervals [v_i, v_i]
// simultaneously downward and then upward — exactly the loops of lines
// 11-20 — stopping when OC leaves [l, h]. The paper notes the loops
// "can be efficiently implemented by performing binary search". A
// monotonic OC makes the membership predicate monotone in the number
// of representable-value steps, so each loop has a unique answer: the
// last step count inside the target. This implementation finds it
// from a secant estimate of where OC crosses the target's bound,
// gallops out from the estimate until the boundary is bracketed, and
// bisects the bracket, so the evaluations are spent near the answer
// rather than walking out to it from one step.
package redint

import (
	"math"

	"rlibm32/internal/fp"
	"rlibm32/internal/interval"
)

// OC evaluates output compensation in double precision, given candidate
// values for each reduced elementary function f_i(r) (vals[i] for i < n,
// as in rangered.Family.OC). The range reduction context (tables,
// exponents, signs) is captured by the closure. OC must be monotonic:
// either non-decreasing in every argument or non-increasing in every
// argument.
type OC func(vals [2]float64) float64

// maxSteps bounds the widening search; 2^62 covers the entire double
// range.
const maxSteps = int64(1) << 62

// secantSteps caps the secant refinements of one widening. The first
// slope is quantised to whole ulps of OC and can be off by 2x; the
// second is measured across most of the interval and lands within a
// few steps (or one stair) of the boundary; the third tightens the
// bracket around it. Anything left is galloped.
const secantSteps = 3

// probeGrowth is the factor between successive probes while looking for
// the first step count that moves OC.
const probeGrowth = 16

// Deduce computes the reduced intervals [lo_i, hi_i] for the first n
// (1 or 2) reduced functions f_i(r) such that any combination of
// polynomial outputs within them keeps OC inside target. vals holds the
// correctly rounded double values v_i = RN_H(f_i(r)). center returns
// the (possibly recentred) starting values, which the polynomial
// generator uses as the preferred target inside each interval. ok is
// false when even the exact values fail (line 8: the range reduction
// must be redesigned or H is too narrow). Entries i >= n of the results
// are zero.
func Deduce(vals [2]float64, n int, oc OC, target interval.Interval) (lo, hi, center [2]float64, ok bool) {
	s := &search{vals: vals, n: n, oc: oc}
	y0 := s.apply(0)
	if !target.Contains(y0) {
		// The correctly rounded double values can land a hair outside
		// the rounding interval when the true value of f_i(r) sits
		// within half a double-ulp of the target's rounding boundary
		// (observed for posit32 exp near 1, where posits carry more
		// precision than float32). The interval itself is still
		// satisfiable: shift the starting point by the smallest step
		// count that brings OC inside, then widen from there.
		k, ok := recenter(s, target)
		if !ok {
			return lo, hi, center, false
		}
		s.base = k
		y0 = s.apply(0)
	}
	down := widen(s, target, y0, -1)
	up := widen(s, target, y0, +1)
	for i := 0; i < n; i++ {
		lo[i] = fp.StepBy64(vals[i], s.base-down)
		hi[i] = fp.StepBy64(vals[i], s.base+up)
		center[i] = fp.StepBy64(vals[i], s.base)
	}
	return lo, hi, center, true
}

// search evaluates OC with every value stepped by the same count.
type search struct {
	vals [2]float64
	n    int
	base int64 // recentring offset added to every step count
	oc   OC
}

func (s *search) apply(k int64) float64 {
	var w [2]float64
	for i := 0; i < s.n; i++ {
		w[i] = fp.StepBy64(s.vals[i], s.base+k)
	}
	return s.oc(w)
}

// recenter finds a step count k with OC(vals stepped by k) inside the
// target, assuming OC is monotone in k. It searches both directions
// geometrically up to a modest budget (the legitimate cases need one
// or two steps; a large k means the range reduction is truly broken).
func recenter(s *search, target interval.Interval) (int64, bool) {
	const budget = int64(1) << 16
	inside := func(k int64) bool { return target.Contains(s.apply(k)) }
	for k := int64(1); k <= budget; k *= 2 {
		for _, dir := range [2]int64{k, -k} {
			if inside(dir) {
				// Binary search the first inside point between dir/2
				// (tested outside on the previous doubling, or 0) and
				// dir (inside); insideness is monotone on this segment
				// because OC is monotone in the step count.
				a, b := dir/2, dir
				for absDiff(a, b) > 1 {
					mid := a + (b-a)/2
					if inside(mid) {
						b = mid
					} else {
						a = mid
					}
				}
				if inside(a) {
					return a, true
				}
				return b, true
			}
		}
	}
	return 0, false
}

func absDiff(a, b int64) int64 {
	d := b - a
	if d < 0 {
		return -d
	}
	return d
}

// bracket is the state of one widening: good is the largest step count
// known to keep OC inside the target, bad the smallest known to leave
// it (maxSteps+1 until one is found). Probes always land strictly
// between them.
type bracket struct {
	s         *search
	target    interval.Interval
	dir       int64
	good, bad int64
}

func (b *bracket) try(k int64) (y float64, inside bool) {
	y = b.s.apply(b.dir * k)
	if b.target.Contains(y) {
		b.good = k
		return y, true
	}
	b.bad = k
	return y, false
}

// clamp rounds the estimate e to a step count strictly inside the
// bracket (NaN, from an infinite OC, goes to the top).
func (b *bracket) clamp(e float64) int64 {
	lo, hi := b.good+1, b.bad-1
	switch {
	case !(e < float64(hi)):
		return hi
	case e <= float64(lo):
		return lo
	}
	return int64(e)
}

// widen returns the largest k in [0, maxSteps] such that stepping every
// value by dir*k keeps OC inside target, given y0 = OC at k = 0, which
// is inside. The predicate is monotone in k (true for k implies true
// for all smaller k) because OC is monotone, so that k is unique.
func widen(s *search, target interval.Interval, y0 float64, dir int64) int64 {
	b := bracket{s: s, target: target, dir: dir, bad: maxSteps + 1}
	// Probe 1, 16, 256, ... until OC moves. Log-family OCs (A + v with
	// v ≪ A) are staircases: nothing moves until v has travelled half
	// an ulp of A, and a slope needs two distinct values.
	var kp int64
	var yp float64
	for k := int64(1); ; k = min(k, maxSteps/probeGrowth) * probeGrowth {
		y, in := b.try(k)
		if !in {
			return b.bisect()
		}
		if y != y0 {
			kp, yp = k, y
			break
		}
		if k == maxSteps {
			return maxSteps // OC never moved: the whole line is inside
		}
	}
	// Secant estimates of where OC crosses the bound it moves toward.
	// Every family's OC is affine in the values before rounding, so the
	// secant runs in the value space of the largest-magnitude value
	// (whose steps dominate OC's movement) and is converted back to a
	// step count; that keeps it exact across binade crossings, where
	// the step size changes. It is anchored at k = 0 so each slope is
	// measured over a longer run than the last and the staircase
	// quantisation fades.
	bound := target.Hi
	if yp < y0 {
		bound = target.Lo
	}
	lead := 0
	if s.n == 2 && math.Abs(s.vals[1]) > math.Abs(s.vals[0]) {
		lead = 1
	}
	v0 := fp.StepBy64(s.vals[lead], s.base)
	est := kp
	for i := 0; i < secantSteps && b.bad-b.good > 1; i++ {
		vp := fp.StepBy64(s.vals[lead], s.base+dir*kp)
		vs := v0 + (bound-y0)*((vp-v0)/(yp-y0))
		e := math.NaN()
		if vs == vs {
			e = float64(dir * fp.StepsBetween64(v0, vs))
		}
		est = b.clamp(e)
		if y, _ := b.try(est); y != y0 {
			kp, yp = est, y
		}
	}
	// Start the gallop at one stair of OC: the steps per ulp of OC over
	// the longest run measured (1 when OC moves every step).
	first := int64(1)
	ay := math.Abs(yp)
	if w := float64(kp) * ((fp.NextUp64(ay) - ay) / math.Abs(yp-y0)); w > 1 && w < float64(maxSteps) {
		first = int64(w)
	}
	if est == b.good {
		for step := first; b.bad-b.good > 1; step *= 2 {
			if step >= b.bad-est {
				if b.bad > maxSteps {
					b.try(maxSteps)
				}
				break
			}
			if _, in := b.try(est + step); !in {
				break
			}
		}
	} else {
		for step := first; step < est-b.good; step *= 2 {
			if _, in := b.try(est - step); in {
				break
			}
		}
	}
	return b.bisect()
}

// bisect closes a bracket whose bad end is known (or already adjacent).
func (b *bracket) bisect() int64 {
	for b.bad-b.good > 1 {
		b.try(b.good + (b.bad-b.good)/2)
	}
	return b.good
}
