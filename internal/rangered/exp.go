package rangered

import (
	"math"

	"rlibm32/internal/bigfp"
)

// ExpFamily covers exp, exp2 and exp10 with the classic 64-way
// table-driven additive reduction. With C = log_base(2)/64 (C = 1/64
// for exp2):
//
//	k = round(x / C),  r = x − k·C  (Cody–Waite two-constant split),
//	k = 64·m + j,      base^x = 2^m · T[j] · base^r,
//
// where T[j] = RN_double(2^(j/64)) and r ∈ [−C/2, C/2]. The single
// reduced function is base^r; the output compensation A·v with
// A = 2^m·T[j] > 0 is monotonically increasing. Reduced inputs span
// both signs, so the generator builds separate negative/positive
// piecewise tables (paper §3.3).
type ExpFamily struct {
	FName string
	F     bigfp.Func // Exp, Exp2 or Exp10: also the reduced function
	// InvC = RN(1/C); CHi + CLo is the Cody–Waite split of C, with CHi
	// carrying enough trailing zeros that k·CHi is exact for |k| ≤ 2^14.
	InvC, CHi, CLo float64
	// TTab[j] = RN_double(2^(j/64)), 64 entries.
	TTab []float64
	// Special-case cutoffs (inclusive, embedded target values), found
	// by oracle search:
	//   x >= OvfLo           → OvfResult  (+Inf, or posit MaxPos)
	//   x <= UndHi           → UndResult  (0, or posit MinPos)
	//   TinyLo <= x <= TinyHi → 1.0
	OvfLo, UndHi   float64
	OvfResult      float64
	UndResult      float64
	TinyLo, TinyHi float64
	PolyTerms      []int
}

// Name implements Family.
func (f *ExpFamily) Name() string { return f.FName }

// Fn implements Family.
func (f *ExpFamily) Fn() bigfp.Func { return f.F }

// Funcs implements Family.
func (f *ExpFamily) Funcs() []bigfp.Func { return []bigfp.Func{f.F} }

// Terms implements Family.
func (f *ExpFamily) Terms() [][]int { return [][]int{f.PolyTerms} }

// Special implements Family.
func (f *ExpFamily) Special(x float64) (float64, bool) {
	switch {
	case math.IsNaN(x):
		return math.NaN(), true
	case x >= f.OvfLo:
		return f.OvfResult, true
	case x <= f.UndHi:
		return f.UndResult, true
	case f.TinyLo <= x && x <= f.TinyHi:
		return 1.0, true
	}
	return 0, false
}

// Reduce implements Family.
func (f *ExpFamily) Reduce(x float64) (float64, Ctx) {
	k := math.Round(x * f.InvC)
	r := (x - k*f.CHi) - k*f.CLo
	ki := int(k)
	m := ki >> 6
	j := ki - (m << 6) // j = k mod 64 ∈ [0, 64)
	a := Exp2i(m) * f.TTab[j]
	return r, Ctx{A: a, S: 1}
}

// OC implements Family: base^x = A · base^r.
func (f *ExpFamily) OC(vals [2]float64, c Ctx) float64 {
	return c.A * vals[0]
}

// SampleDomains implements Family: the two bands between underflow/
// overflow cutoffs and the round-to-one band (the generator filters
// out the special-case edges via Special).
func (f *ExpFamily) SampleDomains() [][2]float64 {
	return [][2]float64{
		{f.UndHi, f.TinyLo},
		{f.TinyHi, f.OvfLo},
	}
}
