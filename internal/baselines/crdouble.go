package baselines

import (
	"rlibm32/internal/bigfp"
	"rlibm32/internal/oracle"
)

// CRDouble: a correctly rounded double-precision library in the style
// of CR-LIBM (Ziv's two-step strategy). It is the float64 oracle
// itself: a double-double evaluation with a proven error bound decides
// most roundings, and inputs whose value lands too close to a double
// rounding boundary fall back to the arbitrary-precision ladder.
// Rounding its double result to float32 — how the paper uses CR-LIBM
// for 32-bit comparisons — exhibits exactly CR-LIBM's double-rounding
// failures in Table 1.

// crFuncs maps the library's function names to the oracle's.
var crFuncs = map[string]bigfp.Func{
	"ln": bigfp.Log, "log2": bigfp.Log2, "log10": bigfp.Log10,
	"exp": bigfp.Exp, "exp2": bigfp.Exp2, "exp10": bigfp.Exp10,
	"sinh": bigfp.Sinh, "cosh": bigfp.Cosh,
	"sinpi": bigfp.SinPi, "cospi": bigfp.CosPi,
}

// crDouble dispatches the CRDouble implementation by name.
func crDouble(name string) func(float64) float64 {
	f, ok := crFuncs[name]
	if !ok {
		return nil
	}
	return func(x float64) float64 { return oracle.Float64(f, x) }
}
