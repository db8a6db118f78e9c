// Filter-tier references: thin delegation to the oracle's tier-0
// double-precision evaluators (internal/oracle/ref.go), which were
// promoted out of this package so the generation-time oracle can use
// the same guard-band fast path the exhaustive sweep does.
package exhaust

import (
	"math"

	"rlibm32/internal/checks"
	"rlibm32/internal/oracle"
)

// Ref64 returns the double-precision reference evaluator for the named
// library function, or false if the name is unknown. See oracle.Ref64
// for the accuracy and NaN contracts; the sweep's fast path leans on
// both.
func Ref64(name string) (func(float64) float64, bool) {
	f, ok := checks.OracleFunc[name]
	if !ok {
		return nil, false
	}
	return oracle.Ref64(f)
}

// pieceKey returns the key naming the monotone piece of the named
// function that holds x. sinpi is monotone on [k-1/2, k+1/2] and cospi
// on [k, k+1] for every integer k; every other function (cosh included)
// is monotone on each sign of x, so its key is a constant and the sign,
// which the sweep compares for all functions (engine.pieceOf), does the
// work. Along the sweep order (positive patterns ascending, then
// negative ones ascending by value) the sign of x and the key are both
// non-decreasing, so two inputs with equal sign and key bound a stretch
// of the sweep that lies in one piece. float64(x) + 0.5 is exact for
// every float32 x with 2^-30 <= |x| < 2^52; below that range it rounds
// to a value with the same floor, above it x is an even integer and the
// sum rounds back to x, so sinpi's key is always the true floor(x+1/2).
func pieceKey(name string) func(float64) float64 {
	switch name {
	case "sinpi":
		return func(x float64) float64 { return math.Floor(x + 0.5) }
	case "cospi":
		return math.Floor
	}
	return func(float64) float64 { return 0 }
}
