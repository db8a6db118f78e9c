//go:build !amd64

package libm

import (
	"rlibm32/internal/piecewise"
	"rlibm32/internal/rangered"
)

// simdAVX2 reports vector-kernel hardware support; only amd64 has an
// implementation today.
const simdAVX2 = false

// simdExpSlice has no implementation on this architecture; the caller
// keeps the pure-Go kernel.
func simdExpSlice(*rangered.ExpFamily, []float64, func(float64) float64, func(dst, xs []float32)) func(dst, xs []float32) {
	return nil
}

// simdLogSlice has no implementation on this architecture; the caller
// keeps the pure-Go kernel.
func simdLogSlice(*rangered.LogFamily, *piecewise.Prepared, func(float64) float64, func(dst, xs []float32)) func(dst, xs []float32) {
	return nil
}
