// Runtime batch-kernel telemetry.
//
// The library itself stays silent by default: the only cost a
// non-observed process pays is one atomic pointer load per EvalSlice
// batch (amortized over the whole batch, not per element). Enabling
// telemetry swaps in a handle set registered on a caller-owned
// registry, so an embedding service (rlibmd does this) can expose
// per-function batch throughput next to its own series.
package rlibm32

import (
	"sync/atomic"

	"rlibm32/internal/libm"
	"rlibm32/internal/telemetry"
)

type sliceTelemetry struct {
	batches *telemetry.Counter
	values  *telemetry.Counter
	byFunc  map[string]*telemetry.Counter
	// widths is the batch-width histogram: how large the EvalSlice
	// batches actually are, which is what decides whether the fused
	// kernels' fixed per-batch costs amortize.
	widths *telemetry.Histogram
	// pathByFunc counts batches by the kernel kind serving them
	// (simd/go/scalar) — the runtime answer to "is this deployment on
	// the vector path or a fallback?". The
	// kind is resolved per function once at enable time; functions with
	// the same kind share a counter.
	pathByFunc map[string]*telemetry.Counter
}

var sliceTel atomic.Pointer[sliceTelemetry]

// EnableTelemetry starts counting EvalSlice traffic (batches, values,
// per-function values) on reg. Passing nil disables telemetry again,
// as does DisableTelemetry. Safe to call concurrently with EvalSlice.
func EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		sliceTel.Store(nil)
		return
	}
	t := &sliceTelemetry{
		batches: reg.Counter("rlibm_evalslice_batches_total",
			"EvalSlice batch calls"),
		values: reg.Counter("rlibm_evalslice_values_total",
			"values evaluated through EvalSlice"),
		byFunc: make(map[string]*telemetry.Counter),
		widths: reg.Histogram("rlibm_evalslice_batch_width",
			"EvalSlice batch widths (values per call)"),
		pathByFunc: make(map[string]*telemetry.Counter),
	}
	for _, name := range Names() {
		t.byFunc[name] = reg.Counter("rlibm_evalslice_func_values_total",
			"values evaluated through EvalSlice per function", "func", name)
		t.pathByFunc[name] = reg.Counter("rlibm_kernel_path_batches_total",
			"EvalSlice batches by serving kernel kind", "path", libm.KernelKind32(name))
	}
	sliceTel.Store(t)
}

// DisableTelemetry restores the default silent mode.
func DisableTelemetry() { sliceTel.Store(nil) }

// KernelPath reports the batch polynomial path the runtime serves and
// why. There is one: "exact", the generator-validated Horner sequence
// the correctness proof covers, so the reason is always "validated".
func KernelPath() (path, reason string) { return "exact", "validated" }

// KernelKind reports which batch kernel EvalSlice runs for the named
// function: "simd" (AVX2 vector kernel), "go" (pure-Go fused kernel),
// or "scalar" (a loop over the scalar evaluator, the fallback for a
// table shape no fused kernel covers). Empty for unknown names.
func KernelKind(name string) string { return libm.KernelKind32(name) }
