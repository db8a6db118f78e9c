package libm

// Exported kernel introspection for the parity tests, the roofline
// harness and telemetry. Everything here is cheap plumbing over
// kernel.go; the hot paths never go through it.

// Kernel32 builds the float32 batch kernel EvalSlice serves for the
// named function and reports its kind: "simd" for the AVX2 vector
// kernel, "go" for the pure-Go fused kernel, "scalar" for the loop
// over the scalar evaluator that an unmatched table shape falls back
// to (no shipped function does), "" with a nil kernel for an unknown
// name. The parity sweep drives the kernel against the scalar path.
func Kernel32(name string) (func(dst, xs []float32), string) {
	for _, f := range float32Impls {
		if f.name == name {
			return fusedSlice32(f)
		}
	}
	return nil, ""
}

// KernelKind32 reports the kind of the float32 batch kernel serving
// name (see Kernel32). Telemetry labels batches with it and the
// roofline harness prints it.
func KernelKind32(name string) string {
	_, kind := Kernel32(name)
	return kind
}

// Kernel64 is Kernel32 over exact float64 embeddings for any generated
// variant (posit32 and the 16-bit table sets). ok is false when the
// function is unknown or its table shape has no fused kernel.
func Kernel64(variant, name string) (k func(dst, xs []float64), ok bool) {
	for _, f := range implsFor(variant) {
		if f.name == name {
			k = fusedSlice[float64](f)
			return k, k != nil
		}
	}
	return nil, false
}

// ScalarFunc64 returns the compiled scalar double-precision evaluator
// for any variant's function: the parity reference.
func ScalarFunc64(variant, name string) (func(float64) float64, bool) {
	return Lookup(variant, name)
}
