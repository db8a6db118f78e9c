package perf

import (
	"testing"

	rlibm "rlibm32"
)

// TestMeasureRooflineRows runs the harness at a tiny size and checks
// its gate: every float32 function gets exactly one row, in Names()
// order, served by a fused kernel that agrees with the scalar
// evaluator bit for bit.
func TestMeasureRooflineRows(t *testing.T) {
	rl := MeasureRoofline(64, 1)
	names := rlibm.Names()
	if len(rl.Rows) != len(names) {
		t.Fatalf("%d rows, want %d (one per function)", len(rl.Rows), len(names))
	}
	for i, r := range rl.Rows {
		if r.Func != names[i] {
			t.Errorf("row %d is %q, want %q", i, r.Func, names[i])
		}
		if !r.ParityOK {
			t.Errorf("%s: parity gate failed", r.Func)
		}
		if r.Kind != "simd" && r.Kind != "go" {
			t.Errorf("%s: kind %q, want simd or go", r.Func, r.Kind)
		}
	}
}
