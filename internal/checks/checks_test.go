package checks

import (
	"math"
	"testing"

	"rlibm32/internal/oracle"

	rlibm "rlibm32"
)

func TestSampleFloat32Properties(t *testing.T) {
	xs := SampleFloat32(50000)
	if len(xs) < 50000 {
		t.Fatalf("sample too small: %d", len(xs))
	}
	// Dedup by bit pattern: -0 and +0 are distinct inputs (the ordinal
	// mapping keeps them one rank apart) but compare equal as floats.
	seenBits := map[uint32]struct{}{}
	seen := map[float32]struct{}{}
	negatives, positives := 0, 0
	for _, x := range xs {
		if x != x {
			t.Fatal("NaN in sample")
		}
		if _, dup := seenBits[math.Float32bits(x)]; dup {
			t.Fatalf("duplicate %v (bits %#08x)", x, math.Float32bits(x))
		}
		seenBits[math.Float32bits(x)] = struct{}{}
		seen[x] = struct{}{}
		if x < 0 {
			negatives++
		} else {
			positives++
		}
	}
	// Representation-proportional: both signs well represented.
	if negatives < len(xs)/3 || positives < len(xs)/3 {
		t.Errorf("sign imbalance: %d negative, %d positive", negatives, positives)
	}
	// Boundary windows: all neighbours of 1.0 present.
	one := float32(1)
	for i := 0; i < 8; i++ {
		if _, ok := seen[one]; !ok {
			t.Errorf("missing boundary window value %v", one)
		}
		one = math.Nextafter32(one, 2)
	}
	// Subnormals and huge values present.
	var hasSub, hasHuge bool
	for x := range seen {
		ax := x
		if ax < 0 {
			ax = -ax
		}
		if ax > 0 && ax < 0x1p-126 {
			hasSub = true
		}
		if ax > 0x1p100 {
			hasHuge = true
		}
	}
	if !hasSub || !hasHuge {
		t.Error("sample must span subnormals and huge values")
	}
}

func TestSamplePosit32Properties(t *testing.T) {
	ps := SamplePosit32(50000)
	if len(ps) < 40000 {
		t.Fatalf("sample too small: %d", len(ps))
	}
	for _, p := range ps {
		if p.IsNaR() {
			t.Fatal("NaR in sample")
		}
	}
}

func TestCheckFloat32MultiAgreesWithSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-heavy")
	}
	xs := SampleFloat32(3000)
	libs := []string{"rlibm", "fastfloat"}
	multi := CheckFloat32Multi(libs, "exp", xs)
	for i, lib := range libs {
		single := CheckFloat32(lib, "exp", xs)
		if multi[i].Wrong != single.Wrong {
			t.Errorf("%s: multi=%d single=%d", lib, multi[i].Wrong, single.Wrong)
		}
	}
}

func TestResultCorrect(t *testing.T) {
	if !(Result{Wrong: 0}).Correct() || (Result{Wrong: 1}).Correct() {
		t.Error("Correct() misreports")
	}
}

// withBrokenImpl installs a synthetic library that copies rlibm exp but
// returns garbage on the given inputs, and undoes it on cleanup.
func withBrokenImpl(t *testing.T, badInputs ...float32) {
	t.Helper()
	good, _ := rlibm.Func("exp")
	bad := make(map[float32]struct{}, len(badInputs))
	for _, x := range badInputs {
		bad[x] = struct{}{}
	}
	implOverride = func(lib, name string) func(float32) float32 {
		if lib != "broken" {
			return nil
		}
		return func(x float32) float32 {
			if _, hit := bad[x]; hit {
				return 42.5
			}
			return good(x)
		}
	}
	t.Cleanup(func() { implOverride = nil })
}

// TestExampleAtZeroReported is the regression test for the Example==0
// sentinel bug: a wrong result at input 0 must be counted AND reported
// as the example (the old accumulator silently dropped it).
func TestExampleAtZeroReported(t *testing.T) {
	withBrokenImpl(t, 0)
	xs := []float32{5, 3, 0, 7}
	res := CheckFloat32("broken", "exp", xs)
	if res.Wrong != 1 {
		t.Fatalf("Wrong = %d, want 1", res.Wrong)
	}
	if res.Example != 0 {
		t.Errorf("Example = %v, want 0", res.Example)
	}
}

// TestExampleLowestOrdinal checks the deterministic-example contract:
// the reported example is the lowest-ordinal wrong input (the most
// negative one), independent of worker chunking.
func TestExampleLowestOrdinal(t *testing.T) {
	withBrokenImpl(t, -3, 0, 5)
	xs := []float32{7, 5, 1, 0, -1.5, -3}
	for trial := 0; trial < 3; trial++ {
		res := CheckFloat32("broken", "exp", xs)
		if res.Wrong != 3 {
			t.Fatalf("Wrong = %d, want 3", res.Wrong)
		}
		if res.Example != -3 {
			t.Errorf("Example = %v, want -3 (lowest ordinal)", res.Example)
		}
		multi := CheckFloat32Multi([]string{"broken", "rlibm"}, "exp", xs)
		if multi[0].Example != -3 || multi[0].Wrong != 3 {
			t.Errorf("multi: Example = %v Wrong = %d, want -3/3", multi[0].Example, multi[0].Wrong)
		}
		if multi[1].Wrong != 0 {
			t.Errorf("rlibm column polluted: %+v", multi[1])
		}
	}
}

// TestOracleRunsOncePerInput is the counting-oracle acceptance test:
// a full multi-library Table 1 cell must evaluate the oracle exactly
// once per (func, input), however many library columns it checks.
func TestOracleRunsOncePerInput(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-heavy")
	}
	xs := SampleFloat32(1500)
	libs := []string{"rlibm", "fastfloat", "stddouble"}
	before := oracle.Ziv().Runs()
	CheckFloat32Multi(libs, "exp", xs)
	if got := oracle.Ziv().Runs() - before; got != uint64(len(xs)) {
		t.Fatalf("multi-library check: %d oracle evaluations for %d inputs", got, len(xs))
	}
}

// BenchmarkCheckMultiLib measures the Table 1 scenario: three library
// columns checked over one sample, one oracle pass per column (the
// EXPERIMENTS.md before/after benchmark).
func BenchmarkCheckMultiLib(b *testing.B) {
	xs := SampleFloat32(2000)[:2000]
	libs := []string{"rlibm", "fastfloat", "stddouble"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lib := range libs {
			CheckFloat32(lib, "ln", xs)
		}
	}
}
