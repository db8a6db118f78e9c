package baselines

import (
	"math"
	"math/rand"
	"testing"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/oracle"
	"rlibm32/posit32"
)

// ulpErr32 returns |got-want| in units of want's float32 ulp.
func ulpErr32(got, want float32) float64 {
	if got == want {
		return 0
	}
	if want != want || got != got {
		if (want != want) == (got != got) {
			return 0
		}
		return math.Inf(1)
	}
	u := math.Abs(float64(math.Nextafter32(want, float32(math.Inf(1)))) - float64(want))
	return math.Abs(float64(got)-float64(want)) / u
}

var funcDomains = map[string][2]float64{
	"ln": {1e-30, 1e30}, "log2": {1e-30, 1e30}, "log10": {1e-30, 1e30},
	"exp": {-80, 80}, "exp2": {-120, 120}, "exp10": {-35, 35},
	"sinh": {-80, 80}, "cosh": {-80, 80},
	"sinpi": {-1000, 1000}, "cospi": {-1000, 1000},
}

// drawInput picks a domain-appropriate random input.
func drawInput(rng *rand.Rand, name string) float32 {
	d := funcDomains[name]
	if name == "ln" || name == "log2" || name == "log10" {
		// Log-uniform positive inputs.
		return float32(math.Exp(rng.Float64()*138 - 69))
	}
	return float32(d[0] + rng.Float64()*(d[1]-d[0]))
}

// TestAccuracyClasses verifies that each baseline sits in its intended
// accuracy class relative to the oracle: FastFloat/VecFloat within a
// few float32 ulps (but not correct), StdDouble within 1 ulp, CRDouble
// exactly correct at double precision.
func TestAccuracyClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-heavy")
	}
	rng := rand.New(rand.NewSource(20))
	for name, of := range crFuncs {
		for i := 0; i < 150; i++ {
			x := drawInput(rng, name)
			want := oracle.Float32(of, float64(x))
			for _, lib := range Float32Libraries {
				f := Func32(lib, name)
				if f == nil {
					continue
				}
				got := f(x)
				e := ulpErr32(got, want)
				if lib == VecFloat && math.Abs(float64(want)) < 0.05 {
					// Single wide polynomials lose all relative accuracy
					// near the function's zeros; judge the class by
					// absolute error there (in ulps of 0.05).
					e = math.Abs(float64(got)-float64(want)) / (0.05 * 0x1p-23)
				}
				// Class limits: double-precision baselines are faithful
				// (≤1 float32 ulp after the narrowing conversion);
				// FastFloat is a few-ulp float kernel; VecFloat's single
				// wide polynomial loses many relative ulps near zeros of
				// the function, just like vectorized MetaLibm kernels.
				limit := 16.0
				switch lib {
				case StdDouble, CRDouble:
					limit = 1.0
				case VecFloat:
					limit = 512.0
				}
				if e > limit {
					t.Errorf("%s/%s(%v) = %v, want %v (%.1f ulp, limit %.0f)", lib, name, x, got, want, e, limit)
				}
			}
		}
	}
}

// TestFastFloatIsWrongSomewhere documents the failure class: the
// float-precision baselines must produce at least some incorrectly
// rounded results (that is the point of Table 1).
func TestFastFloatIsWrongSomewhere(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-heavy")
	}
	rng := rand.New(rand.NewSource(22))
	wrong := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		x := drawInput(rng, "exp")
		if expf(x) != oracle.Float32(bigfp.Exp, float64(x)) {
			wrong++
		}
	}
	if wrong == 0 {
		t.Error("FastFloat exp is suspiciously correct everywhere; Table 1 expects a wrong-result class")
	}
	if wrong > trials/2 {
		t.Errorf("FastFloat exp wrong on %d/%d inputs: broken, not just inaccurate", wrong, trials)
	}
}

func TestSpecialsAcrossLibraries(t *testing.T) {
	for _, lib := range Float32Libraries {
		if f := Func32(lib, "exp"); f != nil {
			if v := f(float32(math.Inf(1))); !math.IsInf(float64(v), 1) {
				t.Errorf("%s exp(+Inf) = %v", lib, v)
			}
			if v := f(200); !math.IsInf(float64(v), 1) {
				t.Errorf("%s exp(200) = %v", lib, v)
			}
			if v := f(-200); v != 0 {
				t.Errorf("%s exp(-200) = %v", lib, v)
			}
		}
		if f := Func32(lib, "ln"); f != nil {
			if v := f(0); !math.IsInf(float64(v), -1) {
				t.Errorf("%s ln(0) = %v", lib, v)
			}
			if v := f(-1); v == v {
				t.Errorf("%s ln(-1) = %v, want NaN", lib, v)
			}
		}
	}
}

func TestFuncPositRepurposingFailures(t *testing.T) {
	f := FuncPosit(StdDouble, "exp")
	// exp(200) is finite in double (~7e86) and saturates on the posit
	// rounding — correct by luck.
	if got := f(posit32FromF(200)); got != posit32.MaxPos {
		t.Errorf("repurposed double exp(200) = %#x, want MaxPos", got)
	}
	// exp(800) overflows double to +Inf → NaR: the paper's Table 2
	// failure class (the correct posit answer is MaxPos).
	if got := f(posit32FromF(800)); !got.IsNaR() {
		t.Errorf("repurposed double exp(800) = %#x, want NaR (double overflow)", got)
	}
	// exp(-800) underflows double to 0: the correct posit answer is
	// MinPos (posits never underflow to zero).
	if got := f(posit32FromF(-800)); !got.IsZero() {
		t.Errorf("repurposed double exp(-800) = %#x, want 0 (double underflow)", got)
	}
}

func TestBenchmarkableSpeed(t *testing.T) {
	// Smoke check that CRDouble's fast path dominates: evaluate many
	// inputs and ensure it terminates quickly (the fallback is rare).
	f := crDouble("exp")
	s := 0.0
	for i := 0; i < 20000; i++ {
		s += f(1 + float64(i)*1e-5)
	}
	if s == 0 {
		t.Fatal("unexpected zero sum")
	}
}

// posit32FromF is a test helper.
func posit32FromF(x float64) posit32.Posit { return posit32.FromFloat64(x) }
