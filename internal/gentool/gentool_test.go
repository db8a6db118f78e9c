package gentool

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"rlibm32/internal/oracle"
	"rlibm32/internal/rangered"
	"rlibm32/internal/telemetry"
)

func TestSampleOrdinalsProperties(t *testing.T) {
	fam, err := rangered.Build("exp", rangered.VFloat32)
	if err != nil {
		t.Fatal(err)
	}
	tgt := rangered.VFloat32.Target()
	xs := sampleOrdinals(tgt, fam, 5000, 64, 0)
	if len(xs) < 5000 {
		t.Fatalf("sample too small: %d", len(xs))
	}
	if !sort.Float64sAreSorted(xs) {
		t.Fatal("sample not sorted")
	}
	seen := map[float64]struct{}{}
	for _, x := range xs {
		if _, dup := seen[x]; dup {
			t.Fatalf("duplicate sample %v", x)
		}
		seen[x] = struct{}{}
		if _, sp := fam.Special(x); sp {
			t.Fatalf("special-case input %v sampled", x)
		}
		if !inDomains(fam, x) {
			t.Fatalf("sample %v outside domains", x)
		}
		if float64(float32(x)) != x {
			t.Fatalf("sample %v is not an exact float32 embedding", x)
		}
	}
	// Phase shift moves the stride lattice (the boundary windows are
	// deliberately identical in both phases, so only partial
	// independence is expected).
	ys := sampleOrdinals(tgt, fam, 5000, 64, 1)
	common := 0
	for _, y := range ys {
		if _, ok := seen[y]; ok {
			common++
		}
	}
	if fresh := len(ys) - common; fresh < len(ys)/5 {
		t.Errorf("validation lattice brings too few fresh points: %d/%d", fresh, len(ys))
	}
}

func TestSampleIncludesPowerOfTwoWindows(t *testing.T) {
	fam, err := rangered.Build("ln", rangered.VFloat32)
	if err != nil {
		t.Fatal(err)
	}
	tgt := rangered.VFloat32.Target()
	xs := sampleOrdinals(tgt, fam, 10000, 32, 0)
	// Every float32 within 32 ulps of 1.0 must be present (the log
	// family's hardest region).
	want := map[float64]bool{}
	x := float32(1.0)
	for i := 0; i < 32; i++ {
		want[float64(x)] = false
		x = math.Nextafter32(x, 2)
	}
	for _, v := range xs {
		if _, ok := want[v]; ok {
			want[v] = true
		}
	}
	for v, ok := range want {
		if !ok {
			t.Errorf("hard-point window missing %v", v)
		}
	}
}

func TestExtraInputsFiltered(t *testing.T) {
	cfg := Config{
		Variant:       rangered.VFloat32,
		InputsPerFunc: 300,
		ExtraInputs:   []float64{math.NaN(), math.Inf(1), 1e40, 0.5, 200 /*special: overflow*/},
	}
	_ = cfg // construction-only sanity; full GenerateFunc is oracle-heavy
	fam, err := rangered.Build("exp", rangered.VFloat32)
	if err != nil {
		t.Fatal(err)
	}
	if !inDomains(fam, 0.5) {
		t.Error("0.5 should be inside exp's domains")
	}
	if inDomains(fam, 200) {
		t.Error("200 should be outside exp's polynomial domains")
	}
}

// TestGenerateOracleCounters checks the oracle attribution of one
// cold-cache generation: the oracle.constraints span splits the
// uncached evaluations into tier0 and ziv_runs (ladder runs only, not
// every cache miss), and Stats carries the function's totals.
func TestGenerateOracleCounters(t *testing.T) {
	oracle.ResetCache()
	defer oracle.ResetCache()
	tr := telemetry.NewTrace(0)
	res, err := GenerateFunc("exp", Config{Variant: rangered.VPosit32, InputsPerFunc: 400, ValidatePerFunc: 400, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	// Unmarshal skips args that are not numbers (the refeed flag).
	json.Unmarshal(buf.Bytes(), &doc)
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name != "oracle.constraints" || ev.Args["inputs"] == 0 {
			continue
		}
		found = true
		inputs := int64(ev.Args["inputs"])
		tier0, ziv := int64(ev.Args["tier0"]), int64(ev.Args["ziv_runs"])
		t.Logf("oracle.constraints over %d inputs: tier0 %d, ziv_runs %d", inputs, tier0, ziv)
		// Each input queries posit32 exp and the float64 reduced
		// function once, and tier 0 decides almost all of both (the
		// posit32 guard band and the double-double evaluator).
		if tier0+ziv > 2*inputs || tier0 < 2*inputs-inputs/8 || ziv > inputs/64 {
			t.Error("tier0/ziv_runs split does not match one posit32 and one float64 query per input, both mostly decided by tier 0")
		}
		if st := res.Stats; st.OracleTier0 < uint64(tier0) || st.OracleZivRuns < uint64(ziv) {
			t.Errorf("Stats tier0 %d / ziv runs %d below the first pass's %d / %d",
				st.OracleTier0, st.OracleZivRuns, tier0, ziv)
		}
		break
	}
	if !found {
		t.Fatal("no oracle.constraints span with inputs")
	}
}
