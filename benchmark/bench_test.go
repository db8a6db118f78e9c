package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"rlibm32/internal/telemetry"
)

// benchmarkJSON is the part of BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func namesOf(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprogram prints:\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprogram prints:\n%v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := sortedKeys(workloads); !reflect.DeepEqual(names, want) {
		t.Errorf("workloads in BENCHMARK.json %v, program runs %v", names, want)
	}
}

// kernelInputs is everything a kernel pass feeds the library.
func kernelInputs(t *testing.T, seed int64) [][]uint32 {
	t.Helper()
	st, err := buildKernel(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]uint32
	for _, c := range st.calls {
		out = append(out, append([]uint32{uint32(c.r), uint32(c.f)}, c.in...))
	}
	return out
}

func requestInputs(reqs []request) [][]uint32 {
	var out [][]uint32
	for _, q := range reqs {
		out = append(out, append([]uint32{uint32(q.r.code), uint32(len(q.fn))}, q.in...))
	}
	return out
}

func TestSeedsDetermineInputsSchedulesAndMixes(t *testing.T) {
	draws := map[string]func(seed int64) any{
		"kernel calls": func(seed int64) any { return kernelInputs(t, seed) },
		"serve-bulk mix": func(seed int64) any {
			reqs, err := bulkRequests(seed)
			if err != nil {
				t.Fatal(err)
			}
			return requestInputs(reqs)
		},
		"fleet-rpc mix": func(seed int64) any {
			reqs, err := fleetRequests(seed)
			if err != nil {
				t.Fatal(err)
			}
			return requestInputs(reqs)
		},
		"open-loop schedule": func(seed int64) any { return poissonSchedule(newRNG(seed, 8), fleetRefRate, 1) },
		"generation inputs": func(seed int64) any {
			st, _, err := buildGenerate(seed)
			if err != nil {
				t.Fatal(err)
			}
			return st.extras
		},
	}
	for name, draw := range draws {
		a, b, c := draw(1), draw(1), draw(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 drew different inputs on two calls", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 drew the same inputs", name)
		}
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	sched := poissonSchedule(newRNG(3, 8), 2000, 5)
	if n := len(sched); n < 9500 || n > 10500 {
		t.Fatalf("2000/s over 5 s gave %d arrivals", n)
	}
	if !sort.Float64sAreSorted(sched) {
		t.Fatal("schedule not in due order")
	}
}

func TestLogUniformWidthsCoverRange(t *testing.T) {
	ws := logUniformWidths(newRNG(1, 1), callsPerPair, maxKernelWidth)
	if ws[0] > 2 || ws[len(ws)-1] < maxKernelWidth/2 {
		t.Fatalf("widths %v do not span 1..%d", ws, maxKernelWidth)
	}
	for _, w := range ws {
		if w < 1 || w > maxKernelWidth {
			t.Fatalf("width %d out of range", w)
		}
	}
}

func TestKernelCheckCatchesWrongBits(t *testing.T) {
	st, err := buildKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	st.calls[7].want[0] ^= 1
	rep := newReport()
	kernelPasses(st, time.Time{}, rep, newKernelTally(st.reprs, 0))
	if rep.failed != 1 || rep.attempted != uint64(len(st.calls)) {
		t.Fatalf("failed %d of %d, want 1 of %d", rep.failed, rep.attempted, len(st.calls))
	}
}

func flatten(ws [][]float64) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w...)
	}
	return out
}

// TestStallShowsInOpenLoopLatency stalls the generator once and checks
// that the requests due during the stall carry it in their latency,
// since latency is timed from when a request was due.
func TestStallShowsInOpenLoopLatency(t *testing.T) {
	st, _, err := buildFleet(1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.fl.close()
	const stall = 40 * time.Millisecond
	run := func(stallAt int) *stepResult {
		st.stall = func(k int) {
			if k == stallAt {
				time.Sleep(stall)
			}
		}
		return openLoopStep(st, 1000, 500*time.Millisecond, newRNG(1, 8), 0, nil)
	}
	calm, stalled := run(-1), run(100)
	for _, s := range []*stepResult{calm, stalled} {
		if len(s.failures) > 0 || s.unanswered > 0 {
			t.Fatalf("step failed: %v, %d unanswered", s.failures, s.unanswered)
		}
	}
	if max := quantile(flatten(calm.latUs), 1); max >= float64(stall.Microseconds()) {
		t.Skipf("host too noisy: calm step's slowest request took %.0f us", max)
	}
	// Requests due in the stall's first 10 ms were issued at least
	// 30 ms late.
	if got := quantile(flatten(stalled.latUs), 0.99); got < float64((stall - 10*time.Millisecond).Microseconds()) {
		t.Errorf("stalled step p99 %.0f us, want >= %v", got, stall-10*time.Millisecond)
	}
	if got := quantile(stalled.lagUs, 1); got < float64(stall.Microseconds())*3/4 {
		t.Errorf("stalled step max lag %.0f us, want about %v", got, stall)
	}
}

// TestShortRunsPass runs every workload briefly, untraced and traced,
// and checks the result line: correct, nothing failed, and exactly the
// declared metrics.
func TestShortRunsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 1, seconds: 300 * time.Millisecond, traced: traced, outDir: t.TempDir()}
			var out bytes.Buffer
			if code := execute(cfg, &out); code != 0 {
				t.Fatalf("%s traced=%v: exit %d\n%s", name, traced, code, out.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := namesOf(endToEnd)
			if traced {
				want = namesOf(perLayer)
			}
			sort.Strings(want)
			if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v printed %v, want %v", name, traced, got, want)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; ok && !traced && m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestFailureExitsNonZero(t *testing.T) {
	workloads["broken"] = func(cfg runConfig, rep *report) error {
		for _, d := range endToEnd {
			rep.set(d.Name, 1, 1)
		}
		rep.attempted = 2
		rep.fail("injected wrong bit")
		return nil
	}
	defer delete(workloads, "broken")
	var out bytes.Buffer
	if code := execute(runConfig{workload: "broken", seconds: time.Second}, &out); code == 0 {
		t.Fatal("a failed operation exited 0")
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Fatalf("result %+v, want correct=false failed=1 attempted=2", res)
	}
}

type spanRec = telemetry.SpanRecord

func spanAt(start, end int64) spanRec { return spanRec{Start: start, Dur: end - start} }

func TestCoveredNs(t *testing.T) {
	parent := spanAt(0, 100)
	got := coveredNs(parent, []spanRec{spanAt(10, 20), spanAt(15, 40), spanAt(60, 70), spanAt(90, 130)})
	if got != 30+10+10 {
		t.Fatalf("covered %d ns, want 50", got)
	}
}

func TestWindowQuantileSkipsThinWindows(t *testing.T) {
	full := make([]float64, 40)
	for i := range full {
		full[i] = 1
	}
	got, n := windowQuantile([][]float64{full, full, {100}}, 0.5)
	if got != 1 || n != 80 {
		t.Fatalf("got %v from %d samples, want 1 from 80", got, n)
	}
	if got, _ := windowQuantile([][]float64{{3}, {13}}, 0.5); got != 4 {
		t.Fatalf("thin windows only: got %v, want 4", got)
	}
}

func TestCompareWarnsOnDifferentFingerprints(t *testing.T) {
	write := func(fp fingerprint) string {
		rec := record{Workload: "kernel", Fingerprint: fp, Metrics: map[string]metric{"values_per_s": {1e7, "values/s"}}}
		line, err := json.Marshal(map[string]record{"record": rec})
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/out.txt"
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := fingerprint{Host: "h", NumCPU: 2, KernelPath: "exact"}
	b := a
	b.KernelPath = "fma"
	for _, tc := range []struct {
		b    fingerprint
		warn bool
	}{{a, false}, {b, true}} {
		var out bytes.Buffer
		if err := compareRecords(&out, write(a), write(tc.b)); err != nil {
			t.Fatal(err)
		}
		if got := bytes.Contains(out.Bytes(), []byte("WARNING")); got != tc.warn {
			t.Errorf("kernel paths %s vs %s: warned=%v, want %v\n%s", a.KernelPath, tc.b.KernelPath, got, tc.warn, out.String())
		}
	}
}
