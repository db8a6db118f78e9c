// Command benchmark is the repository's end-to-end benchmark. One run
// executes one workload from a seed for a fixed time, checks every
// result bit against the in-process scalar library, and prints one JSON
// result as its last line of output:
//
//	bash benchmark/run.sh --workload kernel --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload traced and prints the per-layer metrics. README.md gives the
// workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rlibm32/internal/perf"
	"rlibm32/internal/telemetry"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *report) error{
	"kernel":     runKernel,
	"serve-bulk": runServeBulk,
	"fleet-rpc":  runFleetRPC,
	"generate":   runGenerate,
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string // where a traced run writes its stitched trace
}

// setupRepeats is how often a run builds its set-up; setup_s is the
// median, and the last build is the one measured.
const setupRepeats = 5

// maxSpans bounds the spans a traced run keeps in memory.
const maxSpans = 50000

func main() {
	workload := flag.String("workload", "", "workload to run: kernel, serve-bulk, fleet-rpc or generate")
	seed := flag.Int64("seed", 1, "seed for every input, mix and schedule")
	seconds := flag.Float64("seconds", 10, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for trace files")
	compare := flag.Bool("compare", false, "compare the records in the two files named as arguments and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two record files")
		}
		if err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	_, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("need --seconds > 0 and --trace 0 or 1")
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, outDir: *outDir}
	os.Exit(execute(cfg, os.Stdout))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// record is the line before the result: everything a later comparison
// needs to know about the run.
type record struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Warnings    []string          `json:"warnings,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Samples     map[string]int    `json:"samples"`
	Failures    []string          `json:"failures,omitempty"`
	Invalid     string            `json:"invalid,omitempty"`
	Unmeasured  map[string]string `json:"unmeasured,omitempty"`
	Details     []any             `json:"details,omitempty"`
}

// result is the last line of output: whether every result was correct,
// the operation counts, and the metrics of the run's mode.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs cfg and prints its record and result. It returns the
// process exit code: non-zero on any failure or an invalid run.
func execute(cfg runConfig, out io.Writer) int {
	fp := takeFingerprint()
	rep := newReport()
	if err := workloads[cfg.workload](cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.set("rss_mb", peakRSSMiB(), 1)
	if rep.attempted > 0 {
		rep.set("fail_frac", float64(rep.failed)/float64(rep.attempted), int(rep.attempted))
	}
	if cfg.traced {
		rl := perf.MeasureRoofline(1024, 4)
		rep.set("machine.stream_ns_per_value", rl.StreamNs, 1)
		rep.set("machine.muladd_ns", rl.MulAddNs, 1)
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	printed, err := metricsFor(rep, defs, cfg.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Traced: cfg.traced,
		Fingerprint: fp, Warnings: fp.warnings(), Metrics: map[string]metric{}, Samples: rep.samples,
		Failures: rep.failures, Invalid: rep.invalid, Details: rep.details,
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	for name, v := range rep.values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			rec.Metrics[name] = metric{Value: v, Unit: units[name]}
		}
	}
	if cfg.traced {
		rec.Unmeasured = unmeasured(rep)
	}
	for _, w := range rec.Warnings {
		fmt.Fprintln(os.Stderr, "benchmark: warning:", w)
	}
	res := result{Correct: rep.failed == 0 && rep.invalid == "", Attempted: rep.attempted,
		Failed: rep.failed, Metrics: printed}
	if rep.attempted == 0 {
		res.Correct = false
		res.Attempted = 1
		res.Failed = 1
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]record{"record": rec}); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		for _, f := range rep.failures {
			fmt.Fprintln(os.Stderr, "benchmark: failure:", f)
		}
		if rep.invalid != "" {
			fmt.Fprintln(os.Stderr, "benchmark: invalid run:", rep.invalid)
		}
		return 1
	}
	return 0
}

// unmeasured lists the per-layer metrics this workload reports as 0,
// with the reason: the layer does not run in it.
func unmeasured(rep *report) map[string]string {
	out := map[string]string{}
	for _, d := range perLayer {
		if _, ok := rep.values[d.Name]; !ok {
			out[d.Name] = "layer does not run in this workload"
		}
	}
	return out
}

// measureSetup builds a run's set-up setupRepeats times, records the
// median build time as setup_s, tears down all but the last build and
// returns it.
func measureSetup[T any](rep *report, build func() (T, func(), error)) (T, error) {
	var st T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, teardown, err := build()
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			teardown()
			// Collect the discarded build now, so peak RSS does not
			// depend on when the collector would have run.
			runtime.GC()
		}
		st = s
	}
	rep.set("setup_s", median(times), len(times))
	runtime.GC() // set-up garbage is not the timed window's
	return st, nil
}

// writeStitched writes a traced run's spans as one Chrome-trace JSON
// file (see writeTrace).
func writeStitched(cfg runConfig, spans []telemetry.StitchedSpan) error {
	return writeTrace(cfg, func(w io.Writer) error { return telemetry.WriteStitchedTrace(w, spans) })
}

// writeTrace writes a traced run's trace to
// <outDir>/traces/<workload>-seed<seed>.json.
func writeTrace(cfg runConfig, write func(io.Writer) error) error {
	dir := filepath.Join(cfg.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
