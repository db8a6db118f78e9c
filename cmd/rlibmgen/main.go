// Command rlibmgen runs the RLIBM-32 generation pipeline and emits the
// coefficient tables consumed by the runtime library (internal/libm).
//
// Usage:
//
//	go run ./cmd/rlibmgen [-type float|posit|all] [-func name]
//	  [-inputs N] [-validate N] [-out dir] [-table]
//	  [-stats out.json] [-trace out.json]
//
// With -table it prints the Table 3 reproduction (generation time,
// reduced-input counts, piecewise polynomial counts, degree, terms)
// for the functions it generates. -stats writes the same information
// machine-readably (plus LP and oracle effort counters) as JSON, and
// -trace records a Chrome trace_event timeline of the whole run
// (CEGIS rounds, per-sub-domain LP solves, oracle passes) loadable in
// chrome://tracing or Perfetto.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"rlibm32/internal/checks"
	"rlibm32/internal/gentool"
	"rlibm32/internal/libm"
	"rlibm32/internal/rangered"
	"rlibm32/internal/telemetry"
)

func main() {
	typ := flag.String("type", "all", "float, posit, or all")
	fn := flag.String("func", "", "generate a single function (default: all of the variant)")
	inputs := flag.Int("inputs", 100000, "generation sample size per function")
	validateN := flag.Int("validate", 0, "validation sample size (default 2x inputs)")
	out := flag.String("out", "internal/libm", "output directory for generated Go files")
	table := flag.Bool("table", false, "print the Table 3 style generation report")
	statsOut := flag.String("stats", "", "write a machine-readable per-function generation summary (JSON) to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this file (open in chrome://tracing or Perfetto)")
	extra := flag.String("extra", "", "file of extra input bit patterns to constrain on (one 0x%08x float32 pattern per line, e.g. a rlibmverify -dump file)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	jobs := flag.Int("jobs", 1, "generate this many functions concurrently (output is deterministic for any value)")
	flag.Parse()

	var tr *telemetry.Trace
	if *traceOut != "" {
		tr = telemetry.NewTrace(telemetry.DefaultTraceEvents)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	var variants []rangered.Variant
	switch *typ {
	case "float":
		variants = []rangered.Variant{rangered.VFloat32}
	case "posit":
		variants = []rangered.Variant{rangered.VPosit32}
	case "bfloat16":
		variants = []rangered.Variant{rangered.VBFloat16}
	case "float16":
		variants = []rangered.Variant{rangered.VFloat16}
	case "posit16":
		variants = []rangered.Variant{rangered.VPosit16}
	case "all":
		variants = []rangered.Variant{rangered.VFloat32, rangered.VPosit32, rangered.VBFloat16, rangered.VFloat16, rangered.VPosit16}
	default:
		fmt.Fprintf(os.Stderr, "unknown -type %q\n", *typ)
		os.Exit(2)
	}

	var extraBits []uint32
	if *extra != "" {
		var err error
		extraBits, err = readExtraBits(*extra)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlibmgen: -extra: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "constraining on %d extra inputs from %s\n", len(extraBits), *extra)
	}

	var allStats []gentool.Stats
	for _, v := range variants {
		names := rangered.Names(v)
		if *fn != "" {
			names = []string{*fn}
		}
		cfg := gentool.Config{
			Variant:         v,
			InputsPerFunc:   *inputs,
			ValidatePerFunc: *validateN,
			Trace:           tr,
		}
		// Constrain on the correctness harness's own lattice too (the
		// paper constrains on every input it tests; this is the sampled
		// analogue). The 16-bit variants are exhaustive already.
		switch v {
		case rangered.VFloat32:
			for _, x := range checks.SampleFloat32(400000) {
				cfg.ExtraInputs = append(cfg.ExtraInputs, float64(x))
			}
			// Counterexamples fed back from the exhaustive sweep
			// (rlibmverify -dump): constraining on them closes the
			// paper's counterexample-guided loop at 2^32 scale.
			for _, b := range extraBits {
				if x := math.Float32frombits(b); x == x {
					cfg.ExtraInputs = append(cfg.ExtraInputs, float64(x))
				}
			}
		case rangered.VPosit32:
			for _, p := range checks.SamplePosit32(400000) {
				cfg.ExtraInputs = append(cfg.ExtraInputs, p.Float64())
			}
		}
		// Functions are independent, so -jobs > 1 generates several at
		// once. Results land in name order regardless of completion
		// order, so the emitted files are identical for any job count.
		results := make([]*gentool.Result, len(names))
		var wg sync.WaitGroup
		var logMu sync.Mutex
		var genErr error
		sem := make(chan struct{}, max(1, *jobs))
		for i, name := range names {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				t0 := time.Now()
				res, err := gentool.GenerateFunc(name, cfg)
				logMu.Lock()
				defer logMu.Unlock()
				if err != nil {
					if genErr == nil {
						genErr = fmt.Errorf("%s/%s: %w", v, name, err)
					}
					return
				}
				fmt.Fprintf(os.Stderr, "[%s] %s ok (%.1fs, %v polys, %d LP calls, %d rounds)\n",
					v, name, time.Since(t0).Seconds(), res.Stats.NumPolys, res.Stats.LPCalls, res.Stats.OuterRounds)
				results[i] = res
			}(i, name)
		}
		wg.Wait()
		if genErr != nil {
			fmt.Fprintln(os.Stderr, genErr)
			os.Exit(1)
		}
		for _, res := range results {
			allStats = append(allStats, res.Stats)
		}
		if *fn == "" {
			src := gentool.EmitGo(results, v)
			path := filepath.Join(*out, fmt.Sprintf("zgen_%s.go", v))
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d KB)\n", path, len(src)/1024)
		}
	}
	// runStats is this run's output only; allStats additionally absorbs
	// the checked-in stats of variants not regenerated below.
	runStats := append([]gentool.Stats(nil), allStats...)
	if *fn == "" {
		// Merge with the stats of variants not regenerated this run, so
		// a single-variant invocation does not clobber the others.
		regenerated := make(map[string]bool, len(variants))
		for _, v := range variants {
			regenerated[v.String()] = true
		}
		var prev []gentool.Stats
		if err := json.Unmarshal([]byte(libm.GenStatsJSON), &prev); err == nil {
			for _, s := range prev {
				if !regenerated[s.Variant] {
					allStats = append(allStats, s)
				}
			}
		}
		path := filepath.Join(*out, "zgen_stats.go")
		if err := os.WriteFile(path, []byte(gentool.EmitStats(allStats)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *statsOut != "" {
		if err := writeStatsJSON(*statsOut, runStats); err != nil {
			fmt.Fprintf(os.Stderr, "rlibmgen: -stats: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote stats %s\n", *statsOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = tr.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlibmgen: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote trace %s\n", *traceOut)
	}
	if *table {
		printStats(runStats)
	}
}

// funcStats is the -stats JSON schema: one entry per generated
// function, stable snake_case keys, durations in seconds.
type funcStats struct {
	Name             string  `json:"name"`
	Type             string  `json:"type"`
	WallSeconds      float64 `json:"wall_seconds"`
	OracleSeconds    float64 `json:"oracle_seconds"`
	PolySeconds      float64 `json:"polygen_seconds"`
	ValidateSeconds  float64 `json:"validate_seconds"`
	Inputs           int     `json:"inputs"`
	ReducedInputs    []int   `json:"reduced_inputs"`
	NumPolys         []int   `json:"num_polys"`
	Degree           []int   `json:"degree"`
	NumTerms         []int   `json:"num_terms"`
	OuterRounds      int     `json:"outer_rounds"`
	Mismatches       int     `json:"mismatches"`
	LPCalls          int     `json:"lp_calls"`
	Pivots           int     `json:"lp_pivots"`
	PresolveAccepted int     `json:"lp_presolve_accepted"`
	PresolveRejected int     `json:"lp_presolve_rejected"`
	WarmSolves       int     `json:"lp_warm_solves"`
	ColdSolves       int     `json:"lp_cold_solves"`
	OracleQueries    int     `json:"oracle_queries"`
	MaxZivPrec       uint    `json:"max_ziv_precision_bits"`
	OracleTier0      uint64  `json:"oracle_tier0"`
	OracleZivRuns    uint64  `json:"oracle_ziv_runs"`
}

// writeStatsJSON writes the machine-readable generation summary for
// this run's functions.
func writeStatsJSON(path string, all []gentool.Stats) error {
	out := make([]funcStats, 0, len(all))
	for _, s := range all {
		out = append(out, funcStats{
			Name:             s.Name,
			Type:             s.Variant,
			WallSeconds:      s.GenTime.Seconds(),
			OracleSeconds:    s.OracleTime.Seconds(),
			PolySeconds:      s.PolyTime.Seconds(),
			ValidateSeconds:  s.ValidateTime.Seconds(),
			Inputs:           s.Inputs,
			ReducedInputs:    s.ReducedInputs,
			NumPolys:         s.NumPolys,
			Degree:           s.Degree,
			NumTerms:         s.NumTerms,
			OuterRounds:      s.OuterRounds,
			Mismatches:       s.Mismatches,
			LPCalls:          s.LPCalls,
			Pivots:           s.Pivots,
			PresolveAccepted: s.PresolveAccepted,
			PresolveRejected: s.PresolveRejected,
			WarmSolves:       s.WarmSolves,
			ColdSolves:       s.ColdSolves,
			OracleQueries:    s.OracleQueries,
			MaxZivPrec:       s.MaxZivPrec,
			OracleTier0:      s.OracleTier0,
			OracleZivRuns:    s.OracleZivRuns,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readExtraBits parses a -dump style file: one float32 bit pattern per
// line in 0x%08x form, '#' comments and blank lines ignored.
func readExtraBits(path string) ([]uint32, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bits []uint32
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		b, err := strconv.ParseUint(line, 0, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", ln+1, err)
		}
		bits = append(bits, uint32(b))
	}
	return bits, nil
}

func printStats(all []gentool.Stats) {
	fmt.Println("Table 3 reproduction: generated piecewise polynomials")
	fmt.Printf("%-8s %-8s %10s %14s %12s %7s %7s\n",
		"f(x)", "type", "gen time", "reduced inp.", "# polys", "degree", "#terms")
	for _, s := range all {
		fmt.Printf("%-8s %-8s %9.1fs %14s %12s %7s %7s\n",
			s.Name, s.Variant, s.GenTime.Seconds(),
			joinInts(s.ReducedInputs), joinInts(s.NumPolys),
			joinInts(s.Degree), joinInts(s.NumTerms))
	}
}

func joinInts(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, "/")
}
