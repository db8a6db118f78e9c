// Command rlibmbench reproduces Figures 3 and 4: the speedup of
// RLIBM-32's functions over each baseline library, one row per
// function plus a geometric mean, and the §4.3 batch-of-1024
// throughput comparison.
//
// With -roofline it instead runs the batch-kernel roofline harness:
// per function, the scalar entry point against the batch kernel
// EvalSlice serves, next to the machine's measured memory and
// arithmetic ceilings — and a bit-exact parity gate over a mixed
// ordinary+special sweep that fails the process (exit 1) on any
// mismatch or missing kernel, which is what CI's bench-smoke job runs.
//
// Usage:
//
//	go run ./cmd/rlibmbench [-type float|posit|all] [-n inputs] [-reps R]
//	go run ./cmd/rlibmbench -roofline [-n inputs] [-reps R]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"rlibm32/internal/baselines"
	"rlibm32/internal/perf"
	"rlibm32/internal/rangered"
)

func main() {
	typ := flag.String("type", "all", "float, posit, or all")
	n := flag.Int("n", 1<<17, "input array length")
	reps := flag.Int("reps", 8, "repetitions per measurement")
	roofline := flag.Bool("roofline", false, "run the batch-kernel roofline harness (with parity gate) instead")
	flag.Parse()

	if *roofline {
		runRoofline(*n, *reps)
		return
	}

	if *typ == "float" || *typ == "all" {
		fmt.Println("Figure 3 reproduction: speedup of RLIBM-32 float32 functions")
		fmt.Printf("%-8s %10s", "f(x)", "rlibm ns")
		for _, l := range baselines.Float32Libraries {
			fmt.Printf(" %12s", l)
		}
		fmt.Println()
		geo := make(map[baselines.Library][]float64)
		for _, name := range rangered.FloatNames {
			row := fmt.Sprintf("%-8s", name)
			printed := false
			for i, lib := range baselines.Float32Libraries {
				s, ok := perf.CompareFloat32(lib, name, *n, *reps)
				if !ok {
					row += fmt.Sprintf(" %12s", "N/A")
					continue
				}
				if !printed {
					row = fmt.Sprintf("%-8s %9.1f", name, s.RlibmNs)
					for j := 0; j < i; j++ {
						row += fmt.Sprintf(" %12s", "N/A")
					}
					printed = true
				}
				row += fmt.Sprintf(" %11.2fx", s.Factor())
				geo[lib] = append(geo[lib], s.Factor())
			}
			fmt.Println(row)
		}
		fmt.Printf("%-8s %10s", "geomean", "")
		for _, lib := range baselines.Float32Libraries {
			fmt.Printf(" %11.2fx", geomean(geo[lib]))
		}
		fmt.Println()
		fmt.Println()
	}

	if *typ == "posit" || *typ == "all" {
		fmt.Println("Figure 4 reproduction: speedup of RLIBM-32 posit32 functions")
		fmt.Printf("%-8s %10s", "f(x)", "rlibm ns")
		for _, l := range baselines.Posit32Libraries {
			fmt.Printf(" %12s", l)
		}
		fmt.Println()
		geo := make(map[baselines.Library][]float64)
		for _, name := range rangered.PositNames {
			s0, ok := perf.ComparePosit(baselines.Posit32Libraries[0], name, *n, *reps)
			if !ok {
				continue
			}
			fmt.Printf("%-8s %9.1f %11.2fx", name, s0.RlibmNs, s0.Factor())
			geo[baselines.Posit32Libraries[0]] = append(geo[baselines.Posit32Libraries[0]], s0.Factor())
			for _, lib := range baselines.Posit32Libraries[1:] {
				s, ok := perf.ComparePosit(lib, name, *n, *reps)
				if !ok {
					fmt.Printf(" %12s", "N/A")
					continue
				}
				fmt.Printf(" %11.2fx", s.Factor())
				geo[lib] = append(geo[lib], s.Factor())
			}
			fmt.Println()
		}
		fmt.Printf("%-8s %10s", "geomean", "")
		for _, lib := range baselines.Posit32Libraries {
			fmt.Printf(" %11.2fx", geomean(geo[lib]))
		}
		fmt.Println()
		fmt.Println()
	}

	if *typ == "float" || *typ == "all" {
		fmt.Println("§4.3 batch kernels: scalar entry point vs EvalSlice")
		fmt.Printf("%-8s %11s %11s %10s\n", "f(x)", "scalar ns", "batch ns", "speedup")
		var factors []float64
		for _, name := range rangered.FloatNames {
			s, ok := perf.CompareBatch(name, *n, *reps)
			if !ok {
				continue
			}
			fmt.Printf("%-8s %10.1f  %10.1f  %8.2fx\n", name, s.ScalarNs, s.BatchNs, s.Factor())
			factors = append(factors, s.Factor())
		}
		fmt.Printf("%-8s %11s %11s %9.2fx\n", "geomean", "", "", geomean(factors))
	}
}

// runRoofline prints the roofline table and exits nonzero if any
// function's batch kernel disagrees with the scalar evaluator on any
// input or is missing.
func runRoofline(n, reps int) {
	rl := perf.MeasureRoofline(n, reps)
	fmt.Printf("Batch-kernel roofline (n=%d, reps=%d)\n", n, reps)
	fmt.Printf("machine: mul-add %.3f ns/op, stream %.3f ns/value\n\n", rl.MulAddNs, rl.StreamNs)
	fmt.Printf("%-8s %-6s %9s %9s %6s %9s %9s %7s %7s\n",
		"f(x)", "kind", "scalar", "selected", "flops",
		"membound", "compbound", "%roof", "parity")
	bad := false
	for _, r := range rl.Rows {
		bound := math.Max(r.MemBoundNs, r.CompBoundNs)
		pct := 100 * bound / r.SelectedNs
		parity := "ok"
		if !r.ParityOK {
			parity = "FAIL"
			bad = true
		}
		fmt.Printf("%-8s %-6s %8.2f  %8.2f  %5d  %8.2f  %8.2f  %5.1f%% %7s\n",
			r.Func, r.Kind, r.ScalarNs, r.SelectedNs,
			r.Flops, r.MemBoundNs, r.CompBoundNs, pct, parity)
	}
	fmt.Println("\nns columns are ns/value; %roof = max(membound, compbound) / selected.")
	if bad {
		fmt.Println("PARITY FAILURE: a batch kernel is missing or disagrees with the scalar evaluator")
		os.Exit(1)
	}
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}
