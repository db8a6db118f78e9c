package main

import (
	"context"
	"fmt"
	"math"
	"time"

	rlibm "rlibm32"
	"rlibm32/internal/exhaust"
	"rlibm32/internal/gentool"
	"rlibm32/internal/oracle"
	"rlibm32/internal/polygen"
	"rlibm32/internal/rangered"
	"rlibm32/internal/telemetry"
	"rlibm32/posit32"
)

// genFuncs is the generated set: a piecewise-split log, an exp-family
// function, a family with two reduced functions (sinpi/cospi) and a
// posit32 exp-family function.
var genFuncs = []struct {
	variant rangered.Variant
	name    string
}{
	{rangered.VFloat32, "log2"},
	{rangered.VFloat32, "exp"},
	{rangered.VFloat32, "sinpi"},
	{rangered.VPosit32, "exp"},
}

// Generation runs at a reduced sample size plus genExtra seeded inputs
// per function; each shipped float32 function is then swept over the
// first sweepLimit inputs of the exhaustive order.
const (
	genInputs  = 8000
	genExtra   = 256
	sweepLimit = 1 << 21
	sweepShard = 16
)

type genState struct {
	extras [][]float64 // per genFuncs entry
}

// buildGenerate draws the seeded extra inputs, each rounded to its
// target representation, and sweeps one shard of every function so the
// kernels and the filter references are loaded before timing.
func buildGenerate(seed int64) (*genState, func(), error) {
	rng := newRNG(seed, 9)
	st := &genState{}
	for _, g := range genFuncs {
		reprName := "float32"
		if g.variant == rangered.VPosit32 {
			reprName = "posit32"
		}
		lo, hi, logU := domain(reprName, g.name)
		xs := make([]float64, genExtra)
		for i := range xs {
			v := lo + rng.Float64()*(hi-lo)
			if logU {
				v = math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
			}
			if reprName == "posit32" {
				xs[i] = posit32.FromFloat64(v).Float64()
			} else {
				xs[i] = float64(float32(v))
			}
		}
		st.extras = append(st.extras, xs)
	}
	for _, f := range rlibm.Names() {
		if _, err := sweep(f, 1<<sweepShard); err != nil {
			return nil, nil, err
		}
	}
	return st, func() {}, nil
}

func sweep(fn string, limit uint64) (*exhaust.Report, error) {
	r, err := exhaust.Run(context.Background(), exhaust.Config{Func: fn, Limit: limit, ShardBits: sweepShard})
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %w", fn, err)
	}
	return r, nil
}

func genConfig(i int, st *genState, tr *telemetry.Trace) gentool.Config {
	return gentool.Config{Variant: genFuncs[i].variant, InputsPerFunc: genInputs, ExtraInputs: st.extras[i], Trace: tr}
}

// genTally accumulates the rounds of one phase.
type genTally struct {
	genS        []float64   // per round: wall time of generating the set
	funcUs      [][]float64 // per round: each generated function's wall time
	sweepRate   []float64   // per round: verified inputs per second
	sweepInputs uint64
	sweepEsc    uint64
	sweepNs     float64
	validateS   float64
	outerRounds float64
	rounds      int
}

// genRound generates the set from a cold oracle cache, then sweeps every
// shipped float32 function. Every generation must end with zero
// validation mismatches and every sweep slice with zero mismatches.
func genRound(st *genState, tr *telemetry.Trace, rep *report, t *genTally) {
	oracle.ResetCache()
	start := time.Now()
	var funcUs []float64
	for i, g := range genFuncs {
		rep.attempted++
		t0 := time.Now()
		res, err := gentool.GenerateFunc(g.name, genConfig(i, st, tr))
		d := time.Since(t0)
		switch {
		case err != nil:
			rep.fail("generate %s %s: %v", g.variant, g.name, err)
		case res.Stats.Mismatches != 0:
			rep.fail("generate %s %s: %d validation mismatches", g.variant, g.name, res.Stats.Mismatches)
		default:
			funcUs = append(funcUs, float64(d.Nanoseconds())/1e3)
			t.validateS += res.Stats.ValidateTime.Seconds()
			t.outerRounds += float64(res.Stats.OuterRounds)
		}
	}
	t.genS = append(t.genS, time.Since(start).Seconds())
	t.funcUs = append(t.funcUs, funcUs)
	var inputs uint64
	var elapsed time.Duration
	for _, f := range rlibm.Names() {
		rep.attempted++
		r, err := sweep(f, sweepLimit)
		switch {
		case err != nil:
			rep.fail("%v", err)
			continue
		case !r.Complete || r.Mismatched != 0:
			rep.fail("sweep %s: %d mismatches, complete=%v", f, r.Mismatched, r.Complete)
			continue
		}
		inputs += r.Inputs
		elapsed += r.Elapsed
		t.sweepEsc += r.Escalated
	}
	t.sweepInputs += inputs
	t.sweepNs += float64(elapsed.Nanoseconds())
	if elapsed > 0 {
		t.sweepRate = append(t.sweepRate, float64(inputs)/elapsed.Seconds())
	}
	t.rounds++
}

func genPhase(st *genState, deadline time.Time, tr *telemetry.Trace, rep *report) *genTally {
	t := &genTally{}
	for t.rounds == 0 || time.Now().Before(deadline) {
		genRound(st, tr, rep, t)
	}
	rep.set("values_per_s", quietRate(t.sweepRate), len(t.sweepRate))
	rep.set("verify_inputs_per_s", quietRate(t.sweepRate), len(t.sweepRate))
	p50, n := windowQuantile(t.funcUs, 0.50)
	p99, _ := windowQuantile(t.funcUs, 0.99)
	rep.set("lat_p50_us", p50, n)
	rep.set("lat_p99_us", p99, n)
	rep.set("gen_s", median(t.genS), len(t.genS))
	return t
}

// layerRound times the generation layers on their own, each from a cold
// oracle cache: the oracle/interval half (gentool.Constraints), then
// polygen.Generate over its constraints.
func layerRound(st *genState, rep *report) error {
	var oracleS, polyS float64
	var queries, hits, esc uint64
	var subdomains, lpCalls, pivots, accepted, rejected int
	for i, g := range genFuncs {
		oracle.ResetCache()
		s0, z0 := oracle.Stats(), oracle.Ziv()
		t0 := time.Now()
		fam, cons, err := gentool.Constraints(g.name, genConfig(i, st, nil))
		if err != nil {
			return err
		}
		oracleS += time.Since(t0).Seconds()
		s1, z1 := oracle.Stats(), oracle.Ziv().Sub(z0)
		queries += s1.Hits + s1.Misses - s0.Hits - s0.Misses
		hits += s1.Hits - s0.Hits
		esc += z1.Runs() - z1.Tier0
		for j, c := range cons {
			t1 := time.Now()
			pw, ps, err := polygen.Generate(c, polygen.Config{Terms: fam.Terms()[j]})
			if err != nil {
				return fmt.Errorf("polygen %s %s: %w", g.variant, g.name, err)
			}
			polyS += time.Since(t1).Seconds()
			subdomains += pw.NumPolynomials()
			lpCalls += ps.LPCalls
			pivots += ps.Pivots
			accepted += ps.PresolveAccepted
			rejected += ps.PresolveRejected
		}
	}
	rep.set("oracle.s", oracleS, len(genFuncs))
	rep.set("oracle.queries", float64(queries), len(genFuncs))
	if queries > 0 {
		rep.set("oracle.cache_hit_frac", float64(hits)/float64(queries), int(queries))
	}
	rep.set("oracle.ziv_escalations", float64(esc), len(genFuncs))
	rep.set("polygen.s", polyS, len(genFuncs))
	rep.set("polygen.subdomains", float64(subdomains), len(genFuncs))
	rep.set("lp.calls", float64(lpCalls), len(genFuncs))
	rep.set("lp.pivots", float64(pivots), len(genFuncs))
	if accepted+rejected > 0 {
		rep.set("lp.presolve_accept_frac", float64(accepted)/float64(accepted+rejected), accepted+rejected)
	}
	return nil
}

// runGenerate is the generate workload: generation from a cold oracle
// cache, then bounded exhaustive sweeps.
func runGenerate(cfg runConfig, rep *report) error {
	st, err := measureSetup(rep, func() (*genState, func(), error) { return buildGenerate(cfg.seed) })
	if err != nil {
		return err
	}
	start := time.Now()
	if !cfg.traced {
		genPhase(st, start.Add(cfg.seconds), nil, rep)
		return nil
	}
	plain := genPhase(st, start.Add(cfg.seconds/2), nil, rep)
	if err := layerRound(st, rep); err != nil {
		return err
	}
	tr := telemetry.NewTrace(0)
	traced := genPhase(st, time.Now().Add(cfg.seconds/2), tr, rep)
	rounds := float64(traced.rounds)
	rep.set("gentool.validate_s", traced.validateS/rounds, traced.rounds)
	rep.set("gentool.outer_rounds", traced.outerRounds/rounds, traced.rounds)
	if traced.sweepInputs > 0 {
		rep.set("exhaust.ns_per_input", traced.sweepNs/float64(traced.sweepInputs), int(traced.sweepInputs))
		rep.set("exhaust.escalated_frac", float64(traced.sweepEsc)/float64(traced.sweepInputs), int(traced.sweepInputs))
	}
	rep.set("trace.overhead_frac", (median(traced.genS)-median(plain.genS))/median(plain.genS), len(traced.genS))
	// The pipeline runs in this process only, so gentool's own
	// timeline is the whole trace.
	return writeTrace(cfg, tr.WriteJSON)
}
