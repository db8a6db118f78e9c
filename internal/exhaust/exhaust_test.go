package exhaust

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rlibm32/internal/fp"
	"rlibm32/internal/telemetry"

	rlibm "rlibm32"
)

// corruptEvery wraps the real rlibm slice kernel for name, bumping the
// result one ulp up whenever the input's bit pattern plus offset is
// divisible by stride — a synthetic wrong library with an exactly
// predictable mismatch set.
func corruptEvery(t *testing.T, name string, stride, offset uint32) func(dst, xs []float32) {
	t.Helper()
	real32, ok := rlibm.FuncSlice(name)
	if !ok {
		t.Fatalf("no slice kernel for %s", name)
	}
	return func(dst, xs []float32) {
		real32(dst, xs)
		for i, x := range xs {
			if (math.Float32bits(x)+offset)%stride == 0 {
				dst[i] = fp.NextUp32(dst[i])
			}
		}
	}
}

// TestSweepBoundedClean sweeps the first 2^16 inputs of log2 (zero and
// the small positive denormals) and expects a clean bill: every input
// accounted for, zero mismatches, and an escalation fraction far under
// the 1% filter-effectiveness bar.
func TestSweepBoundedClean(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Func: "log2", Limit: 1 << 16, ShardBits: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Inputs != 1<<16 {
		t.Fatalf("incomplete sweep: %+v", rep)
	}
	if rep.NaNInputs+rep.Filtered+rep.Escalated+rep.Bracketed != rep.Inputs {
		t.Errorf("accounting mismatch: NaN %d + filtered %d + escalated %d + bracketed %d != %d",
			rep.NaNInputs, rep.Filtered, rep.Escalated, rep.Bracketed, rep.Inputs)
	}
	if rep.Mismatched != 0 {
		t.Errorf("expected clean region, got %d mismatches, first %+v", rep.Mismatched, rep.Mismatches[0])
	}
	if frac := rep.EscalationFraction(); frac >= 0.01 {
		t.Errorf("escalation fraction %v above the 1%% bar", frac)
	}
}

// TestMetricsExportBracketed checks that the scrape counters carry the
// sweep's accounting, bracketed inputs included.
func TestMetricsExportBracketed(t *testing.T) {
	reg := telemetry.NewRegistry()
	rep, err := Run(context.Background(), Config{
		Func: "exp", Limit: 1 << 16, ShardBits: 12, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bracketed == 0 {
		t.Fatal("exp's tiny inputs all return 1.0, yet nothing was bracketed")
	}
	lbl := []string{"func", "exp", "lib", "rlibm"}
	for name, want := range map[string]uint64{
		"rlibm_exhaust_inputs_total":     rep.Inputs,
		"rlibm_exhaust_escalated_total":  rep.Escalated,
		"rlibm_exhaust_bracketed_total":  rep.Bracketed,
		"rlibm_exhaust_mismatches_total": rep.Mismatched,
	} {
		if got := reg.Counter(name, "", lbl...).Load(); got != want {
			t.Errorf("%s = %d, report says %d", name, got, want)
		}
	}
}

// TestSweepNaNBlock sweeps a slice that crosses into the positive NaN
// block (ranks 2^31-2^23 ..) and checks NaN inputs are counted and pass
// the NaN-out contract.
func TestSweepNaNBlock(t *testing.T) {
	// Sweep indexes [0, 1<<31): ends at the top of the positive NaN
	// block. Too big for a unit test — instead inject a pass-through
	// kernel and bound tightly by sweeping with a limit that lands in
	// NaN land via a custom engine below. Cheaper: directly exercise
	// sweepShard on a shard known to contain NaNs.
	e, err := newEngine(Config{Func: "exp", ShardBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Rank of the first positive NaN (+Inf bits 0x7F800000, then NaNs):
	// sweep index = OrdBits32(0x7F800001) - 1<<31.
	idx := uint64(fp.OrdBits32(0x7F800001)) - 1<<31
	s := idx >> e.shardBits
	acc := e.sweepShard(context.Background(), s)
	if acc == nil {
		t.Fatal("sweepShard canceled without cancellation")
	}
	if acc.nan == 0 {
		t.Fatalf("shard %d should contain NaN inputs", s)
	}
	if acc.mismatched != 0 {
		t.Errorf("NaN-in/NaN-out violated: %+v", acc.mismatches)
	}
}

// TestSweepRefutesCorruptLibrary checks the sweep pinpoints exactly the
// inputs a deliberately wrong library corrupts.
func TestSweepRefutesCorruptLibrary(t *testing.T) {
	const stride = 251
	const limit = 1 << 14
	rep, err := Run(context.Background(), Config{
		Func: "log2", Limit: limit, ShardBits: 10,
		sliceOverride: corruptEvery(t, "log2", stride, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0)
	for b := uint64(0); b < limit; b += stride {
		want++
	}
	if rep.Mismatched != want {
		t.Fatalf("mismatched = %d, want %d", rep.Mismatched, want)
	}
	for i, m := range rep.Mismatches {
		if m.Bits%stride != 0 {
			t.Errorf("mismatch %d at bits %#08x not on the corruption stride", i, m.Bits)
		}
		if m.Got == m.Want {
			t.Errorf("mismatch %d records got == want (%#08x)", i, m.Got)
		}
	}
	// The log must be ordinal-sorted.
	for i := 1; i < len(rep.Mismatches); i++ {
		if fp.OrdBits32(rep.Mismatches[i-1].Bits) >= fp.OrdBits32(rep.Mismatches[i].Bits) {
			t.Fatalf("mismatch log not sorted at %d", i)
		}
	}
	// Shared Result accounting: lowest-ordinal example is bits 0 (+0).
	res := rep.TableResult()
	if res.Wrong != int(want) || res.Example != 0 {
		t.Errorf("TableResult = %+v, want Wrong=%d Example=0", res, want)
	}
}

// TestCheckpointResumeEquivalence is the interrupted-equals-
// uninterrupted guarantee: cancel a sweep mid-flight, resume it, and
// require the final mismatch accounting and the completed-shard bitmap
// to be identical to a never-interrupted run.
func TestCheckpointResumeEquivalence(t *testing.T) {
	const stride = 251
	const limit = 1 << 18
	dir := t.TempDir()
	base := Config{
		Func: "log2", Limit: limit, ShardBits: 14, // 16 shards, 4 batches each
		CheckpointEvery: 1,
		sliceOverride:   corruptEvery(t, "log2", stride, 0),
	}

	// Uninterrupted reference run.
	refCfg := base
	refCfg.CheckpointPath = filepath.Join(dir, "ref.ckpt")
	refRep, err := Run(context.Background(), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !refRep.Complete || refRep.Mismatched == 0 {
		t.Fatalf("reference run unusable: %+v", refRep)
	}

	// Interrupted run: cancel from the progress callback once a few
	// shards have completed — workers abandon their current shard
	// mid-flight, so the checkpoint holds a strict subset of shards.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	intCfg := base
	intCfg.CheckpointPath = filepath.Join(dir, "int.ckpt")
	intCfg.ProgressEvery = time.Nanosecond
	var canceled atomic.Bool
	intCfg.Progress = func(s Snapshot) {
		if s.ShardsDone >= 3 {
			canceled.Store(true)
			cancel()
		}
	}
	intRep, err := Run(ctx, intCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !canceled.Load() {
		t.Skip("run finished before cancellation could land (machine too fast for the window)")
	}
	if intRep.Complete {
		t.Skip("cancellation landed after completion")
	}
	if intRep.ShardsDone == 0 || intRep.ShardsDone >= intRep.ShardsTotal {
		t.Fatalf("interrupted run completed %d/%d shards, want a strict partial",
			intRep.ShardsDone, intRep.ShardsTotal)
	}

	// Resume and finish.
	resCfg := intCfg
	resCfg.Progress = nil
	resCfg.Resume = true
	resRep, err := Run(context.Background(), resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resRep.Complete {
		t.Fatalf("resumed run incomplete: %d/%d", resRep.ShardsDone, resRep.ShardsTotal)
	}

	// Interrupted+resumed must equal uninterrupted, exactly.
	if resRep.Inputs != refRep.Inputs || resRep.NaNInputs != refRep.NaNInputs {
		t.Errorf("input accounting differs: resumed %d/%d, reference %d/%d",
			resRep.Inputs, resRep.NaNInputs, refRep.Inputs, refRep.NaNInputs)
	}
	if resRep.Mismatched != refRep.Mismatched {
		t.Errorf("mismatch count differs: resumed %d, reference %d", resRep.Mismatched, refRep.Mismatched)
	}
	if !reflect.DeepEqual(resRep.Mismatches, refRep.Mismatches) {
		t.Error("mismatch logs differ between resumed and reference runs")
	}
	refCkpt, err := loadCheckpoint(refCfg.CheckpointPath, checkpointSkeleton(refCfg))
	if err != nil {
		t.Fatal(err)
	}
	resCkpt, err := loadCheckpoint(resCfg.CheckpointPath, checkpointSkeleton(resCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refCkpt.Done, resCkpt.Done) {
		t.Error("completed-shard bitmaps differ between resumed and reference runs")
	}
	if refCkpt.Mismatched != resCkpt.Mismatched || refCkpt.Inputs != resCkpt.Inputs {
		t.Errorf("checkpoint totals differ: ref {%d %d}, res {%d %d}",
			refCkpt.Inputs, refCkpt.Mismatched, resCkpt.Inputs, resCkpt.Mismatched)
	}
}

// checkpointSkeleton builds the validation template loadCheckpoint
// expects for cfg.
func checkpointSkeleton(cfg Config) checkpoint {
	e, err := newEngine(cfg)
	if err != nil {
		panic(err)
	}
	return checkpoint{
		Version: checkpointVersion, Func: e.cfg.Func, Lib: e.cfg.Lib,
		ShardBits: int(e.shardBits), Limit: e.limit, GuardUlps: e.guard,
		Done: make([]byte, (e.nShards+7)/8),
	}
}

// TestCheckpointConfigMismatch verifies a resume against an
// incompatible sweep layout is rejected rather than merged.
func TestCheckpointConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	cfg := Config{Func: "exp", Limit: 1 << 12, ShardBits: 10, CheckpointPath: path}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Config{
		"func":  {Func: "ln", Limit: 1 << 12, ShardBits: 10, CheckpointPath: path, Resume: true},
		"limit": {Func: "exp", Limit: 1 << 13, ShardBits: 10, CheckpointPath: path, Resume: true},
		"shard": {Func: "exp", Limit: 1 << 12, ShardBits: 11, CheckpointPath: path, Resume: true},
		"guard": {Func: "exp", Limit: 1 << 12, ShardBits: 10, GuardUlps: 32, CheckpointPath: path, Resume: true},
		"lib":   {Func: "exp", Lib: "fastfloat", Limit: 1 << 12, ShardBits: 10, CheckpointPath: path, Resume: true},
	} {
		if _, err := Run(context.Background(), bad); err == nil {
			t.Errorf("resume with different %s accepted", name)
		}
	}

	// A version 1 file (no Bracketed count) is rejected by name.
	cp, err := loadCheckpoint(path, checkpointSkeleton(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cp.Version = 1
	if err := cp.save(path); err != nil {
		t.Fatal(err)
	}
	resume := cfg
	resume.Resume = true
	_, err = Run(context.Background(), resume)
	if err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Errorf("resume from a version 1 checkpoint: err = %v, want a version 1/2 rejection", err)
	}
}

// TestResumeWithoutCheckpointStartsFresh covers the first run of a
// -resume invocation: no file yet, sweep runs from scratch.
func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.ckpt")
	rep, err := Run(context.Background(), Config{
		Func: "exp", Limit: 1 << 12, ShardBits: 10,
		CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Inputs != 1<<12 {
		t.Fatalf("fresh resume run incomplete: %+v", rep)
	}
}

// TestSweepBitsCoversEverything checks the sweep-order bijection: the
// first and second halves together visit every bit pattern exactly once
// (sampled), and the order starts at +0.
func TestSweepBitsCoversEverything(t *testing.T) {
	if sweepBits(0) != 0 {
		t.Errorf("sweep must start at +0, got %#08x", sweepBits(0))
	}
	seen := map[uint32]struct{}{}
	for _, base := range []uint64{0, 1 << 23, 1<<31 - 40, 1 << 31, 1<<32 - 40} {
		for i := uint64(0); i < 40; i++ {
			b := sweepBits(base + i)
			if _, dup := seen[b]; dup {
				t.Fatalf("sweepBits revisits %#08x", b)
			}
			seen[b] = struct{}{}
		}
	}
}

// TestUnknownFuncAndLib checks configuration errors surface.
func TestUnknownFuncAndLib(t *testing.T) {
	if _, err := Run(context.Background(), Config{Func: "tan"}); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := Run(context.Background(), Config{Func: "ln", Lib: "no-such-lib"}); err == nil {
		t.Error("unknown library accepted")
	}
}
