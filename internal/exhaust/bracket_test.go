package exhaust

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rlibm32/internal/checks"
	"rlibm32/internal/fp"
	"rlibm32/internal/oracle"

	rlibm "rlibm32"
)

// sweepIndex is the inverse of sweepBits: the position of bit pattern b
// in the sweep order.
func sweepIndex(b uint32) uint64 {
	return uint64(fp.OrdBits32(b) - 1<<31)
}

// bracketShards are the sweep regions TestBracketMatchesPointwise
// covers, each a count of 2^14-input shards starting at the one that
// holds bits.
var bracketShards = []struct {
	what   string
	bits   uint32
	shards uint64
}{
	{"the first 2^16 inputs (zero and small denormals)", 0x00000000, 4},
	{"1.0, cospi's minimum", 0x3F800000, 1},
	{"exp's overflow threshold", 0x42B17218, 1},
	{"exp's underflow-to-zero range (x = -120)", 0xC2F00000, 1},
	{"1/2, sinpi's maximum", 0x3F000000, 1},
	{"2, a sinpi zero", 0x40000000, 1},
	{"the positive NaN block", 0x7F800001, 1},
	{"the negative denormals", 0x80000001, 1},
	{"2^24, where sinpi is 0 and cospi 1 on integers", 0x4B800000, 1},
}

// sweepBoth sweeps shard s of cfg through the bracketing path and
// through the pointwise one.
func sweepBoth(t testing.TB, cfg Config, s uint64) (br, pw *shardAcc) {
	t.Helper()
	point := cfg
	point.pointwise = true
	for _, c := range []struct {
		cfg Config
		acc **shardAcc
	}{{cfg, &br}, {point, &pw}} {
		e, err := newEngine(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *c.acc = e.sweepShard(context.Background(), s); *c.acc == nil {
			t.Fatal("sweepShard canceled without cancellation")
		}
	}
	return br, pw
}

// requireSameVerdicts fails unless the bracketing sweep br reached the
// pointwise sweep pw's verdict on every input: the same input and NaN
// counts, the same mismatch count and log, and the same non-NaN inputs
// split differently between the filter, the oracle and bracketing.
func requireSameVerdicts(t testing.TB, label string, br, pw *shardAcc) {
	t.Helper()
	switch {
	case pw.bracketed != 0:
		t.Fatalf("%s: pointwise sweep bracketed %d inputs", label, pw.bracketed)
	case br.inputs != pw.inputs || br.nan != pw.nan:
		t.Fatalf("%s: inputs %d (NaN %d), pointwise %d (NaN %d)", label, br.inputs, br.nan, pw.inputs, pw.nan)
	case br.filtered+br.escalated+br.bracketed != pw.filtered+pw.escalated:
		t.Fatalf("%s: filtered %d + escalated %d + bracketed %d != pointwise filtered %d + escalated %d",
			label, br.filtered, br.escalated, br.bracketed, pw.filtered, pw.escalated)
	case br.inputs != br.nan+br.filtered+br.escalated+br.bracketed:
		t.Fatalf("%s: accounting does not add up: %+v", label, br)
	case br.mismatched != pw.mismatched || br.truncated != pw.truncated:
		t.Fatalf("%s: %d mismatches (truncated %v), pointwise %d (truncated %v)",
			label, br.mismatched, br.truncated, pw.mismatched, pw.truncated)
	case !reflect.DeepEqual(br.mismatches, pw.mismatches):
		t.Fatalf("%s: mismatch logs differ", label)
	}
}

// TestBracketMatchesPointwise sweeps the regions where outputs repeat,
// where pieces turn, and where NaNs and denormals sit, for every
// function, with the real library and with corrupted ones, and requires
// the bracketing sweep to reach the pointwise verdict on every input.
func TestBracketMatchesPointwise(t *testing.T) {
	const shardBits = 14
	var bracketed uint64
	for _, name := range rlibm.Names() {
		libs := []struct {
			what  string
			slice func(dst, xs []float32)
		}{
			{"rlibm", nil},
			{"every 7th corrupted", corruptEvery(t, name, 7, 3)},
			{"every 4093rd corrupted", corruptEvery(t, name, 4093, 0)},
		}
		for _, lib := range libs {
			for _, sh := range bracketShards {
				cfg := Config{Func: name, ShardBits: shardBits, sliceOverride: lib.slice}
				first := sweepIndex(sh.bits) >> shardBits
				for s := first; s < first+sh.shards; s++ {
					br, pw := sweepBoth(t, cfg, s)
					requireSameVerdicts(t, fmt.Sprintf("%s %s at %s, shard %d", name, lib.what, sh.what, s), br, pw)
					bracketed += br.bracketed
				}
			}
		}
	}
	if bracketed == 0 {
		t.Fatal("no input was bracketed: the comparison proved nothing")
	}
}

// TestPieceCutIsLinear sweeps a shard of sinpi's integers past 2^24,
// where every input is its own piece and the output is +0 throughout:
// nothing may be bracketed, and finding the pieces may take at most two
// key evaluations per input.
func TestPieceCutIsLinear(t *testing.T) {
	const shardBits = 14
	e, err := newEngine(Config{Func: "sinpi", ShardBits: shardBits})
	if err != nil {
		t.Fatal(err)
	}
	key, calls := e.piece, 0
	e.piece = func(x float64) float64 {
		calls++
		return key(x)
	}
	acc := e.sweepShard(context.Background(), sweepIndex(0x4B800000)>>shardBits)
	if acc.mismatched != 0 || acc.bracketed != 0 {
		t.Fatalf("sinpi on integers: %d mismatches, %d bracketed", acc.mismatched, acc.bracketed)
	}
	if calls > 2*int(acc.inputs) {
		t.Errorf("%d piece-key evaluations for %d inputs", calls, acc.inputs)
	}
}

// plateau returns the stretch of the sweep order from center-d to
// center+d, d = 2^dExp, and the correctly rounded value of name at its
// two ends, which must agree (the ends are placed symmetrically about
// an extremum).
func plateau(t *testing.T, name string, center float32, dExp int) (xs []float32, v float32) {
	t.Helper()
	d := float32(math.Ldexp(1, dExp))
	lo, hi := sweepIndex(math.Float32bits(center-d)), sweepIndex(math.Float32bits(center+d))
	for i := lo; i <= hi; i++ {
		xs = append(xs, math.Float32frombits(sweepBits(i)))
	}
	of := checks.OracleFunc[name]
	v = oracle.Float32(of, float64(xs[0]))
	if w := oracle.Float32(of, float64(xs[len(xs)-1])); !fp.Same32(v, w) {
		t.Fatalf("%s: ends %g and %g round differently (%g, %g)", name, xs[0], xs[len(xs)-1], v, w)
	}
	if c := oracle.Float32(of, float64(center)); fp.Same32(c, v) {
		t.Fatalf("%s(%g) rounds to the ends' value %g: the plateau hides no error", name, center, v)
	}
	return xs, v
}

// TestBracketRefutesAcrossExtremum checks that the piece rule carries
// weight. A library that returns the ends' correct value across the
// whole stretch around cospi's minimum at 1 or sinpi's maximum at 1/2
// is right at both ends and wrong near the extremum; only the cut at
// the piece boundary keeps bracketing from proving those inputs. 1 and
// 1/2 start sweep batches, so checkBatch is fed the stretch directly;
// 4097 and 4097.5 sit inside a batch and run through the real sweep.
func TestBracketRefutesAcrossExtremum(t *testing.T) {
	for _, c := range []struct {
		name   string
		center float32
		dExp   int
	}{
		{"cospi", 1, -10},
		{"sinpi", 0.5, -11},
		{"cospi", 4097, -7},
		{"sinpi", 4097.5, -7},
	} {
		xs, v := plateau(t, c.name, c.center, c.dExp)
		cb := math.Float32bits(c.center)
		var br, pw *shardAcc
		if lo, hi := sweepIndex(math.Float32bits(xs[0])), sweepIndex(math.Float32bits(xs[len(xs)-1])); lo/batchSize != hi/batchSize {
			dst := make([]float32, len(xs))
			for i := range dst {
				dst[i] = v
			}
			accs := [2]*shardAcc{{}, {}}
			for i, pointwise := range []bool{false, true} {
				e, err := newEngine(Config{Func: c.name, pointwise: pointwise})
				if err != nil {
					t.Fatal(err)
				}
				e.checkBatch(accs[i], xs, dst)
			}
			br, pw = accs[0], accs[1]
		} else {
			real32, _ := rlibm.FuncSlice(c.name)
			lib := func(dst, in []float32) {
				real32(dst, in)
				for i, x := range in {
					if xs[0] <= x && x <= xs[len(xs)-1] {
						dst[i] = v
					}
				}
			}
			const shardBits = 12
			br, pw = sweepBoth(t, Config{Func: c.name, ShardBits: shardBits, sliceOverride: lib}, lo>>shardBits)
		}
		label := fmt.Sprintf("%s around %g", c.name, c.center)
		requireSameVerdicts(t, label, br, pw)
		refuted := false
		for _, m := range br.mismatches {
			refuted = refuted || m.Bits == cb
		}
		if !refuted {
			t.Errorf("%s: the plateau value %g was accepted at the extremum", label, v)
		}
	}
}

// TestPiecesMonotone is a seeded check of the premise the piece keys
// declare: along the sweep order, the double reference rounded to
// float32 never turns inside a piece. Each trial samples 32 sorted
// inputs from a window of the sweep and keeps those in the first one's
// piece; half the windows are centred on a piece boundary or extremum.
// Every function must show enough steps for the check to mean anything.
func TestPiecesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	turns := []float32{0, 0.5, 1, 1.5, 2, -0.5, -1, -2.5, 4097, 4097.5, 1 << 22, 1<<22 + 0.5, -(1<<22 + 1)}
	for _, name := range rlibm.Names() {
		ref, _ := Ref64(name)
		e := &engine{piece: pieceKey(name)}
		steps := 0
		for trial := 0; trial < 300; trial++ {
			w := uint64(1) << rng.Intn(24)
			start := rng.Uint64() >> 32
			if trial%2 == 0 {
				c := turns[rng.Intn(len(turns))]
				start = sweepIndex(math.Float32bits(c)) - w/2
			}
			idx := make([]uint64, 32)
			for i := range idx {
				idx[i] = (start + rng.Uint64()%w) & (1<<32 - 1)
			}
			sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
			x0 := math.Float32frombits(sweepBits(idx[0]))
			var xs, ys []float32
			for _, i := range idx {
				x := math.Float32frombits(sweepBits(i))
				if x != x || e.pieceOf(x) != e.pieceOf(x0) {
					continue
				}
				if y := float32(ref(float64(x))); y == y {
					xs, ys = append(xs, x), append(ys, y)
				}
			}
			up, down := false, false
			for i := 1; i < len(ys); i++ {
				up = up || ys[i] > ys[i-1]
				down = down || ys[i] < ys[i-1]
				if ys[i] != ys[i-1] {
					steps++
				}
				if up && down {
					t.Fatalf("%s turns inside the piece of %g: f(%g) = %g, f(%g) = %g, ...",
						name, x0, xs[i-1], ys[i-1], xs[i], ys[i])
				}
			}
		}
		if steps < 1000 {
			t.Errorf("%s: only %d steps between sampled values", name, steps)
		}
	}
}

// FuzzBracketMatchesPointwise sweeps a random shard of a random
// function through a library corrupted on a random stride and offset,
// and requires the bracketing verdicts to equal the pointwise ones.
func FuzzBracketMatchesPointwise(f *testing.F) {
	const shardBits = 12
	for i, sh := range bracketShards {
		f.Add(uint8(i), uint32(sweepIndex(sh.bits)>>shardBits), uint16(7+i*100), uint16(i))
	}
	names := rlibm.Names()
	f.Fuzz(func(t *testing.T, fn uint8, shard uint32, stride, offset uint16) {
		name := names[int(fn)%len(names)]
		cfg := Config{
			Func: name, ShardBits: shardBits,
			sliceOverride: corruptEvery(t, name, uint32(stride)+1, uint32(offset)),
		}
		br, pw := sweepBoth(t, cfg, uint64(shard)%(1<<(32-shardBits)))
		requireSameVerdicts(t, name, br, pw)
	})
}
