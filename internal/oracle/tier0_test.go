package oracle_test

import (
	"math"
	"math/rand"
	"testing"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/oracle"
	"rlibm32/internal/rangered"
)

// TestFloat64Tier0MatchesLadder checks the double-double tier 0 on the
// queries Algorithm 2 makes: for every (variant, family) it reduces
// 2^14 seeded inputs and requires every reduced-function value tier 0
// decides to be bit-identical to the ladder's.
func TestFloat64Tier0MatchesLadder(t *testing.T) {
	n := 1 << 14
	if testing.Short() {
		n = 1 << 10
	}
	for _, v := range []rangered.Variant{rangered.VFloat32, rangered.VPosit32, rangered.VBFloat16, rangered.VFloat16, rangered.VPosit16} {
		for _, name := range rangered.Names(v) {
			t.Run(v.String()+"/"+name, func(t *testing.T) {
				t.Parallel()
				fam, err := rangered.Build(name, v)
				if err != nil {
					t.Fatal(err)
				}
				tgt := v.Target()
				doms := fam.SampleDomains()
				rng := rand.New(rand.NewSource(int64(v)<<8 + int64(len(name))))
				type query struct {
					f bigfp.Func
					r float64
				}
				seen := make(map[query]bool)
				queries, decided := 0, 0
				for i := 0; i < n; i++ {
					d := doms[rng.Intn(len(doms))]
					lo, hi := tgt.Ord(d[0]), tgt.Ord(d[1])
					x := tgt.FromOrd(lo + rng.Int63n(hi-lo+1))
					if _, special := fam.Special(x); special {
						continue
					}
					r, _ := fam.Reduce(x)
					for _, rf := range fam.Funcs() {
						q := query{rf, r}
						if seen[q] {
							continue
						}
						seen[q] = true
						queries++
						got, ok := oracle.Float64Tier0(rf, r)
						if !ok {
							continue
						}
						decided++
						if want := oracle.Float64Ziv(rf, r); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%v(%v): tier 0 %v, ladder %v", rf, r, got, want)
						}
					}
				}
				t.Logf("%d distinct queries, tier 0 decided %d", queries, decided)
				// Every reduced argument lies in a kernel's range, so only
				// values near a rounding boundary reach the ladder.
				if decided < queries*99/100 {
					t.Errorf("tier 0 decided only %d of %d queries", decided, queries)
				}
			})
		}
	}
}
