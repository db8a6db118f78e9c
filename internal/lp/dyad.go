// Dyadic arithmetic.
//
// Every number the generation pipeline hands the LP is a float64, so
// it is dyadic: a value of the form mant·2^exp with integer mant. Sums,
// differences and products of dyadics are dyadic, which means the whole
// constraint matrix of the fitting LP can be represented as scaled
// big.Ints sharing per-row power-of-two exponents — no big.Rat
// normalization, hence none of the hidden GCDs that dominate
// exact-rational pivoting. Only division leaves the dyadic world, and
// the solver layers above are arranged so division happens O(terms²)
// times per solve (tiny basis systems) rather than O(rows·cols) times
// (simplex pivots).
package lp

import (
	"math"
	"math/big"
	"math/bits"
)

// dyad is an exact dyadic rational: Num · 2^Exp. A zero Num represents
// zero regardless of Exp.
type dyad struct {
	Num big.Int
	Exp int
}

// setFloat64 sets d to the finite float64 x exactly, in lowest terms:
// Exp = 0 with integer Num when x is an integer, otherwise odd Num and
// Exp < 0. This is the numerator and power-of-two denominator that
// big.Rat.SetFloat64 produces, so every scaled integer downstream is
// the same as for the rational form of x.
func (d *dyad) setFloat64(x float64) {
	frac, e := math.Frexp(x)
	mant := int64(math.Ldexp(frac, 53)) // exact: |mant| < 2^53
	d.Exp = 0
	if mant == 0 {
		d.Num.SetInt64(0)
		return
	}
	tz := bits.TrailingZeros64(uint64(mant))
	mant >>= tz
	e += tz - 53
	d.Num.SetInt64(mant)
	if e >= 0 {
		d.Num.Lsh(&d.Num, uint(e))
	} else {
		d.Exp = e
	}
}

// rat returns d as a big.Rat.
func (d *dyad) rat() *big.Rat {
	r := new(big.Rat)
	num := new(big.Int).Set(&d.Num)
	if d.Exp >= 0 {
		num.Lsh(num, uint(d.Exp))
		return r.SetInt(num)
	}
	den := new(big.Int).Lsh(big.NewInt(1), uint(-d.Exp))
	return r.SetFrac(num, den)
}

// float64 returns the nearest double to d (approximate; used only to
// seed the float64 presolve, never for exact decisions).
func (d *dyad) float64() float64 {
	f := new(big.Float).SetInt(&d.Num)
	// SetMantExp(f, e) multiplies f by 2^e (it does not replace the
	// exponent), which is exactly Num·2^Exp here.
	f.SetMantExp(f, d.Exp)
	v, _ := f.Float64()
	return v
}

func (d *dyad) sign() int { return d.Num.Sign() }

// mul sets d = a·b.
func (d *dyad) mul(a, b *dyad) {
	d.Num.Mul(&a.Num, &b.Num)
	d.Exp = a.Exp + b.Exp
}

// sub sets d = a − b, aligning exponents by shifting.
func (d *dyad) sub(a, b *dyad) {
	var t dyad
	t.Num.Neg(&b.Num)
	t.Exp = b.Exp
	d.add(a, &t)
}

// add sets d = a + b, aligning exponents by shifting.
func (d *dyad) add(a, b *dyad) {
	if a.Num.Sign() == 0 {
		d.Num.Set(&b.Num)
		d.Exp = b.Exp
		return
	}
	if b.Num.Sign() == 0 {
		d.Num.Set(&a.Num)
		d.Exp = a.Exp
		return
	}
	lo, hi := a, b
	if lo.Exp > hi.Exp {
		lo, hi = hi, lo
	}
	var t big.Int
	t.Lsh(&hi.Num, uint(hi.Exp-lo.Exp))
	d.Num.Add(&lo.Num, &t)
	d.Exp = lo.Exp
}

// half sets d = a/2.
func (d *dyad) half(a *dyad) {
	d.Num.Set(&a.Num)
	d.Exp = a.Exp - 1
}

// cmp returns the sign of d − o.
func (d *dyad) cmp(o *dyad) int {
	var t dyad
	t.sub(d, o)
	return t.sign()
}

// scaledInt appends to dst the integer d·2^(−minExp), which is exact
// whenever minExp <= d.Exp (the caller aligns a whole row to its
// minimum exponent).
func (d *dyad) scaledInt(dst *big.Int, minExp int) {
	if d.Num.Sign() == 0 {
		dst.SetInt64(0)
		return
	}
	if d.Exp < minExp {
		panic("lp: dyad scaling below own exponent")
	}
	dst.Lsh(&d.Num, uint(d.Exp-minExp))
}

// dyadPow returns base^e as a dyad (e >= 0) by binary exponentiation.
func dyadPow(base *dyad, e int) dyad {
	if e < 0 {
		panic("lp: negative exponent")
	}
	r := dyad{Exp: 0}
	r.Num.SetInt64(1)
	var sq dyad
	sq.Num.Set(&base.Num)
	sq.Exp = base.Exp
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			var t dyad
			t.mul(&r, &sq)
			r = t
		}
		var t dyad
		t.mul(&sq, &sq)
		sq = t
	}
	return r
}
