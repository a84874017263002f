package prob

import (
	"math"
	"math/big"
	"math/bits"
)

// Rat is an exact rational accumulator with a small-value fast path: while
// the reduced numerator and denominator fit in int64 the value lives in two
// machine words and add/mul cost a handful of integer operations; the first
// operation whose exact result would overflow promotes the value — once and
// permanently — to an internal *big.Rat. Promotion never rounds: every
// overflow check guards the exact product or sum, so a Rat holds the same
// rational number either way and Big materializes it as a canonical
// (normalized) *big.Rat, bit-identical whether or not the fast path was
// ever left. The shape follows the IntWeighter fast path: cheap integer
// arithmetic when possible, the exact big.Rat route as the always-correct
// fallback.
//
// The zero value is 0. The exact engines use Rat for π mass accumulation
// (markov.ExploreDAG, markov.Explore) and marginal sums (core), where
// chain probabilities are products of small per-step fractions and the
// reduced values almost never leave int64 range.
//
// A Rat is single-owner: methods mutate the receiver and are not safe for
// concurrent use.
type Rat struct {
	// num/den is the value while promoted == nil; den == 0 encodes the zero
	// value (treated as 0/1), otherwise den > 0 and gcd(|num|, den) == 1.
	num, den int64
	promoted *big.Rat
}

// RatOne returns a Rat holding 1.
func RatOne() Rat { return Rat{num: 1, den: 1} }

// RatFrac returns a Rat holding num/den (den must be non-zero).
func RatFrac(num, den int64) Rat {
	if den == 0 {
		panic("prob: RatFrac with zero denominator")
	}
	if den < 0 {
		// Avoid -MinInt64 overflow by promoting outright.
		if num == math.MinInt64 || den == math.MinInt64 {
			return Rat{promoted: new(big.Rat).SetFrac64(num, den)}
		}
		num, den = -num, -den
	}
	g := gcd64(abs64(num), den)
	if g > 1 {
		num, den = num/g, den/g
	}
	return Rat{num: num, den: den}
}

// small returns the fast-path value, mapping the zero value to 0/1. Only
// valid while promoted == nil.
func (r *Rat) small() (int64, int64) {
	if r.den == 0 {
		return 0, 1
	}
	return r.num, r.den
}

// IsBig reports whether the value has left the int64 fast path.
func (r *Rat) IsBig() bool { return r.promoted != nil }

// IsOne reports whether the value is exactly 1.
func (r *Rat) IsOne() bool {
	if r.promoted != nil {
		return IsOne(r.promoted)
	}
	return r.num == 1 && r.den == 1
}

// Sign returns the sign of the value (-1, 0, +1).
func (r *Rat) Sign() int {
	if r.promoted != nil {
		return r.promoted.Sign()
	}
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	}
	return 0
}

// Big returns the value as a fresh *big.Rat. big.Rat stores every rational
// in reduced canonical form, so the result is bit-identical however the
// value was accumulated (fast path, promoted path, or any mix).
func (r *Rat) Big() *big.Rat {
	if r.promoted != nil {
		return new(big.Rat).Set(r.promoted)
	}
	n, d := r.small()
	return new(big.Rat).SetFrac64(n, d)
}

// promote moves the value to big.Rat representation.
func (r *Rat) promote() {
	if r.promoted == nil {
		n, d := r.small()
		r.promoted = new(big.Rat).SetFrac64(n, d)
	}
}

// Add sets r to r + o.
func (r *Rat) Add(o *Rat) {
	if r.promoted == nil && o.promoted == nil {
		an, ad := r.small()
		bn, bd := o.small()
		if n, d, ok := addSmall(an, ad, bn, bd); ok {
			r.num, r.den = n, d
			return
		}
	}
	r.promote()
	if o.promoted != nil {
		r.promoted.Add(r.promoted, o.promoted)
	} else {
		n, d := o.small()
		var t big.Rat
		r.promoted.Add(r.promoted, t.SetFrac64(n, d))
	}
}

// AddBig sets r to r + p.
func (r *Rat) AddBig(p *big.Rat) {
	one := RatOne()
	r.AddMul(&one, p)
}

// AddMul sets r to r + a·p — the π-accumulation step of the exact engines
// (a is a node's incoming mass, p an edge probability). While r, a, and p
// all fit int64 the update is pure integer arithmetic; any overflow of the
// exact intermediate promotes r and redoes the update in big.Rat.
func (r *Rat) AddMul(a *Rat, p *big.Rat) {
	if r.promoted == nil && a.promoted == nil {
		if pn, pd, ok := smallBig(p); ok {
			an, ad := a.small()
			if mn, md, ok := mulSmall(an, ad, pn, pd); ok {
				rn, rd := r.small()
				if n, d, ok := addSmall(rn, rd, mn, md); ok {
					r.num, r.den = n, d
					return
				}
			}
		}
	}
	r.promote()
	var t big.Rat
	if a.promoted != nil {
		t.Mul(a.promoted, p)
	} else {
		n, d := a.small()
		t.SetFrac64(n, d)
		t.Mul(&t, p)
	}
	r.promoted.Add(r.promoted, &t)
}

// MulBig returns r·p as a new Rat.
func (r *Rat) MulBig(p *big.Rat) Rat {
	if r.promoted == nil {
		if pn, pd, ok := smallBig(p); ok {
			n, d := r.small()
			if mn, md, ok := mulSmall(n, d, pn, pd); ok {
				return Rat{num: mn, den: md}
			}
		}
	}
	out := Rat{promoted: new(big.Rat)}
	if r.promoted != nil {
		out.promoted.Mul(r.promoted, p)
	} else {
		n, d := r.small()
		out.promoted.SetFrac64(n, d)
		out.promoted.Mul(out.promoted, p)
	}
	return out
}

// RatFromBig returns a Rat holding p's value (copied, never aliased).
func RatFromBig(p *big.Rat) Rat {
	if n, d, ok := smallBig(p); ok {
		return Rat{num: n, den: d}
	}
	return Rat{promoted: new(big.Rat).Set(p)}
}

// AddMulRat sets r to r + a·b, the all-small-rational form of AddMul: when
// r, a, and b are all on the fast path the update allocates nothing.
func (r *Rat) AddMulRat(a, b *Rat) {
	if r.promoted == nil && a.promoted == nil && b.promoted == nil {
		an, ad := a.small()
		bn, bd := b.small()
		if mn, md, ok := mulSmall(an, ad, bn, bd); ok {
			rn, rd := r.small()
			if n, d, ok := addSmall(rn, rd, mn, md); ok {
				r.num, r.den = n, d
				return
			}
		}
	}
	r.promote()
	var ta, tb big.Rat
	pa, pb := a.promoted, b.promoted
	if pa == nil {
		n, d := a.small()
		pa = ta.SetFrac64(n, d)
	}
	if pb == nil {
		n, d := b.small()
		pb = tb.SetFrac64(n, d)
	}
	var t big.Rat
	r.promoted.Add(r.promoted, t.Mul(pa, pb))
}

// smallBig extracts p as an int64 fraction when both components fit.
// big.Rat denominators are always positive and the fraction reduced.
func smallBig(p *big.Rat) (num, den int64, ok bool) {
	n, d := p.Num(), p.Denom()
	if !n.IsInt64() || !d.IsInt64() {
		return 0, 0, false
	}
	return n.Int64(), d.Int64(), true
}

// addSmall returns the reduced sum an/ad + bn/bd, reporting ok=false when
// any exact intermediate leaves int64. Inputs must be reduced with positive
// denominators.
func addSmall(an, ad, bn, bd int64) (num, den int64, ok bool) {
	// A zero term (a node's first incoming mass) leaves the other,
	// already reduced, term as it is.
	if an == 0 {
		return bn, bd, true
	}
	if bn == 0 {
		return an, ad, true
	}
	g := gcd64(ad, bd)
	adg, bdg := ad/g, bd/g
	den, ok = mul64(adg, bd) // lcm(ad, bd)
	if !ok {
		return 0, 0, false
	}
	x, ok := mul64(an, bdg)
	if !ok {
		return 0, 0, false
	}
	y, ok := mul64(bn, adg)
	if !ok {
		return 0, 0, false
	}
	num, ok = add64(x, y)
	if !ok {
		return 0, 0, false
	}
	// The cross terms can share a factor with the lcm (e.g. 1/6 + 1/3).
	if num == math.MinInt64 {
		return 0, 0, false
	}
	if g := gcd64(abs64(num), den); g > 1 {
		num, den = num/g, den/g
	}
	return num, den, true
}

// mulSmall returns the reduced product (an/ad)·(bn/bd) with cross-GCD
// reduction before multiplying, reporting ok=false on int64 overflow.
// Inputs must be reduced with positive denominators.
func mulSmall(an, ad, bn, bd int64) (num, den int64, ok bool) {
	if an == 0 || bn == 0 {
		return 0, 1, true
	}
	if an == math.MinInt64 || bn == math.MinInt64 {
		return 0, 0, false
	}
	if g := gcd64(abs64(an), bd); g > 1 {
		an, bd = an/g, bd/g
	}
	if g := gcd64(abs64(bn), ad); g > 1 {
		bn, ad = bn/g, ad/g
	}
	num, ok = mul64(an, bn)
	if !ok {
		return 0, 0, false
	}
	den, ok = mul64(ad, bd)
	if !ok {
		return 0, 0, false
	}
	return num, den, true
}

// mul64 is overflow-checked int64 multiplication. The check reads the
// high word of the 128-bit product of the magnitudes instead of dividing.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	hi, lo := bits.Mul64(uint64(abs64(a)), uint64(abs64(b)))
	if hi != 0 || lo > 1<<63 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true // lo = 2^63 wraps to exactly MinInt64
	}
	if lo == 1<<63 {
		return 0, false
	}
	return int64(lo), true
}

// add64 is overflow-checked int64 addition.
func add64(a, b int64) (int64, bool) {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		return 0, false
	}
	return c, true
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// gcd64 returns gcd(a, b) for non-negative inputs (gcd(0, b) = b). One
// Euclidean step brings the larger operand below the smaller — the whole
// job when one is a small step weight — and the binary (Stein) algorithm
// finishes with shifts and subtractions instead of the chain of 64-bit
// divisions, which dominated the exact engines' mass merge on large
// denominators.
func gcd64(a, b int64) int64 {
	if a < b {
		a, b = b, a
	}
	if b == 0 {
		return a
	}
	if a %= b; a == 0 {
		return b
	}
	ua, ub := uint64(a), uint64(b)
	shift := bits.TrailingZeros64(ua | ub)
	ua >>= bits.TrailingZeros64(ua)
	for ub != 0 {
		ub >>= bits.TrailingZeros64(ub)
		if ua > ub {
			ua, ub = ub, ua
		}
		ub -= ua
	}
	return int64(ua << shift)
}
