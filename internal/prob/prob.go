package prob

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
)

// Zero returns a fresh rational 0.
func Zero() *big.Rat { return new(big.Rat) }

// One returns a fresh rational 1.
func One() *big.Rat { return big.NewRat(1, 1) }

// R is shorthand for big.NewRat.
func R(num, den int64) *big.Rat { return big.NewRat(num, den) }

// Sum returns the sum of the rationals (zero for an empty list).
func Sum(rs []*big.Rat) *big.Rat {
	total := new(big.Rat)
	for _, r := range rs {
		total.Add(total, r)
	}
	return total
}

// IsZero reports whether r equals 0.
func IsZero(r *big.Rat) bool { return r.Sign() == 0 }

// IsOne reports whether r equals 1.
func IsOne(r *big.Rat) bool { return r.Cmp(One()) == 0 }

// InUnit reports whether 0 ≤ r ≤ 1.
func InUnit(r *big.Rat) bool { return r.Sign() >= 0 && r.Cmp(One()) <= 0 }

// ErrBadWeights is returned by Normalize when weights are unusable.
var ErrBadWeights = errors.New("prob: weights must be non-negative with positive sum")

// Normalize scales non-negative weights to sum to exactly 1. It fails when
// any weight is negative or all weights are zero. The input is not
// modified.
func Normalize(ws []*big.Rat) ([]*big.Rat, error) {
	total := new(big.Rat)
	for _, w := range ws {
		if w.Sign() < 0 {
			return nil, ErrBadWeights
		}
		total.Add(total, w)
	}
	if total.Sign() == 0 {
		return nil, ErrBadWeights
	}
	out := make([]*big.Rat, len(ws))
	for i, w := range ws {
		out[i] = new(big.Rat).Quo(w, total)
	}
	return out, nil
}

// SumsToOne reports whether the rationals sum to exactly 1.
func SumsToOne(rs []*big.Rat) bool { return IsOne(Sum(rs)) }

// Float converts a rational to float64 (for reporting only; all chain
// arithmetic stays exact).
func Float(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}

// Format renders a rational as "num/den (decimal)", e.g. "9/20 (0.4500)".
func Format(r *big.Rat) string {
	if r.IsInt() {
		return fmt.Sprintf("%s (%.4f)", r.Num().String(), Float(r))
	}
	return fmt.Sprintf("%s/%s (%.4f)", r.Num().String(), r.Denom().String(), Float(r))
}

// HoeffdingSamples returns the number of independent samples
// n = ⌈ln(2/δ) / (2ε²)⌉ sufficient for the sample mean of {0,1} variables
// to lie within ε of its expectation with probability at least 1−δ
// (Hoeffding's inequality, as used in the proof of Theorem 9). For
// ε = δ = 0.1 this yields the paper's n = 150.
func HoeffdingSamples(eps, delta float64) (int, error) {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("prob: need ε > 0 and 0 < δ < 1, got ε=%v δ=%v", eps, delta)
	}
	n := math.Ceil(math.Log(2/delta) / (2 * eps * eps))
	if n < 1 {
		n = 1
	}
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("prob: sample size %.0f is impractically large", n)
	}
	return int(n), nil
}

// Pick draws an index with probability proportional to the given
// non-negative weights, using the provided source of randomness. It panics
// on an empty or all-zero weight list (the chain machinery validates
// weights before sampling).
func Pick(rng *rand.Rand, ws []*big.Rat) int {
	const resolution = 1 << 53
	if len(ws) == 0 {
		panic("prob: Pick requires non-empty weights with positive sum")
	}
	// Equal-weight fast path (e.g. the uniform generator): the index is
	// floor(u·k / 2^53), which is exactly what the general cumulative walk
	// below computes for equal weights from the same single RNG draw — the
	// random stream and the outcome are bit-identical, only the big.Rat
	// arithmetic is skipped.
	if AllEqual(ws) {
		if ws[0].Sign() <= 0 {
			panic("prob: Pick requires non-empty weights with positive sum")
		}
		u := rng.Int63n(resolution)
		hi, lo := bits.Mul64(uint64(u), uint64(len(ws)))
		return int(hi<<(64-53) | lo>>53)
	}
	total := Sum(ws)
	if total.Sign() <= 0 {
		panic("prob: Pick requires non-empty weights with positive sum")
	}
	// Draw u uniform in [0, total) as an exact rational with a 53-bit
	// numerator, then walk the cumulative sum. Precision is bounded by the
	// RNG, not by floating-point accumulation.
	u := new(big.Rat).SetFrac64(rng.Int63n(resolution), resolution)
	u.Mul(u, total)
	acc := new(big.Rat)
	for i, w := range ws {
		if w.Sign() == 0 {
			continue
		}
		acc.Add(acc, w)
		if u.Cmp(acc) < 0 {
			return i
		}
	}
	// Numerically unreachable; return the last positive-weight index.
	for i := len(ws) - 1; i >= 0; i-- {
		if ws[i].Sign() > 0 {
			return i
		}
	}
	panic("prob: unreachable")
}

// AllEqual reports whether every rational in the list is equal; shared
// pointers short-circuit without arithmetic, so generators that return one
// Rat for every edge are recognized in O(n) pointer compares.
func AllEqual(ws []*big.Rat) bool {
	for i := 1; i < len(ws); i++ {
		if ws[i] != ws[0] && ws[i].Cmp(ws[0]) != 0 {
			return false
		}
	}
	return true
}

// MulInt64 returns r·k as a fresh rational.
func MulInt64(r *big.Rat, k int64) *big.Rat {
	return new(big.Rat).Mul(r, new(big.Rat).SetInt64(k))
}

// PickInt draws an index with probability proportional to the given
// non-negative integer weights. It consumes exactly one RNG draw — the
// same draw Pick makes — and returns exactly the index Pick would return
// for the rational weights w_i/Σw, so integer-weight generators sample
// bit-identical walks without big.Rat arithmetic. It panics on an empty or
// non-positive weight list.
func PickInt(rng *rand.Rand, ws []int64) int {
	var total uint64
	for _, w := range ws {
		if w < 0 {
			panic("prob: PickInt requires non-negative weights")
		}
		total += uint64(w)
	}
	return PickIntSum(rng, ws, total)
}

// PickIntSum is PickInt for callers that already hold total = Σ ws (and
// have checked the weights are non-negative): it skips the summing pass
// and returns the same index from the same draw.
func PickIntSum(rng *rand.Rand, ws []int64, total uint64) int {
	const resolution = 1 << 53
	if len(ws) == 0 || total == 0 {
		panic("prob: PickInt requires non-empty weights with positive sum")
	}
	u := uint64(rng.Int63n(resolution))
	// Index = smallest i with u·total < cum_i·2^53 over 128-bit products.
	lhsHi, lhsLo := bits.Mul64(u, total)
	var cum uint64
	for i, w := range ws {
		if w == 0 {
			continue
		}
		cum += uint64(w)
		rhsHi, rhsLo := cum>>(64-53), cum<<53
		if lhsHi < rhsHi || (lhsHi == rhsHi && lhsLo < rhsLo) {
			return i
		}
	}
	for i := len(ws) - 1; i >= 0; i-- {
		if ws[i] > 0 {
			return i
		}
	}
	panic("prob: unreachable")
}

// PickBigInt is PickInt over arbitrary-precision weights: it draws an index
// with probability proportional to the given non-negative big.Int weights,
// consuming exactly one RNG draw, and returns exactly the index PickInt
// (and hence Pick) would return whenever the weights fit in int64. The
// sequence-uniform sampler uses it to step through DAG nodes whose
// completion counts exceed 2^63. It panics on an empty or non-positive
// weight list.
func PickBigInt(rng *rand.Rand, ws []*big.Int) int {
	const resolution = 53 // u is drawn from [0, 2^53)
	total := new(big.Int)
	for _, w := range ws {
		if w.Sign() < 0 {
			panic("prob: PickBigInt requires non-negative weights")
		}
		total.Add(total, w)
	}
	if len(ws) == 0 || total.Sign() == 0 {
		panic("prob: PickBigInt requires non-empty weights with positive sum")
	}
	u := rng.Int63n(1 << resolution)
	// Index = smallest i with u·total < cum_i·2^53 — the same comparison
	// PickInt makes over 128-bit products, here over big.Ints.
	lhs := new(big.Int).Mul(big.NewInt(u), total)
	cum := new(big.Int)
	rhs := new(big.Int)
	for i, w := range ws {
		if w.Sign() == 0 {
			continue
		}
		cum.Add(cum, w)
		rhs.Lsh(cum, resolution)
		if lhs.Cmp(rhs) < 0 {
			return i
		}
	}
	for i := len(ws) - 1; i >= 0; i-- {
		if ws[i].Sign() > 0 {
			return i
		}
	}
	panic("prob: unreachable")
}

// Equal reports whether two rationals are equal.
func Equal(a, b *big.Rat) bool { return a.Cmp(b) == 0 }

// AbsDiff returns |a − b| as a float64; used by approximation tests to
// compare estimates against exact values.
func AbsDiff(a float64, b *big.Rat) float64 {
	return math.Abs(a - Float(b))
}
