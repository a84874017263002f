package prob

import (
	"math/big"
	"math/bits"
)

// Count is an exact non-negative integer accumulator with the small-value
// fast path of Rat: while the value fits in a uint64 it lives in one
// machine word and Add is one addition with a carry check; the first sum
// that would overflow promotes the value, once and permanently, to an
// internal *big.Int. The exact engines count repairing sequences with it
// (markov.ExploreDAG), where the counts of most nodes stay small but a
// long chain's can pass 2^64.
//
// The zero value is 0. A Count is single-owner: methods mutate the
// receiver and are not safe for concurrent use.
type Count struct {
	small    uint64
	promoted *big.Int
}

// CountOne returns a Count holding 1.
func CountOne() Count { return Count{small: 1} }

// Add sets c to c + o.
func (c *Count) Add(o *Count) {
	if c.promoted == nil && o.promoted == nil {
		sum, carry := bits.Add64(c.small, o.small, 0)
		if carry == 0 {
			c.small = sum
			return
		}
	}
	if c.promoted == nil {
		c.promoted = new(big.Int).SetUint64(c.small)
	}
	if o.promoted != nil {
		c.promoted.Add(c.promoted, o.promoted)
	} else {
		c.promoted.Add(c.promoted, new(big.Int).SetUint64(o.small))
	}
}

// Big returns the value as a fresh *big.Int.
func (c *Count) Big() *big.Int {
	if c.promoted != nil {
		return new(big.Int).Set(c.promoted)
	}
	return new(big.Int).SetUint64(c.small)
}

// Uint64 returns the value and true while it fits in a uint64, and false
// once it has been promoted.
func (c *Count) Uint64() (uint64, bool) { return c.small, c.promoted == nil }
