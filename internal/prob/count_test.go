package prob

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestCountMatchesBigInt drives a Count and a big.Int through the same
// random additions, across the uint64 overflow boundary, and demands equal
// values after every step.
func TestCountMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		c := CountOne()
		want := big.NewInt(1)
		others := []Count{CountOne(), {small: math.MaxUint64 - uint64(rng.Intn(3))}, {small: uint64(rng.Int63())}}
		for step := 0; step < 40; step++ {
			o := &others[rng.Intn(len(others))]
			if rng.Intn(4) == 0 {
				// Feed c to itself and to the operands, so promoted values
				// are added as well as small ones.
				o.Add(&c)
			}
			ob := o.Big()
			c.Add(o)
			want.Add(want, ob)
			if got := c.Big(); got.Cmp(want) != 0 {
				t.Fatalf("trial %d step %d: Count = %s, want %s", trial, step, got, want)
			}
		}
	}
}

// TestSmallArithmeticMatchesBig pins gcd64 and mul64 against math/big on
// random and boundary operands: mul64 must report overflow exactly when the
// product leaves int64, except that it declines any MinInt64 operand.
func TestSmallArithmeticMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	edge := []int64{0, 1, -1, 2, -2, 3, math.MaxInt64, -math.MaxInt64, math.MinInt64, 1 << 62, -(1 << 62), 1 << 31, 3037000499, 3037000500, -3037000500}
	operand := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return edge[rng.Intn(len(edge))]
		case 1:
			return rng.Int63n(1<<32) - 1<<31
		}
		return rng.Int63() - rng.Int63()
	}
	for i := 0; i < 200000; i++ {
		a, b := operand(), operand()
		exact := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		c, ok := mul64(a, b)
		fits := exact.IsInt64() && ((a != math.MinInt64 && b != math.MinInt64) || exact.Sign() == 0)
		if ok != fits || (ok && c != exact.Int64()) {
			t.Fatalf("mul64(%d, %d) = %d, %v; exact %s", a, b, c, ok, exact)
		}
		if a == math.MinInt64 || b == math.MinInt64 {
			continue
		}
		x, y := abs64(a), abs64(b)
		if g, want := gcd64(x, y), new(big.Int).GCD(nil, nil, big.NewInt(x), big.NewInt(y)).Int64(); g != want {
			t.Fatalf("gcd64(%d, %d) = %d, want %d", x, y, g, want)
		}
	}
}
