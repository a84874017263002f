package markov

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/prob"
)

// countOf returns base·2^shift + add as a prob.Count, built by doubling.
func countOf(base uint64, shift int, add uint64) prob.Count {
	c := prob.Count{}
	b := prob.CountOne()
	for ; base > 0; base-- {
		c.Add(&b)
	}
	for range shift {
		c.Add(&c)
	}
	for a := prob.CountOne(); add > 0; add-- {
		c.Add(&a)
	}
	return c
}

// TestSequenceNodePickMatchesPickBigInt pins the sequence DAG's node pick
// to prob.PickBigInt on crafted completion counts on both sides of 2^63:
// nodes whose counts and total fit the int64 path, one whose total passes
// 2^63 but fits a uint64, and nodes with a count at or past 2^63 or a
// total past 2^64, which keep big.Ints. For 10^4 seeded draws per node
// the index must be PickBigInt's, and both must consume exactly one draw.
func TestSequenceNodePickMatchesPickBigInt(t *testing.T) {
	cases := []struct {
		name   string
		counts []prob.Count
		small  bool // the node picks on int64 weights
	}{
		{"small", []prob.Count{countOf(1, 0, 0), countOf(7, 0, 0), countOf(3, 0, 0)}, true},
		{"near-2^63", []prob.Count{countOf(1, 62, 0), countOf(1, 61, 5), countOf(1, 0, 0)}, true},
		{"total-past-2^63", []prob.Count{countOf(3, 61, 0), countOf(1, 62, 1), countOf(9, 0, 0)}, true},
		{"count-2^63", []prob.Count{countOf(1, 63, 0), countOf(2, 0, 0)}, false},
		{"count-past-2^64", []prob.Count{countOf(1, 70, 3), countOf(1, 62, 0), countOf(5, 0, 0)}, false},
		{"total-past-2^64", []prob.Count{countOf(3, 62, 0), countOf(3, 62, 0)}, false},
	}
	for _, tc := range cases {
		n := &seqNode{}
		var bigs []*big.Int
		for i := range tc.counts {
			n.kids = append(n.kids, &seqNode{count: tc.counts[i]})
			bigs = append(bigs, tc.counts[i].Big())
		}
		n.setWeights()
		if (n.ws != nil) != tc.small || (n.big != nil) == tc.small {
			t.Fatalf("%s: int64 weights %v, big weights %v; want the int64 path = %v", tc.name, n.ws != nil, n.big != nil, tc.small)
		}
		src, ref, one := &prob.SplitMix{}, &prob.SplitMix{}, &prob.SplitMix{}
		rng, refRng, oneRng := rand.New(src), rand.New(ref), rand.New(one)
		for i := 0; i < 10000; i++ {
			src.ReseedAt(9, i)
			ref.ReseedAt(9, i)
			one.ReseedAt(9, i)
			got, want := n.pick(rng), prob.PickBigInt(refRng, bigs)
			if got != want {
				t.Fatalf("%s draw %d: node pick %d, PickBigInt %d", tc.name, i, got, want)
			}
			oneRng.Int63() // the one draw a pick may consume
			next := oneRng.Int63()
			if rng.Int63() != next || refRng.Int63() != next {
				t.Fatalf("%s draw %d: a pick did not consume exactly one draw", tc.name, i)
			}
		}
	}
}
