package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the quantile reported as a tail latency: 0.99 when at
// least ten samples lie beyond it (n ≥ 1000), otherwise the highest
// quantile that still has ten samples beyond it. The second result is the
// quantile used, so the report can say when it fell short of p99.
func tailQuantile(xs []float64) (float64, float64) {
	q := 0.99
	if n := float64(len(xs)); n*(1-q) < 10 {
		q = math.Max(0.5, 1-10/n)
	}
	return quantile(xs, q), q
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
