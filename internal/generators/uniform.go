package generators

import (
	"fmt"
	"math/big"

	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/repair"
)

// Uniform is the uniform Markov chain generator M^u_Σ: if a repairing
// sequence s has exactly the extensions s·op_1, ..., s·op_k, each gets
// probability 1/k. Proposition 4: every ABC repair is an operational repair
// with respect to this generator.
type Uniform struct{}

// Name implements markov.Generator.
func (Uniform) Name() string { return "uniform" }

// LocalWeights asserts that uniform choice within a conflict component is
// independent of the rest of the database, enabling the factorized exact
// semantics of core.ComputeFactored.
func (Uniform) LocalWeights() bool { return true }

// StructuralWeights asserts that the uniform weights are invariant under
// renaming of constants — 1/k never inspects a constant — so isomorphic
// conflict components share one exploration through the structural
// semantics cache of core.ComputeFactored (core.StructuralGenerator).
func (Uniform) StructuralWeights() bool { return true }

// Memoryless implements markov.Markovian: 1/k depends only on the number of
// extensions, a function of the state's database, so the chain collapses to
// the DAG of distinct sub-databases.
func (Uniform) Memoryless() bool { return true }

// Transitions implements markov.Generator. Every extension shares one
// 1/k rational value: callers treat transition probabilities as read-only,
// and the shared pointer lets the chain machinery recognize the uniform
// case without arithmetic.
func (Uniform) Transitions(_ *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	if len(exts) == 0 {
		return nil, nil
	}
	p := big.NewRat(1, int64(len(exts)))
	out := make([]*big.Rat, len(exts))
	for i := range out {
		out[i] = p
	}
	return out, nil
}

// IntWeights implements markov.IntWeighter: every extension has weight 1.
func (Uniform) IntWeights(_ *repair.State, exts []ops.Op, dst []int64) ([]int64, bool, error) {
	for range exts {
		dst = append(dst, 1)
	}
	return dst, true, nil
}

// UniformDeletions is the uniform generator restricted to deletion
// operations: additions get probability zero and the deletions share the
// mass equally. By Proposition 8 the resulting generator is non-failing for
// every set of TGDs, EGDs, and DCs.
type UniformDeletions struct{}

// Name implements markov.Generator.
func (UniformDeletions) Name() string { return "uniform-deletions" }

// LocalWeights asserts locality (see Uniform.LocalWeights).
func (UniformDeletions) LocalWeights() bool { return true }

// StructuralWeights asserts renaming-invariance (see
// Uniform.StructuralWeights; the deletion mask never inspects constants).
func (UniformDeletions) StructuralWeights() bool { return true }

// Memoryless implements markov.Markovian (see Uniform.Memoryless; the
// deletion mask is a property of the extensions themselves).
func (UniformDeletions) Memoryless() bool { return true }

// Transitions implements markov.Generator.
func (UniformDeletions) Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	var dels int64
	for _, op := range exts {
		if op.IsDelete() {
			dels++
		}
	}
	if dels == 0 {
		return nil, fmt.Errorf("generators: no deletion extension at state %q; deletion-only chain undefined", s)
	}
	p := big.NewRat(1, dels)
	zero := prob.Zero()
	out := make([]*big.Rat, len(exts))
	for i, op := range exts {
		if op.IsDelete() {
			out[i] = p
		} else {
			out[i] = zero
		}
	}
	return out, nil
}

// WeightFunc adapts a user-supplied weight function into a generator: each
// valid extension receives weight fn(s, op) ≥ 0 and the weights are
// normalized to probabilities. It returns an error at states where every
// weight is zero.
type WeightFunc struct {
	// Label names the generator.
	Label string
	// Fn assigns a non-negative weight to an extension.
	Fn func(s *repair.State, op ops.Op) *big.Rat
}

// Name implements markov.Generator.
func (w WeightFunc) Name() string {
	if w.Label != "" {
		return w.Label
	}
	return "weight-func"
}

// Transitions implements markov.Generator.
func (w WeightFunc) Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	weights := make([]*big.Rat, len(exts))
	for i, op := range exts {
		weights[i] = w.Fn(s, op)
	}
	ps, err := prob.Normalize(weights)
	if err != nil {
		return nil, fmt.Errorf("generators: %s at state %q: %w", w.Name(), s, err)
	}
	return ps, nil
}

// IntWeights implements markov.IntWeighter: deletions weigh 1, additions 0.
func (UniformDeletions) IntWeights(s *repair.State, exts []ops.Op, dst []int64) ([]int64, bool, error) {
	var dels int64
	for _, op := range exts {
		var w int64
		if op.IsDelete() {
			w = 1
			dels++
		}
		dst = append(dst, w)
	}
	if dels == 0 {
		return dst, false, fmt.Errorf("generators: no deletion extension at state %q; deletion-only chain undefined", s)
	}
	return dst, true, nil
}

// Compile-time interface checks. WeightFunc is deliberately NOT Markovian:
// the user-supplied weight function receives the full state and may depend
// on its history, so it always takes the sequence-tree engine.
var (
	_ markov.Generator   = Uniform{}
	_ markov.Generator   = UniformDeletions{}
	_ markov.Generator   = WeightFunc{}
	_ markov.IntWeighter = Uniform{}
	_ markov.IntWeighter = UniformDeletions{}
	_ markov.Markovian   = Uniform{}
	_ markov.Markovian   = UniformDeletions{}
)
