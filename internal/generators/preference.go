package generators

import (
	"fmt"
	"math/big"

	"repro/internal/intern"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

// Preference is the support-based generator of Example 4, defined for a
// schema with a binary preference relation (by default Pref) under the
// denial constraint Pref(x,y), Pref(y,x) → ⊥ stating that preference is
// not symmetric.
//
// The weight w(α, D) of an atom α = Pref(a,b) is the number of facts
// Pref(a, ·) in D (how often a is preferred); the importance I_Σ(α, D) is
// the weight of α relative to all atoms involved in a violation; and the
// probability of removing α is the importance of its symmetric atom
// ᾱ = Pref(b,a). Intuitively, the more support a product has, the more
// likely the facts preferring something over it are to be removed.
//
// The generator assigns probability zero to every non-singleton deletion
// (and to insertions, which never arise for a DC); the singleton deletion
// probabilities sum to 1 because the involved-atom set is closed under the
// symmetry α ↔ ᾱ.
type Preference struct {
	// Pred is the preference predicate; empty means "Pref".
	Pred string
}

// Name implements markov.Generator.
func (p Preference) Name() string { return "preference" }

// Memoryless implements markov.Markovian: the importance weights count
// facts of the state's current database (and of its violation set, itself a
// function of the database), never the path that produced it. Note the
// generator is memoryless but NOT local (the weight of an atom counts
// support across the whole database), so the DAG engine applies exactly
// where core.ComputeFactored is unsound.
func (p Preference) Memoryless() bool { return true }

func (p Preference) pred() intern.Sym {
	if p.Pred == "" {
		return intern.S("Pref")
	}
	return intern.S(p.Pred)
}

// weight returns w(α, D): the number of facts Pref(a, ·) where a is the
// first argument of α. It probes the per-position index bucket of (Pref,
// 0, a) — plus any pending delta — instead of scanning the whole relation;
// a per-atom rescan of FactsByPred was the walk profile's hottest block.
func (p Preference) weight(db *relation.Database, pred intern.Sym, first intern.Sym) int64 {
	var n int64
	db.ForEachAt(pred, 0, first, func(f relation.Fact) bool {
		if f.Arity() == 2 {
			n++
		}
		return true
	})
	return n
}

// involvedWeight returns Σ_{β ∈ V_Σ(D)} w(β, D), the normalizing constant
// of the importance, visiting each involved fact once without building the
// sorted fact set. Every involved atom must have the shape Pred/2.
func (p Preference) involvedWeight(s *repair.State, pred intern.Sym) (int64, error) {
	db := s.Result()
	var total int64
	var bad relation.Fact
	badShape := false
	s.Violations().ForEachInvolvedFact(func(f relation.Fact) bool {
		if f.Pred() != pred || f.Arity() != 2 {
			bad, badShape = f, true
			return false
		}
		total += p.weight(db, pred, f.Args()[0])
		return true
	})
	if badShape {
		return 0, fmt.Errorf("generators: preference generator saw violation atom %s outside %s/2", bad, pred)
	}
	return total, nil
}

// Transitions implements markov.Generator.
func (p Preference) Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	db := s.Result()
	pred := p.pred()
	total, err := p.involvedWeight(s, pred)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("generators: preference generator has zero total weight at state %q", s)
	}
	totalWeight := new(big.Rat).SetInt64(total)

	out := make([]*big.Rat, len(exts))
	for i, op := range exts {
		if !op.IsDelete() || op.Size() != 1 {
			out[i] = prob.Zero()
			continue
		}
		alpha := op.Facts()[0].Args()
		// The probability of removing α = Pref(a,b) is the importance of
		// the symmetric atom ᾱ = Pref(b,a), i.e. the weight of b.
		w := new(big.Rat).SetInt64(p.weight(db, pred, alpha[1]))
		out[i] = w.Quo(w, totalWeight)
	}
	return out, nil
}

// IntWeights implements markov.IntWeighter: the preference probabilities
// are ratios of support counts, so walks sample them from raw integer
// weights. The transition probability of deleting α = Pref(a,b) is
// w(ᾱ)/Σ_{β ∈ V_Σ(D)} w(β), which is exactly the normalized weight this
// returns; the atom-shape validation of Transitions is preserved.
func (p Preference) IntWeights(s *repair.State, exts []ops.Op, dst []int64) ([]int64, bool, error) {
	db := s.Result()
	pred := p.pred()
	// The exact path's probabilities are w(ᾱ)/Σ_{β ∈ V_Σ(D)} w(β); they sum
	// to 1 exactly when the per-extension weights add up to that involved-
	// fact total (the symmetry-closure property of Example 4). Verify it so
	// the fast path only engages where the exact path would accept the
	// chain; otherwise decline and let markov.Step report ill-definedness.
	involvedTotal, err := p.involvedWeight(s, pred)
	if err != nil {
		return dst, false, err
	}
	var total int64
	for _, op := range exts {
		var w int64
		if op.IsDelete() && op.Size() == 1 {
			w = p.weight(db, pred, op.Facts()[0].Args()[1])
		}
		dst = append(dst, w)
		total += w
	}
	if total == 0 {
		return dst, false, fmt.Errorf("generators: preference generator has zero total weight at state %q", s)
	}
	if total != involvedTotal {
		return dst, false, nil
	}
	return dst, true, nil
}

var (
	_ markov.Generator   = Preference{}
	_ markov.IntWeighter = Preference{}
	_ markov.Markovian   = Preference{}
)
