package core

import (
	"errors"
	"fmt"

	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/sat"
)

// ComputeCertainSAT computes the certain answers of q — the tuples that
// hold in every operational repair — from the query's witness lineage
// (sat.Encoder.CertainAnswers). The chain may delete every fact of a
// violating key group, so the repair deleting every conflicted fact is
// always reachable: a candidate is certain exactly when some witness uses
// no conflicted fact. No chain exploration and no solver run, so the
// answer is exact even when the sequence space dwarfs the DAG budget.
//
// The pipeline covers key-shaped EGD constraints and conjunctive queries
// whose output variables all occur in the body; other inputs return
// sat.ErrUnsupportedConstraints / sat.ErrUnsupportedQuery. Certain
// answers are the same under walk-induced and sequence-uniform semantics
// and for every full-support local generator (uniform,
// uniform-deletions, trust), so no generator argument is taken.
func ComputeCertainSAT(db *relation.Database, sigma *constraint.Set, q *fo.Query) (*sat.CertainResult, error) {
	enc, err := sat.NewEncoder(db, sigma, sat.Options{})
	if err != nil {
		return nil, err
	}
	return enc.CertainAnswers(q)
}

// Certain returns the certain answers of q over the factored semantics:
// the tuples with conditional probability exactly 1. While every
// enumeration fits the budget (for a conjunctive query, every lineage
// group) this filters the exact OCA; beyond it (ErrEnumerationBudget) it
// reads them off the query's lineage through ComputeCertainSAT, which
// enumerates no repair at all. The two paths are pinned against each
// other by the cross-engine equivalence suite.
func (f *Factored) Certain(q *fo.Query) ([][]string, error) {
	as, err := f.OCA(q)
	if err == nil {
		var out [][]string
		for _, a := range as.Answers {
			if prob.IsOne(a.P) {
				out = append(out, a.Tuple)
			}
		}
		return out, nil
	}
	if !errors.Is(err, ErrEnumerationBudget) {
		return nil, err
	}
	res, satErr := ComputeCertainSAT(f.initial, f.sigma, q)
	if satErr != nil {
		return nil, fmt.Errorf("core: SAT fallback for over-budget certain answers failed: %w (budget: %v)", satErr, err)
	}
	return res.Answers, nil
}
