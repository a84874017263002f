package core

import (
	"math/big"

	"repro/internal/fo"
	"repro/internal/relation"
)

// SetCanonLeafBudget replaces the canonicalization leaf budget for the
// duration of a test and returns a function restoring the previous value.
// A budget of 0 sends every component to the first-occurrence fallback.
func SetCanonLeafBudget(n int) (restore func()) {
	prev := canonLeafBudget
	canonLeafBudget = n
	return func() { canonLeafBudget = prev }
}

// ProductCP and ProductOCA expose the product-enumeration routes, the
// reference the witness-lineage routes of Factored.CP and OCA are checked
// against.
func (f *Factored) ProductCP(q *fo.Query, tuple []string) (*big.Rat, error) {
	return f.productCP(q, tuple)
}

func (f *Factored) ProductOCA(q *fo.Query) (*AnswerSet, error) { return f.productOCA(q) }

// UsesLineage reports whether CP and OCA answer q from its witness lineage
// instead of evaluating it on every repair.
func (s *Semantics) UsesLineage(q *fo.Query) bool {
	_, ok := s.lineage(q.Lineage)
	return ok
}

// LineageInputs returns the database and conflicted facts the semantics
// builds witness lineages over (nil without lineage).
func (s *Semantics) LineageInputs() (*relation.Database, []relation.Fact) {
	return s.lineageDB, s.conflicted
}
