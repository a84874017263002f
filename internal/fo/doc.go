// Package fo implements first-order queries Q(x̄) = {x̄ | ϕ} over
// relational databases, with active-domain semantics as in the paper: the
// output of Q on D is {c̄ ∈ dom(D)^{|x̄|} | D ⊨ ϕ(c̄)}, and quantifiers
// range over dom(D).
//
// # Key types
//
//   - Query: a named query with output variables and a Formula body.
//     Holds(db, tuple) decides membership; Answers(db) enumerates the
//     output sorted lexicographically; ForEachAnswerSyms streams unsorted
//     symbol tuples for tally-style consumers (the samplers) without
//     string round trips.
//   - Formula: the usual connectives (Atom, And, Or, Not, Implies, Iff,
//     Eq/Neq, Exists, ForAll, Truth) over internal/logic terms.
//   - Lineage: the witness lineage of a conjunctive query whose output
//     variables all occur in its body, built by Query.Lineage in one
//     homomorphism pass over D relative to a list of conflicted facts.
//     Per candidate tuple it records whether some witness uses no
//     conflicted fact (Certain) and otherwise the distinct witnesses as
//     sorted sets of conflicted-fact indices. ForEachAnswer names the
//     answers of D minus any set of dead conflicted facts without another
//     join. The practical scheme's rounds, the samplers' walks over
//     TGD-free Σ and the SAT encoder's witness clauses all read it.
//   - TupleKey: a packed-symbol map key for answer tuples —
//     process-local, no stable order; user-visible output must sort by
//     the tuples themselves.
//
// # Invariants
//
//   - Conjunctive queries (existentially quantified conjunctions of atoms
//     with free output variables) take a fast path through the indexed
//     homomorphism search of internal/relation; arbitrary formulas are
//     evaluated recursively over the active domain. Both paths agree
//     (property-tested), so consumers never need to know which ran.
//   - A lineage answers exactly on subsets of D that keep every
//     non-conflicted fact: CQs are monotone, so a tuple answers there iff
//     it is certain or one of its witnesses lost no fact
//     (TestLineageMatchesEvaluationOnSubsets). Queries outside the
//     fragment get ok = false, never an approximate lineage.
//   - Evaluation never mutates the database and is safe to run
//     concurrently against a sealed snapshot — the parallel samplers
//     evaluate one query against many repairs at once.
//
// # Neighbors
//
// Below: internal/logic, internal/relation, internal/intern. Above:
// internal/core (CP/OCA over repairs), internal/sampling and
// internal/practical (per-walk / per-round evaluation, through the
// lineage where it applies), internal/sat (witness clauses from the
// lineage), internal/plan (AsQuery compiles conjunctive plans into this
// package).
package fo
