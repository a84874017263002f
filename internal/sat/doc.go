// Package sat is the repo's third exact certain-answer engine: it
// decides "is tuple t an answer in every repair?" by propositional
// satisfiability instead of chain exploration, following the CAvSAT
// reduction (Dixit & Kolaitis) adapted to the operational repair space
// of the source paper.
//
// # Encoding
//
// For a database with key-shaped EGDs, the absorbing states of the
// operational chain are exactly the subinstances keeping at most one
// fact of every violating key group (the chain may justifiedly delete
// every fact of a group — the introduction's "trust neither source"
// resolution — so this is at-MOST-one, not exactly-one) and all
// conflict-free facts. Every such subinstance is reached with positive
// probability by the uniform, uniform-deletions, and (full-support)
// trust generators, and certain answers are semantics-independent: a
// tuple is certain iff it holds in all of them, under walk-induced and
// sequence-uniform semantics alike.
//
// The Encoder assigns one boolean per conflicted fact ("the repair keeps
// it") and encodes each group's cardinality constraint — pairwise for
// small groups, the sequential ladder encoding above that
// (CNF.AtMostOne). A conjunctive query is compiled per candidate tuple:
// each distinct witness — a homomorphism image in the FULL database whose
// projection is the tuple — contributes one witness clause, the
// disjunction of the negated keep-variables of its conflicted facts. The
// witnesses come from fo.Query.Lineage, one pass over the database shared
// with the samplers (repairs are subsets of the database and CQs are
// monotone, so no repair has a witness the database lacks); the encoder
// runs no homomorphism search of its own. The conjunction
//
//	group constraints ∧ all witness clauses of t
//
// is satisfiable iff some repair breaks every witness, i.e. iff t is NOT
// certain. A witness with no conflicted facts survives every repair and
// short-circuits to "certain" without touching the solver. Every witness
// clause is all-negative and every at-most-one clause (pairwise or
// ladder) holds a negative literal, so the all-false assignment — the
// operational repair that deletes every conflicted fact — is a model of
// every remaining candidate's formula: CertainAnswers and Certain check
// that assignment in O(clauses) and refute the candidate without
// building a solver (CertainResult.Refuted). The solver runs only when
// the check fails, as under MaximalRepairs, whose covering clauses are
// all-positive. The sequence
// space of the chain never enters the encoding — instances whose DAG
// exploration would need 2^63+ sequences solve in microseconds when
// their logical structure is shallow.
//
// Options.MaximalRepairs switches the cardinality constraint to
// exactly-one, quantifying over the classical subset-maximal repairs
// instead (the space CAvSAT itself targets); the certain set can only
// grow, and the equivalence suites pin the default against the
// tree/DAG/factored engines.
//
// # Solver
//
// Solver is a small deterministic CDCL solver (two-watched-literal
// propagation, first-UIP clause learning, activity-driven branching with
// phase saving, geometric restarts) — pure Go, no subprocess. CNF.WriteDIMACS /
// Encoder.WriteTupleDIMACS export any instance for external
// cross-checks: SAT ⇔ not certain.
//
// core.ComputeCertainSAT is the engine's front door; cmd/ocqa surfaces
// it as -mode sat.
package sat
