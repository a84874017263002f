// Package sat is the repo's third exact certain-answer engine: it
// decides "is tuple t an answer in every repair?" without exploring the
// chain, following the CAvSAT reduction (Dixit & Kolaitis) adapted to
// the operational repair space of the source paper, and exports that
// question as CNF for external solvers.
//
// # Certain answers
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
// The repair deleting every conflicted fact is one of them, so a
// candidate tuple is certain exactly when some witness — a homomorphism
// image in the FULL database whose projection is the tuple — uses no
// conflicted fact. Encoder.CertainAnswers reads that off
// fo.Query.Lineage, one pass over the database shared with the samplers
// (repairs are subsets of the database and CQs are monotone, so no
// repair has a witness the database lacks). The sequence space of the
// chain never enters: instances whose DAG exploration would need 2^63+
// sequences answer in microseconds.
//
// # Encoding
//
// Encoder.WriteDIMACS exports each candidate's "tuple is NOT certain"
// formula. The Encoder assigns one boolean per conflicted fact ("the
// repair keeps it") and encodes each group's cardinality constraint —
// pairwise for small groups, the sequential ladder encoding above that
// (CNF.AtMostOne). Each distinct witness of the candidate contributes
// one witness clause, the disjunction of the negated keep-variables of
// its conflicted facts. The conjunction
//
//	group constraints ∧ all witness clauses of t
//
// is satisfiable iff some repair breaks every witness, i.e. iff t is NOT
// certain; a candidate with a conflict-free witness exports the empty
// clause. The property suite decides every exported formula by
// exhaustive assignment enumeration against brute-force certain answers.
//
// The classic subset-maximal repairs (exactly one fact per group, the
// space CAvSAT itself targets) are answered by abc.CertainAnswers.
//
// core.ComputeCertainSAT is the engine's front door; cmd/ocqa surfaces
// it as -mode sat.
package sat
