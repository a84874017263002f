// Package practical implements the implementation sketch at the end of
// Section 5 of the paper for the common case of key violations and
// deletion updates:
//
//	The user sets ε and δ and computes n = ⌈ln(2/δ)/(2ε²)⌉. Then, n times:
//	from each group of tuples violating a key, randomly pick at most one
//	tuple to be left, collecting the others in R_del; run the original
//	query with each relation R replaced by R − R_del; append the outcome
//	to a table T. Finally return n_t̄ / n for every tuple t̄ of T.
//
// The random draw "keep exactly one, uniformly" corresponds to the
// classical one-tuple-per-key repairs; the optional drop-all probability
// implements the paper's "at most one" reading, mirroring the trust
// example of the introduction where neither conflicting source is
// believed.
//
// # Key types
//
//   - Runner: the n-round pipeline over a plan.Catalog. It seals the
//     catalog's database once, enumerates key-violating groups through the
//     per-predicate argument indexes (once per run, not per round;
//     Result.Groups reports their number), and runs rounds on a worker
//     pool. RunQuery accepts fo queries directly (the cmd/ocqa path); Run
//     accepts plans, compiling conjunctive ones to a query (plan.AsQuery).
//   - Lineage rounds: a conjunctive query whose output variables all occur
//     in its body is answered from its witness lineage (fo.Query.Lineage),
//     built once per run with the groups' facts as the conflicted list. A
//     round marks its R_del in a per-worker dead set and counts the
//     candidates that still answer by index; it copies no database and
//     runs no join. This is exact because every round's repair is a subset
//     of D and CQs are monotone.
//   - Clone-and-evaluate rounds, for every other query or plan: each
//     round's repair R − R_del is an O(|R_del| log |R_del|) copy-on-write
//     clone, evaluated by the query or the plan algebra.
//   - Policy / SampleRdel / KeyGroups: the per-group draw law (keep member
//     i with probability (1−DropAll)/m, drop all with probability
//     DropAll), pinned by TestSampleRdelKeptTupleLaw.
//
// # Invariants
//
//   - Per-round RNGs derive from (Seed, round) via prob.SplitMix, both
//     round kinds draw each group through one function (drawKeep), and
//     group enumeration is canonically ordered, so a Result is
//     bit-identical for every Workers value and between the lineage, the
//     compiled-CQ and the algebra evaluation paths.
//   - The scheme estimates the walk-induced practical distribution over
//     one-tuple-per-key repairs; it is NOT an estimator for the
//     sequence-uniform semantics (cmd/ocqa rejects that combination).
//
// # Neighbors
//
// Below: internal/plan (catalog + algebra), internal/relation,
// internal/fo, internal/prob. Siblings: internal/sampling estimates the
// chain semantics the exact engines in internal/core compute.
package practical
