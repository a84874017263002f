// Package abc implements the classical Arenas–Bertossi–Chomicki repair
// semantics [[D]]^{ABC}_Σ used by the paper as the baseline: repairs are
// consistent databases over dom(D) and the constants of Σ whose symmetric
// difference with D is minimal under set inclusion, and consistent query
// answers are the certain answers over all repairs.
//
// # Key pieces
//
//   - Repairs / CertainAnswers: enumeration of ABC repairs and the
//     certain-answer semantics over them.
//   - Variants for the Proposition 4/5 comparisons: set-minimal,
//     cardinality-minimal, and superset repairs.
//   - conflict.go: the conflict-graph machinery the enumeration branches
//     on.
//   - partition.go, trie.go: the resident form of the conflict
//     components — a persistent Partition whose islands hold the
//     violations that induce them (a resident server keeps no other
//     violation store) and whose fact→island index is a path-copying trie
//     keyed by the interned fact id. Update re-partitions only the region
//     touched by a violation delta, copies only the trie nodes on the
//     touched facts' paths, and shares every unaffected Island (payload
//     and all) and trie node with its predecessor, so an older partition
//     keeps answering as it did. The island and violation counts are
//     maintained; the smallest-fact order of all islands (Islands,
//     Components, Violations) is built lazily, once per partition. This is
//     engine machinery, not baseline: internal/core's factored semantics
//     and internal/serve's resident server are built on it.
//
// # Invariants
//
//   - For constraint sets without TGDs (EGDs and DCs only) satisfaction is
//     antimonotone, so ABC repairs are exactly the maximal consistent
//     subsets of D; these are enumerated by branching on violation bodies.
//     With TGDs the package falls back to exhaustive search over subsets
//     of the base — feasible only for the small instances in tests and
//     experiments, which is the point: this package is a reference
//     baseline, not an engine.
//
// # Neighbors
//
// Below: internal/relation, internal/constraint. Used by internal/core's
// comparison tests and cmd/experiments to reproduce the paper's
// operational-vs-ABC contrasts (Propositions 4 and 5), and — via
// Partition — by internal/core's factored engine and internal/serve's
// resident server.
package abc
