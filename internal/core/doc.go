// Package core implements the paper's central contribution: operational
// repairs (Definition 6), the repair semantics [[D]]_{MΣ} of an
// inconsistent database, exact operational consistent query answering
// (Definition 7 and the OCQA problem of Section 4), and the TPC decision
// problem of Section 5 — under two semantics modes: the walk-induced
// distribution of PODS 2018 and the sequence-uniform distribution of
// PODS 2022 (uniform over complete repairing sequences).
//
// # Key types
//
//   - Semantics: [[D]]_{MΣ} — repairs with exact big.Rat probabilities,
//     success/fail mass, and exact big.Int sequence counts. Derived
//     observables: CP (conditional probability), OCA (operational
//     consistent answers), Certain, TPC, AnswerCountDistribution. For
//     TGD-free Σ, CP and OCA answer a conjunctive query (every output
//     variable in the body) from its witness lineage over the initial
//     database (fo.Query.Lineage): a repair answers a candidate iff one
//     of its witnesses survives, so no join runs per repair. Other
//     queries and TGD instances are evaluated on every repair.
//   - SemanticsMode (mode.go, aliasing markov.SemanticsMode): WalkInduced
//     weighs a repair by Σ π(s) over the sequences producing it;
//     SequenceUniform weighs it by its share of complete sequences. The
//     support is identical either way — only the mass moves.
//   - Compute / ComputeMode: entry points. Exact computation explores the
//     full chain and is exponential in general (Theorem 5: OCQA is
//     FP^{#P}-complete). Collapsible chains (memoryless generator,
//     TGD-free Σ) route to the DAG engine; everything else takes the
//     sequence tree.
//   - ComputeTreeMode / ComputeDAGMode: the two engines, mode-threaded.
//     Both explorations return a *markov.DAG of leaves merged by result
//     database, and one assembly turns either into a Semantics.
//     The tree under SequenceUniform *is* brute-force sequence
//     enumeration; the DAG reads uniform weights off the propagated
//     sequence counts, so the uniform mode is exact even when the counts
//     exceed 2^63.
//   - ComputeFactored (factored.go): the Section 6 conflict-component
//     factorization for *local* generators — walk-induced only (uniform
//     mass does not factor across components, because interleavings weigh
//     components by sequence length; exact sequence *counts* still factor,
//     via Factored.TotalSequences under ExploreOptions.TrackLengths).
//     Components explore on a worker pool (ExploreOptions.Workers) and,
//     for StructuralGenerator weights (uniform, uniform-deletions),
//     isomorphic components share one exploration through a cache keyed
//     by the component's canonical form up to constant renaming — exact
//     conditional probabilities at million-fact scale (experiment E18).
//     The form (canon.go) is computed by colour refinement over the
//     constants plus individualization–refinement search, taking the
//     lexicographically least relabelled fact set; constants whose
//     transposition is an automorphism prune symmetric branches, and past
//     a fixed search budget a component keeps its first-occurrence
//     renaming. Keys compare canonical fact ids, never hashes, so
//     equal keys always mean isomorphic components.
//     ComputeFactored is the from-scratch form of ComputeFactoredDelta,
//     the one factored build: it carries the components a delta left
//     untouched and explores the fresh islands it is handed (build.go);
//     internal/serve calls it once per publication. A component lives as
//     its abc.Island's payload, so Factored.Components, the one
//     O(components) view, is assembled lazily from the partition. Factored.CP/OCA answer atomic queries from
//     fact marginals and conjunctive queries from witness lineage groups:
//     the components one candidate's witnesses link form a group, groups
//     are independent, and each enumerates only its own components'
//     repairs under the 2^20 budget.
//   - Aggregate queries (aggregate.go) and UniformOverRepairs (the
//     "equally likely repairs" measure of Section 6) round out the
//     semantics variants.
//
// # Invariants
//
//   - All probability arithmetic is exact (big.Rat); floats appear only in
//     formatting. Engine equivalence (tree ≡ DAG, both modes) is proven
//     bit-identically by dag_equivalence_test.go and uniform_test.go.
//   - Repairs are reported in database-key order; answers in lexicographic
//     tuple order — never in interned-id order, which is process-local.
//
// # Neighbors
//
// Below: internal/markov (exploration), internal/repair, internal/fo
// (query evaluation), internal/prob. Sibling: internal/sampling is the
// approximate counterpart of both modes. Above: cmd/ocqa,
// cmd/experiments, examples/*.
package core
