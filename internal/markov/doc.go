// Package markov implements repairing Markov chains (Definition 5 of the
// paper): tree-shaped Markov chains whose states are repairing sequences,
// whose absorbing states are exactly the complete sequences, and whose
// transition probabilities are supplied by a Generator (the paper's
// repairing Markov chain generator M_Σ).
//
// # Key types
//
//   - Generator: assigns transition probabilities to the valid extensions
//     of a state. Implementations live in internal/generators.
//   - Markovian: the capability interface for memoryless generators —
//     Transitions is a pure function of (s.Result(), exts). Combined with
//     a TGD-free Σ (Collapsible), it licenses collapsing the sequence
//     tree into the DAG of distinct sub-databases.
//   - IntWeighter: the integer-weight fast path; random walks step with a
//     single RNG draw and zero big.Rat work, and ExploreDAG forms its edge
//     probabilities from the weights — both bit-identical to the exact
//     Transitions path.
//   - Explore / ExploreDAG: exact exploration, both returning a *DAG
//     whose leaves are the absorbing databases (merged by database, with
//     hitting mass, sequence count and optional per-length counts).
//     Explore is the single sequence-tree DFS (walkTree, shared with
//     BuildTree's renderable tree); it resolves edges through Step, so
//     it is the reference the DAG is checked against. ExploreDAG runs the
//     single level sweep (sweep, dag.go): it merges states by database
//     identity, sweeps size levels in decreasing order (every
//     deletion-only edge shrinks the database, so size classes are a
//     topological order), accumulates exact path mass π and big.Int
//     sequence counts per node, and expands each frontier with a worker
//     pool.
//   - SemanticsMode (mode.go): walk-induced vs sequence-uniform — which
//     distribution over complete sequences the layers above compute.
//   - SequenceDAG (seqdag.go): the counting-to-sampling reduction.
//     BuildSequenceDAG runs the same level sweep, recording each node's
//     edges, then an upward pass turns them into per-node completion
//     counts; count-guided walks then draw complete sequences exactly
//     uniformly, which internal/sampling uses for the uniform semantics.
//
// # Two-tier state keys
//
// The engines use a two-tier key scheme. The merge tier is binary: states
// are grouped by the packed sorted-fact-id encoding (Database.IDKey /
// relation.AppendIDKey), and a child's key is derived from its parent's
// cached ids by one binary search plus two packed runs
// (repair.State.AppendChildIDKey) — each level first computes every edge's
// key, then materializes one repair.State per *distinct* child database.
// Packed keys are process-local (they depend on interning order) and never
// leave the process. The presentation tier is the human-readable
// Database.Key(): it appears exactly once per absorbing database, when
// DAGLeaf.Key is emitted, and in everything layered above (reported repair
// order, HTTP JSON). The two keys group states identically — both encode
// exactly the fact set — they only sort differently.
//
// # Invariants (the determinism contract)
//
//   - Exact arithmetic is rational end to end; hitting distributions sum
//     to exactly 1 or the exploration errors (ErrNotWellDefined). Path
//     mass accumulates through prob.Rat — an int64 fast path that promotes
//     to big.Rat exactly on overflow — and the *big.Rat a consumer sees is
//     bit-identical to all-big.Rat arithmetic (big.Rat is canonical, and
//     exact rational addition is order-insensitive).
//   - ExploreDAG and BuildSequenceDAG produce bit-identical results for
//     every Workers value: levels merge sequentially in sorted-key order,
//     and workers only compute per-node expansions.
//   - Markovian implementations must be safe for concurrent Transitions /
//     IntWeights calls (the worker pool calls them from goroutines).
//   - Collapsing is gated, never assumed: history-dependent generators and
//     TGD constraint sets take the sequence tree (ErrNotCollapsible), and
//     the equivalence suite in internal/core proves the gate is
//     load-bearing.
//
// # Neighbors
//
// Below: internal/repair (states), internal/ops, internal/prob. Above:
// internal/generators (implementations), internal/sampling (walks),
// internal/core (assembles Semantics from explorations).
package markov
