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
//     identity, sweeps levels in decreasing order of the conflicted facts
//     a state holds (every deletion-only edge removes some, so the levels
//     are a topological order), accumulates exact path mass π and
//     sequence counts (prob.Count, a uint64 that promotes to big.Int)
//     per node, and expands each frontier with a worker pool.
//     ExploreDAGMode under SequenceUniform (what core.ComputeDAGMode
//     runs for that semantics) propagates only the support and the
//     sequence counts: no edge probabilities, no π, nil DAGLeaf.Pi.
//   - SemanticsMode (mode.go): walk-induced vs sequence-uniform — which
//     distribution over complete sequences the layers above compute.
//   - SequenceDAG (seqdag.go): the counting-to-sampling reduction.
//     BuildSequenceDAG runs the same level sweep without masses,
//     recording each node's edges, then an upward pass turns them into
//     per-node completion counts (int64 edge weights and their total
//     where they fit, big.Ints past that); count-guided walks then draw
//     complete sequences exactly uniformly, stepping node to node and
//     returning the leaf's conflict key, which internal/sampling uses for
//     the uniform semantics.
//
// # Two-tier state keys
//
// The engines use a two-tier key scheme. The merge tier is binary: a
// TGD-free chain only deletes conflicted facts, so the DAG engines group
// states by conflict key — the bitset of the root's conflicted facts a
// state still holds, numbered by interned id (repair.ConflictIndex). A
// child's key is its parent's with the operation's bits cleared, and a
// node's extensions are the root's filtered by the key, so each level runs
// in two phases: expand every frontier node (its state is a
// repair.State.DeferredChild that holds the extension list and the node's
// key but builds its database and violations only when a generator or
// caller reads them — the uniform generators read only the extensions,
// the preference generator only the key), then merge the edges in key
// order. Conflict keys are process-local (they
// depend on interning order) and never leave the process. The tree engine
// Explore merges its leaves by the packed sorted-fact-id encoding
// (Database.IDKey). The presentation tier is the human-readable
// Database.Key(): it appears exactly once per absorbing database, when
// DAGLeaf.Key is emitted, and in everything layered above (reported repair
// order, HTTP JSON). The keys group states identically — each encodes
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
//     and workers only compute per-node expansions. A panic during an
//     expansion (a generator's, say) is recovered on the worker and
//     fails the exploration with ErrPanicked, naming the state, on one
//     worker or many.
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
