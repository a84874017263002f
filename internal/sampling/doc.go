// Package sampling implements the randomized approximation machinery of
// Section 5 of the paper — and its extension to the sequence-uniform
// semantics of PODS 2022.
//
// # Key types
//
//   - Walk / stepper (walk.go): one random walk down the repairing Markov
//     chain. One stepper serves both walkers: in walk mode it steps with
//     the generator's own probabilities, in uniform mode (the SNIS
//     proposal) it picks uniformly among the support and adds log k to
//     the walk's log weight. Generators exposing integer weights
//     (markov.IntWeighter) step without big.Rat arithmetic, bit-identical
//     to the exact path, once markov.CheckedIntWeights accepts the
//     weights (one per extension, non-negative, positive total within
//     int64); other weights go through markov.Step, so a bad generator
//     gets ErrNotWellDefined from every engine. Every live step advances
//     the worker's repair.Cursor. For TGD-free Σ that is a key walk: the
//     step clears the operation's bits in the state's conflict key, drops
//     the root violation bodies they held and filters the live extension
//     list in place, with no allocation once warm; the state's database
//     and violation set stay pending until a generator (preference,
//     trust) or the answerer reads them, and then catch up in place by
//     the operations taken since the last read. Uniform and
//     uniform-deletions walks build neither. Under TGDs a cursor step is
//     repair.State.ChildInPlace, which keeps the Definition 4 history.
//   - The walk tree (walkMemo): when Σ has TGDs and the generator has
//     integer weights, each estimator worker keeps a prefix tree of the
//     chain, built lazily and keyed by the ops along each path. A kept
//     node holds its support, weights and child slots; a kept leaf its
//     success flag and packed answers. A walk descends kept nodes at the
//     cost of its draws, replays the path's ops from the root at the
//     first position the tree lacks, and continues live, keeping the
//     nodes it passes until a fixed per-worker entry budget
//     (memoEntries) is spent. Under TGDs a live step enumerates additions
//     over the base domain and re-checks Definition 4 against the whole
//     sequence, and the estimator's walks share most prefixes. TGD-free
//     walks keep the live key step: there most prefixes are distinct,
//     and a tree only costs memory.
//   - Estimator: n-walk estimation. For the walk-induced mode (the zero
//     value of Mode) it is the additive-error scheme of Theorem 9:
//     n = ⌈ln(2/δ)/(2ε²)⌉ samples put every tuple estimate within ε of
//     CP(t̄) with probability ≥ 1−δ (Hoeffding), for non-failing
//     generators.
//   - Estimator.Mode = markov.SequenceUniform (uniform.go): estimates the
//     uniform-over-sequences semantics. Collapsible chains get exact
//     uniform draws via count-guided walks over a markov.SequenceDAG,
//     which hand the drawn leaf's conflict key to the answerer (the
//     Hoeffding guarantee carries over); everything else falls back to
//     self-normalized importance sampling from the uniform-support walk
//     (no finite-sample guarantee; Run.Weighted and Run.ESS report it).
//   - Answering walks: when Σ has no TGDs every step deletes a fact of a
//     root violation, so each result is D minus some involved facts,
//     named by its conflict key. A conjunctive query whose output
//     variables all occur in its body is then answered from its witness
//     lineage (fo.Query.Lineage, built once per run over the initial
//     database with the root's involved facts as the conflicted list): a
//     successful walk marks the involved facts its key no longer holds,
//     through one precomputed key bit per fact, and reads the answers off
//     the lineage, for walk mode and both uniform paths alike. TGD
//     instances (walks may insert facts) and other queries evaluate the
//     query on every result: a live walk's state catches up once, at the
//     leaf; a count-guided draw's database is built from its key.
//   - Failures: a panic in a worker (a generator's, say) is recovered and
//     fails the call with markov.ErrPanicked, naming the walk, on one
//     worker or many.
//   - Run / TupleEstimate: results, sorted lexicographically by tuple.
//
// # Invariants (the determinism contract)
//
//   - Every walk's RNG is a pure function of (Seed, walk index) via the
//     O(1)-seeding prob.SplitMix, never of the worker that runs it; tallies
//     merge by summation (walk mode) or in walk-index order (uniform
//     mode, where weighted sums are floating-point). A Run is therefore
//     bit-identical for every Workers value.
//   - A walk-tree node's content is a pure function of its path, and a
//     walk draws exactly the live walk's random numbers, so memoized and
//     live walks end in the same place and Runs stay bit-identical with
//     the tree on, off, or out of budget.
//   - For failing chains the package reports the conditional ratio
//     estimate alongside the raw counts but attaches no guarantee to it —
//     approximating the ratio is the paper's stated open problem.
//
// # Neighbors
//
// Below: internal/markov (Step, IntWeighter, SequenceDAG),
// internal/repair, internal/prob (SplitMix, Hoeffding bound),
// internal/fo. Sibling: internal/core computes the same two semantics
// exactly; the equivalence tests bound this package's estimates by those
// exact values.
package sampling
