// Package generators provides repairing Markov chain generators M_Σ: the
// uniform generator M^u_Σ of Proposition 4, the support-based preference
// generator of Example 4, the trust-based data-integration generator of
// Example 5, deletion-only generators (Proposition 8), and a generic
// weight-function generator for user-defined policies.
//
// # Key types
//
//   - Uniform: 1/k over the k valid extensions. Memoryless, integer
//     weights, local — eligible for every engine in the stack.
//   - UniformDeletions: uniform over deletion extensions only; non-failing
//     for every TGD/EGD/DC set by Proposition 8.
//   - Preference: weighs deletions by support counts across the whole
//     database (Example 4) — memoryless but NOT local, the canonical
//     witness that the DAG collapse needs less than factorization does.
//     Without TGDs the weights are read off the state's conflict key
//     (repair.State.ConflictKey) through a table built once per conflict
//     index and predicate and held by the index, so neither a walk nor
//     the DAG sweep builds a database for it; Transitions divides the
//     same integer weights by the involved total. Under TGDs they are
//     counted in the state's database.
//   - Trust: per-fact trust levels (Example 5); NewTrust sets a default,
//     Set overrides per fact.
//   - WeightFunc: adapts a user callback. Deliberately NOT Markovian —
//     the callback sees the whole state and may depend on history, so it
//     always takes the sequence-tree engine.
//
// # Invariants
//
//   - Each generator declares its capabilities honestly via the optional
//     interfaces (markov.Markovian, markov.IntWeighter, core's
//     LocalGenerator): the engines trust the declarations, and the
//     equivalence suites exist to keep them honest.
//   - Transitions must return non-negative probabilities summing to
//     exactly 1 for every reachable state; the uniform family shares one
//     *big.Rat across equal-weight edges so the chain machinery can
//     recognize uniformity by pointer.
//   - Memoryless generators must tolerate concurrent Transitions /
//     IntWeights calls (parallel DAG frontiers).
//
// # Neighbors
//
// Below: internal/markov (the Generator contract), internal/repair,
// internal/ops, internal/prob. Above: every pipeline that explores or
// samples a chain (core, sampling, cmd/*).
package generators
