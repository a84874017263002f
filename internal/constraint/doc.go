// Package constraint implements the three constraint classes of the paper
// — tuple-generating dependencies (TGDs), equality-generating dependencies
// (EGDs), and denial constraints (DCs) — together with satisfaction
// checking and the violation sets V(D,Σ) of Definition 2.
//
// # Key types
//
//   - Constraint: one dependency; Kind() reports TGD/EGD/DC. Constructors
//     (NewTGD/NewEGD/NewDC and Must* variants) validate shape.
//   - Set: an immutable constraint set Σ with derived facts the layers
//     above branch on: HasTGDs (the DAG-collapse gate), key-shaped-EGD
//     recognition (the practical scheme), MayIntroduceViolations (the
//     req2 fast path).
//   - Violation: one homomorphism witnessing a violated constraint,
//     interned per constraint so violation identity is an integer id and
//     a violation's canonical Key() is built at most once.
//   - Violations: an id-sorted violation set. FindViolations computes
//     V(D,Σ) from scratch; UpdateViolationsDiff maintains it across a
//     single operation (delta.go — the Section 6 localization idea), which
//     is what makes a chain step O(affected) instead of O(|D|).
//
// # Invariants
//
//   - Violations sets are immutable once built, except through
//     DeleteFacts, which only the owner of an unshared set may call; the
//     diff maintenance returns a new set plus the violations that
//     disappeared (the chain layer's req2 bookkeeping and the extension
//     filter depend on that "gone" list being exact).
//   - For EGD/DC constraints, violations only ever disappear along a
//     deletion-only walk — the monotonicity the repair layer's
//     parent-extension filtering and the markov DAG collapse both lean on.
//     The deletion rule (a violation disappears iff its body lost a fact)
//     is written once, in appendUndeleted: UpdateViolationsDiff applies it
//     per constraint into a new set, and Violations.DeleteFacts applies it
//     to a whole TGD-free set in place, which is how walk steps use it.
//
// # Neighbors
//
// Below: internal/logic, internal/relation. Above: internal/ops (justified
// tests consult violations), internal/repair (state bookkeeping),
// internal/markov (collapsibility asks Sigma().HasTGDs()).
package constraint
