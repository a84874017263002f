// Package repair implements repairing sequences of operations
// (Definition 4 of the paper): sequences of justified operations subject
// to req1 (every step eliminates a violation), req2 (eliminated violations
// never reappear), no-cancellation (a fact added is never removed and vice
// versa), and global justification of additions.
//
// # Key types
//
//   - Instance: the fixed context of a repairing process — the initial
//     database D (cloned and sealed once, so every walk's root clone is
//     O(1)), the constraint set Σ, the base B(D,Σ), and per-instance
//     caches: justified deletions per violation body, the root violation
//     set, and the root extension list, all computed once and shared by
//     every concurrent walker.
//   - State: one repairing sequence with the database it produces and the
//     incremental bookkeeping to check Definition 4 per step (under TGDs
//     only, behind a pointer). States form a tree; Child builds the child
//     in fresh storage and only reads the parent (databases are
//     copy-on-write, bookkeeping is id-sorted slices) and is the reference
//     transition of the tree engine; ChildInPlace hands the parent's
//     storage on for walks under TGDs, which discard the parent.
//   - ConflictIndex and DeferredChild (conflict.go): TGD-free states as
//     conflict keys. Every reachable database is the initial one minus
//     some of the root's conflicted facts, so a ConflictIndex — built
//     once per Instance on first use (Instance.Conflicts) and shared by
//     the DAG sweeps and the walks — names a state by the bitset of the
//     conflicted facts it still holds, derives a child's key by clearing
//     the operation's bits, and a state's extensions by filtering the
//     root's. DeferredChild makes the state in O(1) from its parent,
//     operation, extension list and key for the DAG sweep; its database
//     and violations are built from the root on first read.
//   - Keyed states (State.ConflictKey): every TGD-free state names its
//     conflict key — a Cursor's state the cursor's key and held-body
//     bitset, read in place; a DeferredChild the key the sweep handed it;
//     a root the index's root key; a Child-built state a key derived from
//     its database. A ConflictKey answers which conflicted facts the state
//     holds, which root bodies it holds whole and which facts are involved
//     in its violations, and the index maps bits to facts and bodies to
//     bits (Fact, Bit, Body), so a generator reads V_Σ(D) without a
//     violation set. ConflictIndex.Table holds tables that packages above
//     derive once per index (the preference generator's weights).
//   - Cursor (cursor.go): the walkers' step. Without TGDs it advances a
//     conflict key, a bitset of held root bodies and the live extension
//     list in place (O(bodies the operation touches + live extensions),
//     no allocation once warm); its state's database and violations stay
//     pending and catch up in place, by the operations taken since the
//     last read, when a generator or caller reads them. Under TGDs a step
//     is ChildInPlace, and the walk's Definition 4 history is the
//     cursor's, reused from walk to walk.
//   - Walk / Survey / Validate (walk.go): a full-tree traversal, summary
//     statistics, and an independent from-scratch transcription of
//     Definition 4 that the property tests check the incremental State
//     machinery against.
//
// # Invariants
//
//   - States are immutable after creation, except that the first
//     Result or Violations call on a DeferredChild builds them (so that
//     first read must not race another call on the same state), and that
//     a Cursor's state moves with the cursor (valid until its next Step
//     or Reset); Extensions() is cached, deterministic, and canonically
//     ordered (ops.SortOps order).
//   - For TGD-free Σ the operation space is deletion-only: a step can only
//     remove violations and extensions. The child's violations are the
//     parent's filtered by the EGD/DC deletion rule
//     (constraint.Violations.DeleteFacts), and its extensions are the
//     parent's filtered to the surviving violation bodies. Child runs this
//     transition into fresh storage (deletionChild, re-checking only the
//     operations that meet an eliminated body); a Cursor and the DAG
//     sweep read the same filter off the conflict key — the root
//     extensions with an owner body the key still holds, in root order —
//     and it is the structural fact behind the DAG collapse in
//     internal/markov. A DeferredChild reaches the same state in one step
//     from the root: the initial database minus every deleted fact, the
//     root violations minus those that lose a body fact
//     (constraint.Violations.WithoutFacts).
//   - Without TGDs no Definition 4 history (eliminated violations, added
//     and removed facts) is kept: admissibility is automatic, so nothing
//     reads it.
//   - ChildInPlace (under TGDs; without them it is Child) hands the
//     receiver's database and violation set on to the child, which
//     updates them in place. The receiver must not be used afterwards;
//     its database is nilled to surface misuse.
//   - The instance's root caches (rootViolations, rootExts, the conflict
//     index) are shared by every root state and every concurrent walker
//     and are never written: a cursor copies the root extension list into
//     its own buffer at Reset, and clones the root violations on the
//     first read of a walk.
//
// # Neighbors
//
// Below: internal/relation, internal/constraint, internal/ops. Above:
// internal/markov (chains are distributions over this tree),
// internal/sampling (random walks), internal/core (semantics).
package repair
