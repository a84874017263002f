// Package serve is the resident OCQA engine behind cmd/ocqad: it keeps a
// database, the conflict partition (which holds the violations, island by
// island), and the factored repair semantics live in memory, answers
// queries from snapshots that never block, and absorbs fact insertions and
// retractions with work proportional to the delta — not the database.
//
// # Key pieces
//
//   - Server: the engine. A coordinator goroutine applies ingested
//     batches, coalescing everything queued behind the batch in hand into
//     one publication; queries read the current Snapshot through an
//     atomic pointer.
//   - Snapshot: one immutable serving state (database, partition,
//     factored semantics). Readers may hold one across ingests;
//     superseded snapshots stay fully queryable. Snapshot.Violations
//     assembles the flat violation set from the islands on demand, for
//     tests and diagnostics.
//   - Op / Ingest: the write path. Each batch clones the database
//     (relation.Database.Clone, O(delta) copy-on-write), then handles each
//     run of same-kind operations in turn: an insertion run finds the
//     violations it introduces by the semi-naive search around the
//     inserted facts (constraint.IntroducedViolations), a deletion run the
//     violations it eliminates in the islands of the deleted facts
//     (constraint.EliminatedBy), and either advances the persistent
//     partition by one abc.Partition.Update, which re-partitions the
//     touched islands and path-copies their facts' trie entries. Σ is
//     TGD-free, so an insertion never eliminates and a deletion never
//     introduces. Last, core.ComputeFactoredDelta — the same factored
//     build as the initial snapshot — explores the islands that are new in
//     the final partition, on the Options.Workers pool, and carries every
//     other component's semantics verbatim. No step copies or scans a
//     structure as large as the database or the island list; the one
//     O(|D|) term left is the database's own snapshot fold (Seal), which
//     the copy-on-write substrate runs once its delta reaches a few hundred
//     facts. The coordinator is the only goroutine the Server keeps; build
//     workers live for one publication.
//   - The op log (Options.LogPath): an append-only record of each
//     publication's applied operations, replayed on startup so a
//     restarted server rebuilds the exact pre-shutdown snapshot — same
//     version, same stats — instead of serving the stale base corpus.
//   - Handler: the HTTP/JSON surface (/healthz, /v1/stats, /v1/ingest,
//     /v1/query, /v1/fact); every response carries the snapshot version
//     it was answered from.
//
// # Invariants
//
//   - Served answers are bit-identical to computing core.ComputeFactored
//     from scratch on the post-delta database, for every Workers setting
//     and every coalescing pattern: component reuse is
//     exact (a component whose facts and violations are untouched has
//     the same local semantics), explorations are pure functions of the
//     island's facts, and the exact rational arithmetic is
//     order-independent.
//   - Batches are atomic: a reader sees either none or all of a batch,
//     and the Snapshot's database, partition, and semantics are always
//     mutually consistent. A batch whose build fails (say a
//     component past Options.MaxStates, or a generator that panics
//     while a component is explored, which the exploration recovers
//     into markov.ErrPanicked) fails every caller it coalesced and
//     leaves the served snapshot, stats, op log, and structural cache
//     as they were.
//   - The structural semantics cache (core.SemanticsCache) is shared
//     across all deltas of a Server, so recomputed components isomorphic
//     to anything previously explored cost a renaming, not a DAG
//     exploration. Σ must therefore stay fixed for the Server's lifetime
//     (it does: Server has no way to change it). Snapshot and payload
//     identity is binary end to end: cache keys are the packed fact ids
//     of the island's canonical form up to constant renaming
//     (relation.AppendIDKey), and an exploration merges the island's
//     repair states by conflict key, the bitset of the island's
//     conflicted facts a state still holds (repair.ConflictIndex). The
//     human-readable Database.Key is built once per repair of an
//     explored island (markov.DAGLeaf.Key, which orders the repairs)
//     and in the HTTP JSON presentation layer.
//   - Conjunctive queries are answered exactly from their witness
//     lineage: only the components a tuple's witnesses link are
//     enumerated, so a two-atom probe of one island is exact however many
//     islands the snapshot holds. Non-atomic queries that still overflow
//     the exact enumeration budget degrade to the (ε, δ) sampling
//     estimator instead of failing; the response's exact flag reports
//     which route answered.
//
// # Neighbors
//
// Below: internal/core (factored semantics and delta recomputation),
// internal/abc (resident partition), internal/constraint (violation
// maintenance), internal/relation (copy-on-write databases),
// internal/parse (the HTTP text syntax). Above: cmd/ocqad, the CLI
// binary that wires a corpus into a listening server.
package serve
