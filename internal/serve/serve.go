package serve

import (
	"errors"
	"math/big"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/abc"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/markov"
	"repro/internal/relation"
)

// ErrClosed is returned by Ingest after Close.
var ErrClosed = errors.New("serve: server closed")

// Options tunes a Server.
type Options struct {
	// Workers sizes the component worker pool of every build — the initial
	// one and each publication's fresh islands — and the inner DAG
	// exploration of single-island deltas (≤ 0 means GOMAXPROCS). Served
	// answers are bit-identical for every value.
	Workers int
	// Deprecated: ignored. Publications explore their fresh islands on the
	// Workers pool; the field stays until its last callers drop it.
	Shards int
	// MaxStates bounds each component's DAG exploration (0 = unbounded).
	MaxStates int
	// Eps and Delta are the sampling guarantee used when a non-atomic query
	// overflows the exact enumeration budget and degrades to the (ε, δ)
	// estimator; they default to 0.05 each.
	Eps, Delta float64
	// Seed seeds the degradation estimator, so a query repeated against the
	// same snapshot returns the same estimate.
	Seed int64
	// QueueDepth sizes the ingest queue feeding the writer goroutine and
	// bounds how many queued requests one publication may coalesce
	// (default 64).
	QueueDepth int
	// NoCache disables the structural semantics cache (cold-cache
	// benchmarks and the trust-style generators that bypass it anyway).
	NoCache bool
	// LogPath, when non-empty, persists every publication's applied
	// operations to an append-only op log at that path and replays the log
	// on startup, so a restarted server rebuilds the exact pre-shutdown
	// snapshot — same version, same stats — instead of serving the stale
	// base database. Replay parity requires restarting with the same base
	// database and Options. Records are not fsynced: an OS crash can lose
	// the tail, and a torn final record is truncated away on restart.
	LogPath string
}

func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 0.05
	}
	if o.Delta <= 0 {
		o.Delta = 0.05
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	return o
}

// compactLimit bounds the copy-on-write delta a served database may
// accumulate before publication folds it into a fresh snapshot. In practice
// the fold comes earlier: the first insertion's violation search on a
// database whose delta has reached the homomorphism search's auto-seal
// floor (256 facts) seals it, so this bound only caps deletion-only
// streams.
const compactLimit = 4096

// Op is one ingested change: a fact inserted or retracted.
type Op struct {
	Fact   relation.Fact
	Insert bool
}

// Stats describes a published snapshot.
type Stats struct {
	// Version counts the published snapshots (0 = the initial build).
	Version uint64 `json:"version"`
	// Facts, Violations, and Components size the snapshot.
	Facts      int `json:"facts"`
	Violations int `json:"violations"`
	Components int `json:"components"`
	// Untouched counts the facts outside every conflict component.
	Untouched int `json:"untouched"`
	// Reused, Recomputed, CacheHits, and CacheMisses describe the build
	// that published this snapshot: components carried verbatim from the
	// previous snapshot, components explored, and the structural-cache
	// traffic among the explored ones.
	Reused      int `json:"reused"`
	Recomputed  int `json:"recomputed"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// LastBatchOps and MaxBatchOps describe ingest coalescing: the applied
	// operations folded into the latest publication and the largest such
	// batch over the server's lifetime.
	LastBatchOps int `json:"last_batch_ops"`
	MaxBatchOps  int `json:"max_batch_ops"`
	// CumOps and CumRecomputed accumulate applied operations and component
	// recomputes across the server's lifetime.
	CumOps        uint64 `json:"cum_ops"`
	CumRecomputed uint64 `json:"cum_recomputed"`
	// CacheShapes is the number of distinct component shapes resident in
	// the structural cache.
	CacheShapes int `json:"cache_shapes"`
}

// Snapshot is one published, immutable serving state: the database, the
// conflict partition (which holds the violations, island by island), and
// the factored semantics, all consistent with each other. Readers obtain
// one via Server.Snapshot and may query it for as long as they like —
// later ingests publish new snapshots without invalidating old ones.
type Snapshot struct {
	DB    *relation.Database
	Part  *abc.Partition
	Fac   *core.Factored
	stats Stats
}

// Violations returns V(DB,Σ) as one ID-sorted set, assembled from the
// partition's islands on each call: for tests and diagnostics. The served
// state keeps no flat violation set.
func (sn *Snapshot) Violations() *constraint.Violations { return sn.Part.Violations() }

// Version returns the snapshot's publication version.
func (sn *Snapshot) Version() uint64 { return sn.stats.Version }

// Stats returns the snapshot's statistics.
func (sn *Snapshot) Stats() Stats { return sn.stats }

// Server is a resident OCQA engine: it holds the current Snapshot behind an
// atomic pointer (readers never block, never see a half-applied ingest) and
// funnels all ingests through a coordinator goroutine that re-maintains the
// conflict partition (and with it the violations) and the factored
// semantics with work proportional to the delta's touched region. The
// coordinator drains every request queued behind the one it is serving
// into the same publication, so N concurrent callers pay one recompute and
// one snapshot publish between them; the touched islands are explored by
// core.ComputeFactoredDelta on the Options.Workers pool, which carries
// every untouched component verbatim — served answers are bit-identical
// for every worker count. The structural semantics cache stays warm across
// deltas, so a recomputed component that is isomorphic to anything ever
// explored costs one renaming, not a DAG exploration.
type Server struct {
	sigma *constraint.Set
	gen   core.LocalGenerator
	opts  Options
	cache *core.SemanticsCache

	cur atomic.Pointer[Snapshot]

	oplog *opLog

	mu            sync.Mutex // serializes apply; the coordinator loop is the usual sole caller
	cumOps        uint64
	cumRecomputed uint64
	lastBatchOps  int
	maxBatchOps   int

	reqs      chan ingestReq
	done      chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once
}

type applyResult struct {
	snap *Snapshot
	err  error
}

type ingestReq struct {
	ops   []Op
	reply chan applyResult
}

// testHookApply, when set before New, observes every apply's coalesced
// operation batch before it runs; tests use it to hold a publication open
// while further ingests queue behind it.
var testHookApply func(ops []Op)

// New builds the initial snapshot from the database (which is copied, not
// retained), replays the op log when Options.LogPath names one, and starts
// the coordinator goroutine. The generator must be local (the factored
// engine's requirement) and Σ must be TGD-free.
func New(db *relation.Database, sigma *constraint.Set, gen core.LocalGenerator, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		sigma:    sigma,
		gen:      gen,
		opts:     opts,
		cache:    core.NewSemanticsCache(),
		reqs:     make(chan ingestReq, opts.QueueDepth),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	initial := db.Clone()
	initial.Seal()
	part := abc.NewPartition(constraint.FindViolations(initial, sigma))
	fac, err := core.ComputeFactoredDelta(initial, sigma, gen, s.explore(), s.fopt(), core.FactoredDelta{Part: part})
	if err != nil {
		return nil, err
	}
	s.cumRecomputed = uint64(part.Len())
	snap := &Snapshot{DB: initial, Part: part, Fac: fac}
	snap.stats = s.statsFor(snap, 0)
	s.cur.Store(snap)
	if opts.LogPath != "" {
		// Replay before accepting traffic: each logged record was one live
		// publication's applied operations, so re-applying them batch by
		// batch — against the same base database, options, and (initially
		// empty) structural cache — walks the identical publication
		// sequence and lands on the identical snapshot and stats. The log
		// handle is attached only afterwards so replayed batches are not
		// re-appended.
		lg, batches, err := openOpLog(opts.LogPath)
		if err != nil {
			return nil, err
		}
		for _, ops := range batches {
			if _, err := s.apply(ops); err != nil {
				lg.Close()
				return nil, err
			}
		}
		s.oplog = lg
	}
	go s.loop()
	return s, nil
}

func (s *Server) explore() markov.ExploreOptions {
	return markov.ExploreOptions{MaxStates: s.opts.MaxStates, Workers: s.opts.Workers}
}

func (s *Server) fopt() core.FactoredOptions {
	return core.FactoredOptions{NoCache: s.opts.NoCache, Cache: s.cache}
}

func (s *Server) statsFor(snap *Snapshot, version uint64) Stats {
	return Stats{
		Version:       version,
		Facts:         snap.DB.Size(),
		Violations:    snap.Part.NumViolations(),
		Components:    snap.Part.Len(),
		Untouched:     snap.Fac.Untouched.Size(),
		Reused:        snap.Fac.Reused,
		Recomputed:    snap.Part.Len() - snap.Fac.Reused,
		CacheHits:     snap.Fac.CacheHits,
		CacheMisses:   snap.Fac.CacheMisses,
		LastBatchOps:  s.lastBatchOps,
		MaxBatchOps:   s.maxBatchOps,
		CumOps:        s.cumOps,
		CumRecomputed: s.cumRecomputed,
		CacheShapes:   s.cache.Len(),
	}
}

// Snapshot returns the current published state; never nil, never blocks.
func (s *Server) Snapshot() *Snapshot { return s.cur.Load() }

// Stats returns the current snapshot's statistics.
func (s *Server) Stats() Stats { return s.cur.Load().stats }

// Ingest hands the batch to the coordinator and waits for a snapshot that
// includes it. Batches from concurrent callers are applied in queue order,
// each atomically: readers see either none or all of a batch. Requests
// queued while a publication is in flight are coalesced into the next one
// — the returned snapshot then also carries the other coalesced batches
// (all applied atomically together), and a failed build fails every caller
// it coalesced.
func (s *Server) Ingest(ops []Op) (*Snapshot, error) {
	req := ingestReq{ops: ops, reply: make(chan applyResult, 1)}
	select {
	case s.reqs <- req:
	case <-s.done:
		return nil, ErrClosed
	}
	select {
	case r := <-req.reply:
		return r.snap, r.err
	case <-s.loopDone:
		// The loop drained the queue on shutdown; it may have answered this
		// request on its way out.
		select {
		case r := <-req.reply:
			return r.snap, r.err
		default:
			return nil, ErrClosed
		}
	}
}

// Close stops the coordinator goroutine and closes the op log; pending
// ingests fail with ErrClosed. Queries keep answering from the last
// published snapshot.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	<-s.loopDone
}

func (s *Server) loop() {
	defer close(s.loopDone)
	defer func() {
		if s.oplog != nil {
			s.oplog.Close()
		}
	}()
	for {
		select {
		case req := <-s.reqs:
			// Coalesce: everything already queued behind req joins its
			// publication, so the whole backlog pays one recompute and one
			// publish. The yield is the group-commit window — senders made
			// runnable alongside this goroutine (on a small GOMAXPROCS the
			// scheduler otherwise runs the woken coordinator before the
			// remaining senders, serializing them into one-op publications)
			// get one quantum to reach the queue. The drain is bounded by
			// QueueDepth (the channel's capacity plus the request in hand)
			// so a hot ingest stream cannot defer publication indefinitely.
			runtime.Gosched()
			batch := append([]ingestReq(nil), req)
		drain:
			for len(batch) <= s.opts.QueueDepth {
				select {
				case r := <-s.reqs:
					batch = append(batch, r)
				default:
					break drain
				}
			}
			var ops []Op
			for _, r := range batch {
				ops = append(ops, r.ops...)
			}
			snap, err := s.apply(ops)
			for _, r := range batch {
				r.reply <- applyResult{snap, err}
			}
		case <-s.done:
			for {
				select {
				case req := <-s.reqs:
					req.reply <- applyResult{nil, ErrClosed}
				default:
					return
				}
			}
		}
	}
}

// apply advances the served state by one coalesced batch: an O(delta)
// clone of the current database, then, per run of same-kind operations,
// the run's violation delta and one partition update, and finally a
// delta-scoped rebuild through core.ComputeFactoredDelta, which explores
// only the fresh islands on the Options.Workers pool and carries every
// other component. Nothing here is proportional to the database or to the
// number of islands. The new snapshot is logged (when an op log is
// attached) and published atomically; the previous one stays valid for
// readers still holding it, and a failed build leaves the served state,
// counters, and log untouched.
func (s *Server) apply(ops []Op) (*Snapshot, error) {
	if h := testHookApply; h != nil {
		h(ops)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	db := cur.DB.Clone()
	part := cur.Part
	var applied []core.FactDelta
	var fresh, removed []*abc.Island
	// Consecutive effective operations of the same kind form one group: the
	// facts in a group are distinct (a repeat would have been ineffective)
	// and the violation delta is exact for set deltas, so one search and
	// one partition update cover the group. The group flushes when the kind
	// flips, keeping the per-fact application order. Σ is TGD-free (the
	// factored build refuses TGDs), so an insertion only introduces
	// violations — found by the semi-naive search around the inserted
	// facts — and a deletion only eliminates them: the violations of the
	// deleted facts' islands that lose a body fact.
	var group []relation.Fact
	var groupInsert bool
	flush := func() {
		if len(group) == 0 {
			return
		}
		var elim, intro []constraint.Violation
		if groupInsert {
			intro = constraint.IntroducedViolations(db, s.sigma, nil, group, true)
		} else {
			var seen []*abc.Island
			for _, f := range group {
				if isl := part.IslandOf(f); isl != nil && !slices.Contains(seen, isl) {
					seen = append(seen, isl)
					elim = constraint.EliminatedBy(isl.Violations(), group, elim)
				}
			}
		}
		var fr, rm []*abc.Island
		part, fr, rm = part.Update(elim, intro, group)
		fresh = append(fresh, fr...)
		removed = append(removed, rm...)
		group = nil
	}
	for _, op := range ops {
		// Flush before touching db, so the pending group's delta search runs
		// against exactly the database its own facts produced.
		if len(group) > 0 && groupInsert != op.Insert {
			flush()
		}
		var eff bool
		if op.Insert {
			eff = db.Insert(op.Fact)
		} else {
			eff = db.Delete(op.Fact)
		}
		if !eff {
			continue
		}
		groupInsert = op.Insert
		group = append(group, op.Fact)
		applied = append(applied, core.FactDelta{Fact: op.Fact, Insert: op.Insert})
	}
	flush()
	if len(applied) == 0 {
		return cur, nil
	}
	db.Compact(compactLimit)

	// removed holds every island a group dissolved, the batch's own
	// short-lived fresh islands included; their facts may return to the
	// untouched core. The islands to explore are the fresh ones that
	// survived to the final partition — exactly its islands without a
	// component payload, since carried islands brought theirs along.
	live := fresh[:0]
	for _, isl := range fresh {
		if part.IslandOf(isl.Facts[0]) == isl {
			live = append(live, isl)
		}
	}
	slices.SortFunc(live, func(a, b *abc.Island) int { return relation.CompareFacts(a.Facts[0], b.Facts[0]) })
	fac, err := core.ComputeFactoredDelta(db, s.sigma, s.gen, s.explore(), s.fopt(),
		core.FactoredDelta{Prev: cur.Fac, Part: part, Fresh: live, Removed: removed, Ops: applied})
	if err != nil {
		return nil, err
	}
	if s.oplog != nil {
		if err := s.oplog.append(applied); err != nil {
			return nil, err
		}
	}
	// The build succeeded and (when logging) persisted; only now touch the
	// resident counters, so a failed publication cannot skew them.
	s.cumOps += uint64(len(applied))
	s.cumRecomputed += uint64(len(live))
	s.lastBatchOps = len(applied)
	if s.lastBatchOps > s.maxBatchOps {
		s.maxBatchOps = s.lastBatchOps
	}
	next := &Snapshot{DB: db, Part: part, Fac: fac}
	next.stats = s.statsFor(next, cur.stats.Version+1)
	s.cur.Store(next)
	return next, nil
}

// FactProbability answers the atomic query "does the fact survive
// repairing" from the resident fact→component index of the current
// snapshot: an O(1) index probe plus a read of the component's exact
// marginal.
func (s *Server) FactProbability(f relation.Fact) (*big.Rat, uint64) {
	sn := s.cur.Load()
	return sn.Fac.FactProbability(f), sn.stats.Version
}

// CP answers the conditional-probability query on the current snapshot.
// Atomic queries read exact marginals; conjunctive queries enumerate only
// the components the tuple's witnesses link (core.Factored.CP), other
// queries the whole product distribution, exactly while the enumeration
// fits the budget, degrading to the (ε, δ) sampling estimate past it —
// exact reports which route answered.
func (s *Server) CP(q *fo.Query, tuple []string) (p *big.Rat, exact bool, version uint64, err error) {
	sn := s.cur.Load()
	p, exact, err = sn.Fac.CPOrEstimate(q, tuple, s.opts.Eps, s.opts.Delta, s.opts.Seed)
	return p, exact, sn.stats.Version, err
}

// OCA answers the operational consistent answers on the current snapshot.
// Atomic queries scan once and read marginals; conjunctive queries answer
// each candidate from its witness lineage groups, others enumerate the
// product; both under the exact budget.
func (s *Server) OCA(q *fo.Query) (*core.AnswerSet, uint64, error) {
	sn := s.cur.Load()
	as, err := sn.Fac.OCA(q)
	return as, sn.stats.Version, err
}
