package core

import (
	"fmt"

	"repro/internal/abc"
	"repro/internal/constraint"
	"repro/internal/markov"
	"repro/internal/relation"
)

// This file is the island-grained build surface of the factored engine: a
// BuildScope fixes the exploration configuration of one build (a
// from-scratch ComputeFactored call or one resident-server publication),
// opens one structural-cache accounting window, and hands out per-island
// explorations that are safe to run from any number of goroutines.
// buildFactored drives it from a per-call worker pool; internal/serve
// drives it from resident sharded writers and reassembles the Factored
// with AssembleFactored + UpdateUntouched. Explorations are pure
// functions of the island's fact set, so the scheduling — which
// goroutine, which order, which shard — never leaks into the result.

// BuildScope groups the component explorations of one factored build.
// Create one per build with NewBuildScope, Explore each fresh island from
// any goroutine, then settle the deterministic cache accounting with
// Accounting over the results in island order.
type BuildScope struct {
	sigma      *constraint.Set
	g          LocalGenerator
	opt        markov.ExploreOptions
	structural bool
	cache      *SemanticsCache
	call       uint64
}

// NewBuildScope opens a build scope. opt is used as-is for every
// exploration — callers running several explorations concurrently should
// cap opt.Workers to 1, since the island-level parallelism already
// saturates the CPUs. The structural semantics cache engages exactly as
// in ComputeFactoredOpts: a structural generator, a constant-free Σ, and
// no FactoredOptions.NoCache.
func NewBuildScope(sigma *constraint.Set, g LocalGenerator, opt markov.ExploreOptions, fopt FactoredOptions) *BuildScope {
	sc := &BuildScope{sigma: sigma, g: g, opt: opt}
	if !fopt.NoCache {
		if sg, ok := g.(StructuralGenerator); ok && sg.StructuralWeights() && len(sigma.ConstSyms()) == 0 {
			sc.structural = true
			sc.cache = fopt.Cache
			if sc.cache == nil {
				sc.cache = NewSemanticsCache()
			}
			sc.call = sc.cache.begin()
		}
	}
	return sc
}

// Explored is one island's exploration result: the component plus the
// bookkeeping Accounting needs to split the scope's cache traffic.
type Explored struct {
	Comp  *Component
	key   string
	entry *cacheEntry
}

// Explore builds the Component of one conflict island: on the structural
// path the island is renamed to its canonical form up to constant
// renaming and the shared canonical semantics is explored at most once
// per shape, however the island's constants are named (concurrent
// isomorphic explorations coalesce on the cache entry; an island past the
// canonicalization search budget keeps a first-occurrence key, which may
// cost a second exploration of its shape); otherwise the island is explored
// directly, seeded with the violations it already carries. Safe for
// concurrent use by multiple goroutines of the same scope.
func (sc *BuildScope) Explore(isl *abc.Island) (Explored, error) {
	facts := isl.Facts
	c := &Component{Facts: facts}
	if sc.structural {
		canonFacts, key, inv, _ := canonicalize(facts)
		e := sc.cache.entry(key, sc.call)
		// The exploration runs on the canonical instance — a pure
		// function of the cache key — so every isomorphic component
		// observes the identical shared semantics regardless of which
		// one arrived first.
		e.once.Do(func() {
			e.sem, e.err = computeComponent(sc.sigma, sc.g, sc.opt, canonFacts, renameViolations(isl.Violations(), canonRenaming(inv)))
		})
		if e.err != nil {
			return Explored{}, fmt.Errorf("component %s: %w", relation.FactsString(facts), e.err)
		}
		c.canon = e.sem
		c.canonFacts, c.inv = canonFacts, inv
		return Explored{Comp: c, key: key, entry: e}, nil
	}
	sem, err := computeComponent(sc.sigma, sc.g, sc.opt, facts, constraint.ViolationsOf(isl.Violations()))
	if err != nil {
		return Explored{}, fmt.Errorf("component %s: %w", relation.FactsString(facts), err)
	}
	c.sem = sem
	return Explored{Comp: c}, nil
}

// Accounting returns the deterministic cache hit/miss split of the
// scope's explorations, listed in deterministic island order: the first
// exploration of each distinct shape is a miss if the shape entered the
// cache under this scope's window and a hit if an earlier build left it
// there; every repeat of a shape is a hit. The split is a pure function
// of the explored islands and the cache's pre-build contents, whatever
// the goroutine scheduling was. Zero under a non-structural scope.
func (sc *BuildScope) Accounting(explored []Explored) (hits, misses int) {
	if !sc.structural {
		return 0, 0
	}
	distinct := make(map[string]bool, len(explored))
	for _, e := range explored {
		if e.entry == nil {
			continue
		}
		if distinct[e.key] {
			hits++
			continue
		}
		distinct[e.key] = true
		if e.entry.call == sc.call {
			misses++
		} else {
			hits++
		}
	}
	return hits, misses
}

// UpdateUntouched derives the post-delta untouched core from the
// previous one in O(delta + touched region): the fact delta is applied,
// the facts of dissolved islands return when they are still present and
// conflict-free under the post-delta partition, and the facts the fresh
// islands claimed are evicted. db is the post-delta database and part
// its partition; removed and fresh are the island churn between the
// previous build's partition and part.
func UpdateUntouched(prev, db *relation.Database, part *abc.Partition, ops []FactDelta, removed, fresh []*abc.Island) *relation.Database {
	untouched := prev.Clone()
	for _, op := range ops {
		if op.Insert {
			untouched.Insert(op.Fact)
		} else {
			untouched.Delete(op.Fact)
		}
	}
	for _, isl := range removed {
		for _, f := range isl.Facts {
			if db.Contains(f) && part.IslandOf(f) == nil {
				untouched.Insert(f)
			}
		}
	}
	for _, isl := range fresh {
		for _, f := range isl.Facts {
			untouched.Delete(f)
		}
	}
	untouched.Compact(untouchedCompactLimit)
	return untouched
}

// AssembleFactored publishes a Factored from parts maintained by a
// resident builder (internal/serve's sharded writers): the post-delta
// database, the partition — every island of which must already carry its
// *Component payload — and the incrementally maintained untouched core.
// reused, hits, and misses are the caller's build accounting (islands
// carried verbatim, plus the Accounting split of the explored rest). The
// result is the same value buildFactored would publish for the same
// parts; it walks the partition once to align Components with Islands.
func AssembleFactored(db *relation.Database, sigma *constraint.Set, g LocalGenerator, part *abc.Partition, untouched *relation.Database, reused, hits, misses int) (*Factored, error) {
	islands := part.Islands()
	components := make([]*Component, len(islands))
	for i, isl := range islands {
		comp, ok := isl.Payload.(*Component)
		if !ok {
			return nil, fmt.Errorf("core: island %s has no component payload; explore every fresh island before assembling", relation.FactsString(isl.Facts))
		}
		components[i] = comp
	}
	return &Factored{
		initial:     db,
		sigma:       sigma,
		gen:         g,
		part:        part,
		Untouched:   untouched,
		Components:  components,
		Reused:      reused,
		CacheHits:   hits,
		CacheMisses: misses,
	}, nil
}
